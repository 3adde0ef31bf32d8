"""Experiment orchestration and command-line entry point.

Configuration is a flat ``key = value`` file (``#`` comments) merged with
command-line flags; flags win. The fields of ``ExperimentConfig`` are the
only key list, and the value parsers come from their defaults' types.
``VERBS`` is the one verb table: each verb's runner, the keys it reads
besides ``mode``, ``out_dir`` and ``svg``, and its mode defaults. A verb
takes a flag from the ``(flag, key, help)`` table ``_FLAGS`` only for a key
it reads. A key it does not read, or one no verb reads, is a configuration
error, never ignored. An ``ExperimentConfig`` checks itself when it is
built (``dataclasses.replace`` included) by building the library types that
hold the rules, with list values checked like scalars, and refuses a list
that repeats a value.
Every run writes the keys its verb reads next to its outputs, and
re-running from that echo reproduces the outputs byte for byte.

Verbs: single, sweep-s, sweep-lambda, effective-hopping, bangbang,
oracle-compare, selftest. Each experiment verb returns its output tables
and does no I/O; ``run_experiment`` is the one place that writes files:
the config echo, then ``stem.csv`` for every table and, with ``svg`` set,
``stem.svg`` beside it. ``selftest`` takes no flags. Exit codes: 0 ok,
otherwise the ``exit_code`` of the library error raised (errors.py: 2
configuration error, 3 numerical failure, 4 invariant violation); every
failure also writes a JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from collections import namedtuple
from dataclasses import dataclass, fields, replace

import numpy as np

from . import bath, dynamics, numerics, oracle, rates
from .errors import ConfigError, InvariantError, NumericalError, PolaronDecoError
from .output import ensure_dir, format_number, plot_points, write_csv, write_svg

ENV_OUT_DIR = "POLARON_DECO_OUT"


def _parse_bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "single"
    lambda_g: float = 1.0
    s: float = 1.0
    j_hop: float = 1.0
    t_max: float = 50.0
    dt: float = 0.005
    rho_ss: float = 2.0 / 3.0
    re_rho_st: float = math.sqrt(2.0) / 3.0
    im_rho_st: float = 0.0
    s_values: tuple = (1.0, 10.0, 100.0)
    lambda_values: tuple = (0.5, 1.0, 2.0)
    n_modes: int = 2
    n_max: int = 6
    cycles: tuple = (4, 8, 16, 32, 64)
    total_time: float = 4.0
    out_dir: str = ""
    svg: bool = False

    def __post_init__(self):
        keys = _keys(self.mode)  # refuses an unknown mode
        # a library caller may pass lists; the checks and the echo take tuples
        for key in ("s_values", "lambda_values", "cycles"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
        for f in fields(self):
            val = getattr(self, f.name)
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (val if isinstance(val, tuple) else (val,))):
                raise ConfigError(f"{f.name} must be finite, got {_format_value(val)}")
        self.initial_state()
        # the library types hold the rules: lambda_g >= 0 and s >= 0 for
        # every scalar and list value, cycles >= 1 and total_time > 0
        for key, list_key in _LIST_OF.items():
            bath.BathModel(**{key: getattr(self, key)})
            for v in getattr(self, list_key):
                try:
                    bath.BathModel(**{key: v})
                except ConfigError as exc:
                    raise ConfigError(f"in {list_key}: {exc}") from None
        self.grid()  # refuses a grid over numerics.MAX_POINTS
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if not (self.s_values and self.lambda_values):
            raise ConfigError("s_values and lambda_values must not be empty")
        for key in ("s_values", "lambda_values"):
            # each value tags its own output column, so no two may print alike
            tags = [format_number(v) for v in getattr(self, key)]
            if len(set(tags)) < len(tags):
                raise ConfigError(f"{key} repeats a value: {_format_value(getattr(self, key))}")
        for n in self.cycles:
            oracle.PulseSchedule(total_time=self.total_time, cycles=n)
        if len(set(self.cycles)) < 3:
            # bangbang's log-log slope is fitted through one point per count
            raise ConfigError(f"cycles needs at least three distinct counts for the "
                              f"scaling fit, got {_format_value(self.cycles)}")
        if "n_modes" in keys:
            self.oracle_config()  # refuses no modes or a space over oracle.DIM_CAP

    def initial_state(self) -> dynamics.DensityMatrixST:
        return dynamics.DensityMatrixST.from_parts(
            self.rho_ss, self.re_rho_st + 1j * self.im_rho_st
        )

    def bath_model(self) -> bath.BathModel:
        return bath.BathModel(lambda_g=self.lambda_g, s=self.s)

    def grid(self) -> numerics.TimeGrid:
        return numerics.TimeGrid(t_max=self.t_max, dt=self.dt)

    def oracle_config(self) -> oracle.TruncatedBathConfig:
        return oracle.ohmic_mode_config(
            n_modes=self.n_modes, n_max=self.n_max, coupling=self.lambda_g,
            s=self.s, j_hop=self.j_hop,
        )


def _field_parser(default):
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        item = type(default[0])
        return lambda text: tuple(item(p) for p in str(text).split(","))
    return type(default)


_KEY_PARSERS = {f.name: _field_parser(f.default) for f in fields(ExperimentConfig)}

# a scalar and the list that a sweep reads in its place: the scalar's flag
# sets the list on a verb that reads the list and not the scalar
_LIST_OF = {"s": "s_values", "lambda_g": "lambda_values"}


def _keys(mode):
    """Every key a verb takes: mode, the keys it reads, out_dir and svg."""
    if mode not in VERBS:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {tuple(VERBS)}")
    return ("mode",) + VERBS[mode].reads + ("out_dir", "svg")


def _parse_value(key, val, where):
    if key not in _KEY_PARSERS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return _KEY_PARSERS[key](val)
    except (ValueError, TypeError):
        raise ConfigError(f"{where}: invalid value for {key!r}: {val!r}") from None


def _parse_config_text(text):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        values[key] = _parse_value(key, val.strip(), f"line {lineno}")
    return values


def parse_config(file_text=None, flags=None, mode=None) -> ExperimentConfig:
    """Resolve defaults, file values and flag overrides into a config.

    Precedence, lowest first: built-in defaults, the verb's mode defaults,
    config file, flags. The mode argument (the CLI verb) participates as a
    flag-level override of any ``mode`` key in the file. A key that the
    verb does not read is a ConfigError.
    """
    file_values = _parse_config_text(file_text) if file_text else {}
    flag_values = {key: _parse_value(key, val, "flag")
                   for key, val in (flags or {}).items() if val is not None}

    resolved_mode = mode or flag_values.get("mode") or file_values.get("mode") \
        or "single"
    given = {**file_values, **flag_values}
    keys = _keys(resolved_mode)
    unread = [f"{key!r} (set {_LIST_OF[key]} instead)" if _LIST_OF.get(key) in keys
              else repr(key) for key in given if key not in keys]
    if unread:
        raise ConfigError(f"{resolved_mode} does not read {', '.join(unread)}")
    merged = {**VERBS[resolved_mode].defaults, **given, "mode": resolved_mode}
    if not merged.get("out_dir"):
        merged["out_dir"] = os.environ.get(ENV_OUT_DIR, "out")
    return ExperimentConfig(**merged)


def _format_value(v):
    # floats use repr so the echo round-trips exactly (9 significant digits
    # are a data-file rule, not enough to reproduce a run bit for bit)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_config_echo(config: ExperimentConfig, path):
    """Write mode, the keys the verb reads and out_dir and svg, in field order."""
    keys = _keys(config.mode)
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}"
             for f in fields(ExperimentConfig) if f.name in keys]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Experiment modes
# ---------------------------------------------------------------------------

def _trajectory_for(config):
    table = rates.build_rate_table(config.bath_model(), config.j_hop, config.grid())
    return dynamics.evolve_closed_form(config.initial_state(), table)


def _run_single(config):
    return [("trajectory", *_trajectory_for(config).table(),
             ({"C": "C", "P_D": "P_D", "rho_TT": "rho_tt", "rho_SS": "rho_ss"},
              dict(title="single run", x_label="t", y_label="value")))]


def _run_sweep(config, key, values, label):
    trajs = [_trajectory_for(replace(config, **{key: v})) for v in values]
    t = config.grid().points
    tags = [f"{label}={format_number(v)}" for v in values]
    header_b, cols_b = ["t"], [t]
    for tag, traj in zip(tags, trajs):
        header_b += [f"PD_{tag}", f"rho_tt_{tag}", f"rho_ss_{tag}"]
        cols_b += [traj.pop_diff, traj.rho_tt, traj.rho_ss]
    return [
        ("fig2a", ["t"] + [f"C_{tag}" for tag in tags], [t] + [tr.coherence for tr in trajs],
         (), ({tag: f"C_{tag}" for tag in tags},
              dict(title="coherence decay", x_label="t", y_label="C(t)"))),
        ("fig2bcd", header_b, cols_b, (),
         ({f"PD_{tag}": f"PD_{tag}" for tag in tags},
          dict(title="population difference", x_label="t", y_label="P_D(t)"))),
    ]


def _run_effective_hopping(config):
    # bath.effective_hopping_ratio, exp(-K_c(0)/2), along a whole axis at once
    lam_grid = np.linspace(0.0, 2.0, 81)
    s_grid = np.logspace(-1.0, 2.0, 61)
    tags_a = [f"ratio_s={format_number(s)}" for s in config.s_values]
    tags_b = [f"ratio_lambda={format_number(lam)}" for lam in config.lambda_values]
    return [
        ("fig1a", ["lambda_g"] + tags_a,
         [lam_grid] + [np.exp(-0.5 * bath.kernel_zero(lam_grid, s)) for s in config.s_values],
         (), ({tag: tag for tag in tags_a},
              dict(title="dressed hopping vs coupling", x_label="lambda_g", y_label="Jt/J"))),
        ("fig1b", ["s"] + tags_b,
         [s_grid] + [np.exp(-0.5 * bath.kernel_zero(lam, s_grid))
                     for lam in config.lambda_values],
         (), ({tag: tag for tag in tags_b},
              dict(title="dressed hopping vs scattering scale", x_label="s",
                   y_label="Jt/J", log_x=True))),
    ]


def _run_bangbang(config):
    schedules = [oracle.PulseSchedule(total_time=config.total_time, cycles=n)
                 for n in config.cycles]
    report = oracle.run_bangbang(config.oracle_config(), config.initial_state(), schedules)
    if report.fitted_slope is None:
        raise NumericalError("no scaling fit: fewer than three schedules end at a pulsed "
                             "trace distance >= 1e-12")
    return [("bangbang", *report.table(),
             ({"pulsed": "trace_distance_pulsed", "free": "trace_distance_free"},
              dict(title="pulse-train protection", x_label="delta_t",
                   y_label="trace distance", log_x=True, log_y=True)))]


def _run_oracle_compare(config):
    grid = config.grid()
    comp = oracle.compare_with_master_equation(
        config.oracle_config(), config.initial_state(), grid)
    return [(
        "compare",
        ["t", "C_exact", "C_master", "PD_exact", "PD_master"],
        [grid.points, comp.exact.coherence, comp.master.coherence,
         comp.exact.pop_diff, comp.master.pop_diff],
        [f"# j_tilde={format_number(comp.j_tilde)} "
         f"delta_e_b={format_number(comp.delta_e_b)} "
         f"adiabaticity_ratio={format_number(comp.adiabaticity_ratio)} "
         f"rms_coherence_diff={format_number(comp.rms_coherence_diff)}"],
        ({"C_exact": "C_exact", "C_master": "C_master"},
         dict(title="exact vs rate equation", x_label="t", y_label="C(t)")),
    )]


# the initial state, then what a rate-equation run reads besides its coupling
# and scattering scale (or their lists), then what the exact oracle reads
_STATE = ("rho_ss", "re_rho_st", "im_rho_st")
_RATE = ("j_hop", "t_max", "dt") + _STATE
_ORACLE = ("lambda_g", "s", "j_hop", "n_modes", "n_max") + _STATE

Verb = namedtuple("Verb", "runner reads defaults")

# verb -> its runner, the config keys it reads besides mode, out_dir and svg,
# and the mode defaults applied before file and flag values
VERBS = {
    "single": Verb(_run_single, ("lambda_g", "s") + _RATE, {}),
    "sweep-s": Verb(lambda cfg: _run_sweep(cfg, "s", cfg.s_values, "s"),
                    ("lambda_g", "s_values") + _RATE, {}),
    "sweep-lambda": Verb(lambda cfg: _run_sweep(cfg, "lambda_g", cfg.lambda_values, "lambda"),
                         ("s", "lambda_values") + _RATE, {}),
    "effective-hopping": Verb(_run_effective_hopping, ("s_values", "lambda_values"), {}),
    "bangbang": Verb(_run_bangbang, _ORACLE + ("cycles", "total_time"),
                     {"s": math.pi, "j_hop": 0.5}),
    "oracle-compare": Verb(_run_oracle_compare, _ORACLE + ("t_max", "dt"),
                           {"lambda_g": 0.1, "j_hop": 0.1, "t_max": 10.0,
                            "dt": 0.0125, "n_max": 5}),
}


def run_experiment(config: ExperimentConfig):
    """Execute one experiment; returns the list of files written.

    The resolved configuration echo is always written first, so a failed
    run still documents what was attempted. The verb's runner returns its
    tables, each ``(stem, header, columns, comments, plot)``; every table
    becomes ``stem.csv`` and, with ``svg`` set, ``stem.svg`` beside it.
    ``plot`` is ``(series, style)``: series maps each legend label to the
    header name of the column it draws against the first column, and style
    holds write_svg's title, axis labels and log flags. An SVG draws only
    the rows plot_points keeps, the ones that set its pixels; the CSV holds
    every row. The config checked itself when it was built, so nothing is
    written for an invalid one.
    """
    ensure_dir(config.out_dir)
    echo = os.path.join(config.out_dir, "config_echo.cfg")
    write_config_echo(config, echo)
    written = [echo]
    for stem, header, columns, comments, (series, style) in \
            VERBS[config.mode].runner(config):
        path = os.path.join(config.out_dir, stem)
        write_csv(path + ".csv", header, columns, comments)
        written.append(path + ".csv")
        if config.svg:
            by_name = dict(zip(header, columns))
            ys = [np.asarray(by_name[name]) for name in series.values()]
            keep = plot_points(columns[0], ys, style.get("log_x", False),
                               style.get("log_y", False))
            write_svg(path + ".svg", np.asarray(columns[0])[keep],
                      {label: y[keep] for label, y in zip(series, ys)}, **style)
            written.append(path + ".svg")
    return written


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------

def selftest() -> bool:
    """Fast internal consistency checks; prints one PASS/FAIL line each.

    On failure an InvariantError record naming the failed checks also goes
    to stderr, as for any other exit 4.
    """
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report any failure
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    def _dawson_vs_quadrature():
        for z in (0.3, 2.0, 7.0, 21.0, 150.0):
            ref = numerics.integrate_semiinf(
                lambda t, z=z: np.exp(-t * t) * np.sin(z * t), z)
            if abs(numerics.dawson_sine(z) - ref) > 1e-12 * max(1.0, abs(ref)):
                raise NumericalError(f"dawson mismatch at z={z}")

    def _kernel_closed_form():
        for lam in (0.1, 1.0, 5.0):
            for s in (0.1, 1.0, 10.0, 100.0):
                model = bath.BathModel(lambda_g=lam, s=s)
                if abs(bath.kernel_cos(0.0, model) - model.kernel_zero()) > 1e-12:
                    raise NumericalError(f"kernel zero mismatch at lam={lam} s={s}")

    def _no_decoherence_limit():
        grid = numerics.TimeGrid(t_max=10.0, dt=0.01)
        table = rates.build_rate_table(bath.BathModel(lambda_g=1.0, s=0.0), 1.0, grid)
        state = dynamics.DensityMatrixST.from_parts(2 / 3, np.sqrt(2) / 3)
        traj = dynamics.evolve_closed_form(state, table)
        if np.max(np.abs(traj.coherence - 1.0)) > 1e-9:
            raise NumericalError("s=0 coherence drifts")

    def _ode_vs_closed_form():
        grid = numerics.TimeGrid(t_max=10.0, dt=0.01)
        table = rates.build_rate_table(bath.BathModel(lambda_g=1.0, s=1.0), 1.0, grid)
        state = dynamics.DensityMatrixST.from_parts(2 / 3, np.sqrt(2) / 3)
        a = dynamics.evolve_ode(state, table)
        b = dynamics.evolve_closed_form(state, table)
        err = max(np.max(np.abs(a.rho_ss - b.rho_ss)),
                  np.max(np.abs(a.rho_st - b.rho_st)))
        if err > 1e-6:
            raise NumericalError(f"ODE vs closed form differ by {err:.2e}")

    def _lang_firsov():
        cfg = oracle.TruncatedBathConfig(
            mode_freqs=(1.0,), g_site1=(0.5,), g_site2=(0.0,), n_max=10, j_hop=1.0)
        rep = oracle.lang_firsov_check(cfg)
        if rep.displaced_vacuum_dev > 1e-8 or rep.hop_error > 1e-3 or not rep.conclusive:
            raise NumericalError("displacement-transform check failed")

    def _exact_propagation():
        # the oracle's Chebyshev series against an eigendecomposition of the
        # same lab-basis H, for |g_1k| = |g_2k| and |g_1k| != |g_2k|, dim 72
        lab = oracle.TruncatedBathConfig(
            mode_freqs=(0.9, 2.3), g_site1=(0.3 + 0.1j, 0.05), g_site2=(0.2, 0.1 - 0.2j),
            n_max=5, j_hop=0.7, epsilon_onsite=0.1)
        t = numerics.TimeGrid(t_max=20.0, dt=0.05).points
        for cfg in (oracle.ohmic_mode_config(n_modes=2, n_max=5), lab):
            ham = oracle.build_hamiltonian(cfg)
            psi = oracle._vacuum_state([0.6, 0.8j], cfg.bath_dim)
            series = np.concatenate(
                [states for _, states in oracle.ChebyshevPropagator(ham).series(psi, t)])
            energies, vectors = np.linalg.eigh(ham.toarray())
            phases = np.exp(-1j * np.multiply.outer(t, energies))
            exact = (phases * (vectors.conj().T @ psi)) @ vectors.T
            err = float(np.max(np.abs(series - exact)))
            if err > 1e-12:
                raise NumericalError(f"Chebyshev vs eigh propagation differ by {err:.2e}")

    def _determinism():
        with tempfile.TemporaryDirectory() as tmp:
            cfgs = [replace(parse_config(mode="effective-hopping"),
                            out_dir=os.path.join(tmp, d)) for d in ("a", "b")]
            payloads = []
            for cfg in cfgs:
                files = run_experiment(cfg)
                payloads.append(b"".join(
                    open(p, "rb").read() for p in sorted(files)
                    if not p.endswith(".cfg")))
            if payloads[0] != payloads[1]:
                raise NumericalError("repeated run produced different bytes")

    check("dawson-vs-quadrature", _dawson_vs_quadrature)
    check("kernel-closed-form", _kernel_closed_form)
    check("no-decoherence-limit", _no_decoherence_limit)
    check("ode-vs-closed-form", _ode_vs_closed_form)
    check("lang-firsov", _lang_firsov)
    check("exact-propagation", _exact_propagation)
    check("determinism", _determinism)

    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"SELFTEST {name}: {status}{suffix}")
    failed = [name for name, passed, _ in checks if not passed]
    if failed:
        print(_error_record(InvariantError(f"selftest failed: {', '.join(failed)}")),
              file=sys.stderr)
    return not failed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# (flag, key, help); a verb takes --config, --svg and the flag of each key it
# takes (_keys), and --s / --lambda set the list on a verb that sweeps it
_FLAGS = (
    ("--out", "out_dir", f"output directory (default ${ENV_OUT_DIR} or ./out)"),
    ("--s", "s", "scattering scale"),
    ("--lambda", "lambda_g", "effective coupling"),
    ("--j", "j_hop", "bare hopping"),
    ("--tmax", "t_max", "grid end time"),
    ("--dt", "dt", "grid spacing"),
    ("--modes", "n_modes", "number of discretized bath modes"),
    ("--nmax", "n_max", "Fock cutoff per mode"),
    ("--cycles", "cycles", "comma list of pulse cycle counts"),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polaron-deco",
        description="Dephasing and pulse protection of a two-site polaron qubit.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--svg", action="store_true", default=None,
                       help="also emit SVG charts")
        keys = _keys(verb)
        for flag, key, help_text in _FLAGS:
            if key not in keys and _LIST_OF.get(key) in keys:
                key, help_text = _LIST_OF[key], f"comma list of {help_text} values"
            if key in keys:
                p.add_argument(flag, dest=key, help=help_text)
    sub.add_parser("selftest")  # takes no flags, so a stray one exits 2
    return parser


def _error_record(exc) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None) -> int:
    # every parser dest but these two is a config key (None when not given)
    flags = vars(_build_parser().parse_args(argv))
    verb, config_path = flags.pop("verb"), flags.pop("config", None)
    if verb == "selftest":
        return 0 if selftest() else InvariantError.exit_code

    try:
        file_text = None
        if config_path:
            try:
                with open(config_path, encoding="utf-8") as fh:
                    file_text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from None
        config = parse_config(file_text=file_text, flags=flags, mode=verb)
        written = run_experiment(config)
    except PolaronDecoError as exc:
        print(_error_record(exc), file=sys.stderr)
        return exc.exit_code
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment orchestration and command-line entry point.

Configuration is a flat ``key = value`` file (``#`` comments) merged with
command-line flags; flags win. The fields of ``ExperimentConfig`` are the
only key list: the value parsers come from their defaults' types and the
flags from one ``(flag, key, help)`` table. A key that an older release
accepted (``_REMOVED_KEYS``) is a configuration error, never ignored. Every
run writes the fully resolved configuration next to its outputs, and
re-running from that echo reproduces the outputs byte for byte.

Verbs: single, sweep-s, sweep-lambda, effective-hopping, bangbang,
oracle-compare, selftest. Exit codes: 0 ok, 2 configuration error,
3 numerical failure, 4 invariant violation; every failure also writes a
JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace

import numpy as np

from . import bath, dynamics, numerics, oracle, rates
from .errors import ConfigError, InvariantError, NumericalError, PolaronDecoError
from .output import ensure_dir, format_number, write_csv, write_svg

MODES = ("single", "sweep-s", "sweep-lambda", "effective-hopping",
         "bangbang", "oracle-compare")

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

    def validate(self) -> "ExperimentConfig":
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        for f in fields(self):
            val = getattr(self, f.name)
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (val if isinstance(val, tuple) else (val,))):
                raise ConfigError(f"{f.name} must be finite, got {_format_value(val)}")
        self.initial_state()
        self.bath_model()
        self.grid()
        if self.n_modes < 1:
            raise ConfigError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if any(n < 1 for n in self.cycles):
            raise ConfigError(f"cycles must all be >= 1, got {self.cycles}")
        if not self.total_time > 0:
            raise ConfigError(f"total_time must be > 0, got {self.total_time}")
        if not (self.s_values and self.lambda_values and self.cycles):
            raise ConfigError("s_values, lambda_values and cycles must not be empty")
        return self

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

# keys older releases accepted; ignoring e.g. omega_c = 2.0 would silently
# change the physics, so naming one is an error that says what to do instead
_REMOVED_KEYS = {
    "omega_c": "rescale instead: lambda_g*W^2, s*W, j_hop/W, t_max*W, dt*W",
    "geometry_factor": "multiply it into lambda_g instead",
    "jobs": "sweeps run in one thread; delete the line",
    "seed": "it was never read; delete the line",
}

# scalar key -> (list key, verbs that sweep the list and never read the scalar)
_SWEPT_KEYS = {
    "s": ("s_values", ("sweep-s", "effective-hopping")),
    "lambda_g": ("lambda_values", ("sweep-lambda", "effective-hopping")),
}

# mode-specific defaults applied before file and flag overrides
_MODE_DEFAULTS = {
    "bangbang": {"s": math.pi, "j_hop": 0.5},
    "oracle-compare": {"lambda_g": 0.1, "j_hop": 0.1, "t_max": 10.0,
                       "dt": 0.0125, "n_max": 5},
}


def _parse_value(key, val, where):
    if key in _REMOVED_KEYS:
        raise ConfigError(f"{where}: key {key!r} was removed; {_REMOVED_KEYS[key]}")
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

    Precedence, lowest first: built-in defaults, mode-specific defaults,
    config file, flags. The mode argument (the CLI verb) participates as a
    flag-level override of any ``mode`` key in the file.
    """
    file_values = _parse_config_text(file_text) if file_text else {}
    flag_values = {key: _parse_value(key, val, "flag")
                   for key, val in (flags or {}).items() if val is not None}

    resolved_mode = mode or flag_values.get("mode") or file_values.get("mode") \
        or "single"
    for key, (list_key, verbs) in _SWEPT_KEYS.items():
        # a config echo names both keys; a file naming only the scalar would
        # silently run the default list
        if resolved_mode in verbs and key in file_values and list_key not in file_values:
            raise ConfigError(f"config file: {resolved_mode} sweeps {list_key} and "
                              f"ignores {key!r}; set {list_key} instead")
    merged = dict(_MODE_DEFAULTS.get(resolved_mode, {}))
    merged.update(file_values)
    merged.update(flag_values)
    merged["mode"] = resolved_mode
    if not merged.get("out_dir"):
        merged["out_dir"] = os.environ.get(ENV_OUT_DIR, "out")
    return ExperimentConfig(**merged).validate()


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
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}"
             for f in fields(ExperimentConfig)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Experiment modes
# ---------------------------------------------------------------------------

def _trajectory_for(config):
    table = rates.build_rate_table(config.bath_model(), config.j_hop, config.grid())
    return dynamics.evolve_closed_form(config.initial_state(), table)


def _run_single(config):
    traj = _trajectory_for(config)
    path = os.path.join(config.out_dir, "trajectory.csv")
    traj.to_csv(path)
    written = [path]
    if config.svg:
        svg = os.path.join(config.out_dir, "trajectory.svg")
        write_svg(svg, traj.grid.points,
                  {"C": traj.coherence, "P_D": traj.pop_diff,
                   "rho_TT": traj.rho_tt, "rho_SS": traj.rho_ss},
                  title="single run", x_label="t", y_label="value")
        written.append(svg)
    return written


def _run_sweep(config, key, values, label):
    trajs = [_trajectory_for(replace(config, **{key: v})) for v in values]
    grid = config.grid()
    tags = [f"{label}={format_number(v)}" for v in values]
    path_a = os.path.join(config.out_dir, "fig2a.csv")
    write_csv(path_a, ["t"] + [f"C_{tag}" for tag in tags],
              [grid.points] + [t.coherence for t in trajs])
    path_b = os.path.join(config.out_dir, "fig2bcd.csv")
    header = ["t"]
    cols = [grid.points]
    for tag, traj in zip(tags, trajs):
        header += [f"PD_{tag}", f"rho_tt_{tag}", f"rho_ss_{tag}"]
        cols += [traj.pop_diff, traj.rho_tt, traj.rho_ss]
    write_csv(path_b, header, cols)
    written = [path_a, path_b]
    if config.svg:
        svg_a = os.path.join(config.out_dir, "fig2a.svg")
        write_svg(svg_a, grid.points,
                  {tag: t.coherence for tag, t in zip(tags, trajs)},
                  title="coherence decay", x_label="t", y_label="C(t)")
        svg_b = os.path.join(config.out_dir, "fig2bcd.svg")
        write_svg(svg_b, grid.points,
                  {f"PD_{tag}": t.pop_diff for tag, t in zip(tags, trajs)},
                  title="population difference", x_label="t", y_label="P_D(t)")
        written += [svg_a, svg_b]
    return written


def _run_effective_hopping(config):
    # bath.effective_hopping_ratio, exp(-K_c(0)/2), along a whole axis at once
    lam_grid = np.linspace(0.0, 2.0, 81)
    path_a = os.path.join(config.out_dir, "fig1a.csv")
    cols_a = [lam_grid]
    header_a = ["lambda_g"]
    for s in config.s_values:
        header_a.append(f"ratio_s={format_number(s)}")
        cols_a.append(np.exp(-0.5 * bath.kernel_zero(lam_grid, s)))
    write_csv(path_a, header_a, cols_a)

    s_grid = np.logspace(-1.0, 2.0, 61)
    path_b = os.path.join(config.out_dir, "fig1b.csv")
    cols_b = [s_grid]
    header_b = ["s"]
    for lam in config.lambda_values:
        header_b.append(f"ratio_lambda={format_number(lam)}")
        cols_b.append(np.exp(-0.5 * bath.kernel_zero(lam, s_grid)))
    write_csv(path_b, header_b, cols_b)
    written = [path_a, path_b]
    if config.svg:
        svg_a = os.path.join(config.out_dir, "fig1a.svg")
        write_svg(svg_a, lam_grid, dict(zip(header_a[1:], cols_a[1:])),
                  title="dressed hopping vs coupling", x_label="lambda_g",
                  y_label="Jt/J")
        svg_b = os.path.join(config.out_dir, "fig1b.svg")
        write_svg(svg_b, s_grid, dict(zip(header_b[1:], cols_b[1:])),
                  title="dressed hopping vs scattering scale", x_label="s",
                  y_label="Jt/J", log_x=True)
        written += [svg_a, svg_b]
    return written


def _run_bangbang(config):
    cfg = config.oracle_config()
    schedules = [oracle.PulseSchedule(total_time=config.total_time, cycles=n)
                 for n in config.cycles]
    report = oracle.run_bangbang(cfg, config.initial_state(), schedules)
    path = os.path.join(config.out_dir, "bangbang.csv")
    report.to_csv(path)
    written = [path]
    if config.svg:
        svg = os.path.join(config.out_dir, "bangbang.svg")
        write_svg(svg, [r.delta_t for r in report.results],
                  {"pulsed": [r.distance_pulsed for r in report.results],
                   "free": [r.distance_free for r in report.results]},
                  title="pulse-train protection", x_label="delta_t",
                  y_label="trace distance", log_x=True, log_y=True)
        written.append(svg)
    return written


def _run_oracle_compare(config):
    cfg = config.oracle_config()
    grid = config.grid()
    comp = oracle.compare_with_master_equation(cfg, config.initial_state(), grid)
    path = os.path.join(config.out_dir, "compare.csv")
    write_csv(
        path,
        ["t", "C_exact", "C_master", "PD_exact", "PD_master"],
        [grid.points, comp.exact.coherence, comp.master.coherence,
         comp.exact.pop_diff, comp.master.pop_diff],
        comments=[
            f"# j_tilde={format_number(comp.j_tilde)} "
            f"delta_e_b={format_number(comp.delta_e_b)} "
            f"adiabaticity_ratio={format_number(comp.adiabaticity_ratio)} "
            f"rms_coherence_diff={format_number(comp.rms_coherence_diff)}"
        ],
    )
    written = [path]
    if config.svg:
        svg = os.path.join(config.out_dir, "compare.svg")
        write_svg(svg, grid.points,
                  {"C_exact": comp.exact.coherence, "C_master": comp.master.coherence},
                  title="exact vs rate equation", x_label="t", y_label="C(t)")
        written.append(svg)
    return written


_MODE_RUNNERS = {
    "single": _run_single,
    "sweep-s": lambda cfg: _run_sweep(cfg, "s", cfg.s_values, "s"),
    "sweep-lambda": lambda cfg: _run_sweep(cfg, "lambda_g", cfg.lambda_values, "lambda"),
    "effective-hopping": _run_effective_hopping,
    "bangbang": _run_bangbang,
    "oracle-compare": _run_oracle_compare,
}


def run_experiment(config: ExperimentConfig):
    """Execute one experiment; returns the list of files written.

    The resolved configuration echo is always written first, so a failed
    run still documents what was attempted.
    """
    config.validate()
    ensure_dir(config.out_dir)
    echo = os.path.join(config.out_dir, "config_echo.cfg")
    write_config_echo(config, echo)
    written = [echo] + _MODE_RUNNERS[config.mode](config)
    return written


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------

def selftest(out=None) -> bool:
    """Fast internal consistency checks; prints one PASS/FAIL line each.

    On failure an InvariantError record naming the failed checks also goes
    to stderr, as for any other exit 4.
    """
    out = out if out is not None else sys.stdout
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
        rep = oracle.lang_firsov_check(cfg, include_two_particle=False)
        if rep.spectrum_max_dev > 1e-8 or rep.hop_error > 1e-3:
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
            energies, vectors = np.linalg.eigh(ham)
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
        print(f"SELFTEST {name}: {status}{suffix}", file=out)
    failed = [name for name, passed, _ in checks if not passed]
    if failed:
        print(_error_record(InvariantError(f"selftest failed: {', '.join(failed)}")),
              file=sys.stderr)
    return not failed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# (flag, key, help); every verb takes each of these plus --config
_FLAGS = (
    ("--out", "out_dir", f"output directory (default ${ENV_OUT_DIR} or ./out)"),
    ("--s", "s", "scattering scale; the s_values list for sweep-s and "
                 "effective-hopping"),
    ("--lambda", "lambda_g", "effective coupling; the lambda_values list for "
                             "sweep-lambda and effective-hopping"),
    ("--j", "j_hop", "bare hopping"),
    ("--tmax", "t_max", "grid end time"),
    ("--dt", "dt", "grid spacing"),
    ("--svg", "svg", "also emit SVG charts"),
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
    for verb in MODES + ("selftest",):
        p = sub.add_parser(verb)
        p.add_argument("--config", help="flat key = value configuration file")
        for flag, key, help_text in _FLAGS:
            if _KEY_PARSERS[key] is _parse_bool:
                p.add_argument(flag, dest=key, action="store_true", default=None,
                               help=help_text)
            else:
                p.add_argument(flag, dest=key, help=help_text)
    return parser


def _flags_from_args(args) -> dict:
    """Flag values by config key. On the verbs that sweep a key, its flag
    sets the list (one value meaning a one-point list); elsewhere the scalar."""
    flags = {key: getattr(args, key) for _, key, _ in _FLAGS
             if getattr(args, key) is not None}
    for flag, key, _ in _FLAGS:
        if key not in _SWEPT_KEYS or key not in flags:
            continue
        list_key, verbs = _SWEPT_KEYS[key]
        if args.verb in verbs:
            flags[list_key] = flags.pop(key)
        elif "," in flags[key]:
            raise ConfigError(f"{flag} takes one value for {args.verb}; "
                              f"only {' and '.join(verbs)} read a list")
    return flags


def _error_record(exc) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verb == "selftest":
        return 0 if selftest() else 4

    try:
        file_text = None
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    file_text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from None
        config = parse_config(file_text=file_text, flags=_flags_from_args(args),
                              mode=args.verb)
        written = run_experiment(config)
    except PolaronDecoError as exc:
        print(_error_record(exc), file=sys.stderr)
        if isinstance(exc, ConfigError):
            return 2
        if isinstance(exc, NumericalError):
            return 3
        if isinstance(exc, InvariantError):
            return 4
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

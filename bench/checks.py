"""Correctness checks on a workload's written outputs.

Every check returns a list of problems; an empty list means the run's
outputs are correct and its timings count.

* Seed 0: every CSV must match the reference committed under
  bench/reference/<workload>/ to one unit in the ninth significant digit
  (the precision the CSV writer emits), with an absolute floor for
  rounding noise near zero.
* Every seed, rate-equation workloads: C(t) and P_D(t) must match an
  independent route, the Dawson special-function kernels (scipy.special.dawsn,
  the forms of tests/test_bath.py) integrated with scipy's trapezoid rule and
  pushed through the closed-form solution. rk4-crosscheck must also keep
  RK4 within 1e-6 of the closed form.
* Every seed, oracle workloads: values finite, populations and trace
  distances in [0, 1], reduced states positive (|rho_ST|^2 <= rho_SS rho_TT,
  which with unit trace is (C |rho_ST(0)|)^2 <= (1 - P_D^2) / 4), and the
  summary numbers consistent with the columns and with the mode discretization.
"""

from __future__ import annotations

import lzma
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import dawsn

from workloads import ORACLE_MODES, RATE_GRID

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# reference comparison: one unit in the 9th significant digit, floor near 0
REF_ABS_FLOOR = 1e-12
# special-function route vs the program's quadrature kernels
SPECIAL_ROUTE_TOL = 1e-8
ODE_VS_CLOSED_TOL = 1e-6
# slack for 9-digit rounding in range and positivity checks
ROUND_TOL = 1e-8


def read_csv(path):
    """(comment lines, header fields, float array of rows) of a CSV output."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in body[1:]])
    return comments, header, rows.reshape(len(body) - 1, len(header))


def _digits_mismatch(got, ref):
    """Boolean mask: got differs from ref by more than a 9th-digit unit."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    mag = np.abs(ref)
    unit = np.where(mag > 0, 10.0 ** (np.floor(np.log10(np.where(mag > 0, mag, 1.0))) - 8),
                    0.0)
    tol = np.maximum(unit * (1 + 1e-9), REF_ABS_FLOOR)
    both_nan = np.isnan(got) & np.isnan(ref)
    return ~both_nan & ~(np.abs(got - ref) <= tol)


def _split_tokens(line):
    for sep in ",= ":
        line = line.replace(sep, "\x00")
    return [t for t in line.split("\x00") if t]


def _compare_text_line(got, ref, where):
    g, r = _split_tokens(got), _split_tokens(ref)
    if len(g) != len(r):
        return [f"{where}: {got!r} != reference {ref!r}"]
    for a, b in zip(g, r):
        try:
            fa, fb = float(a), float(b)
        except ValueError:
            if a != b:
                return [f"{where}: {got!r} != reference {ref!r}"]
            continue
        if _digits_mismatch([fa], [fb])[0]:
            return [f"{where}: {a} != reference {b}"]
    return []


def compare_reference(workload, out_dir):
    """Problems between the run's CSVs and the seed-0 reference CSVs."""
    ref_dir = os.path.join(REFERENCE_DIR, workload)
    names = sorted(n[:-3] for n in os.listdir(ref_dir) if n.endswith(".csv.xz"))
    problems = []
    for name in names:
        got_path = os.path.join(out_dir, name)
        if not os.path.isfile(got_path):
            problems.append(f"{name}: missing")
            continue
        with lzma.open(os.path.join(ref_dir, name + ".xz"), "rt") as fh:
            ref_lines = fh.read().splitlines()
        with open(got_path) as fh:
            got_lines = fh.read().splitlines()
        if len(got_lines) != len(ref_lines):
            problems.append(f"{name}: {len(got_lines)} lines, reference {len(ref_lines)}")
            continue
        n_text = next(i for i, ln in enumerate(ref_lines) if not ln.startswith("#")) + 1
        for i in range(n_text):
            problems += _compare_text_line(got_lines[i], ref_lines[i], f"{name}:{i + 1}")
        got = np.array([[float(x) for x in ln.split(",")] for ln in got_lines[n_text:]])
        ref = np.array([[float(x) for x in ln.split(",")] for ln in ref_lines[n_text:]])
        if got.shape != ref.shape:
            problems.append(f"{name}: shape {got.shape} != reference {ref.shape}")
            continue
        bad = np.argwhere(_digits_mismatch(got, ref))
        if bad.size:
            i, j = bad[0]
            problems.append(f"{name}:{i + n_text + 1} col {j + 1}: {got[i, j]!r} != "
                            f"reference {ref[i, j]!r} ({len(bad)} cells differ)")
    return problems


# ---------------------------------------------------------------------------
# Independent special-function route for the rate equations
# ---------------------------------------------------------------------------

def special_route(s, lambda_g, j_hop, state, t):
    """C(t), P_D(t), rho_SS(t) of the closed-form solution, with the kernels
    from the Dawson special-function forms (cutoff omega_c = 1)."""
    F = lambda z: dawsn(z / 2.0)  # noqa: E731
    lam = lambda_g
    k_cos = lam * (1.0 - t * F(t) - (F(s + t) + F(s - t)) / s)
    k_sin = lam * (math.sqrt(math.pi) / 2.0) * (
        t * np.exp(-t * t / 4.0)
        - (np.exp(-(s - t) ** 2 / 4.0) - np.exp(-(s + t) ** 2 / 4.0)) / s)
    k_cos0 = lam * (1.0 - 2.0 * F(s) / s)
    pref = 2.0 * (j_hop * math.exp(-0.5 * k_cos0)) ** 2

    def running(f):
        return cumulative_trapezoid(f, t, initial=0.0)

    gamma_plus = pref * running(np.exp(k_cos) * np.cos(k_sin) - 1.0)
    gamma_minus = pref * running(np.exp(-k_cos) * np.cos(k_sin) - 1.0)
    i0 = running(0.5 * (2.0 * gamma_plus - gamma_minus))
    i1 = running(2.0 * gamma_plus + gamma_minus)
    i2 = running(4.0 * gamma_plus)

    rho_ss0, re_st, im_st = state
    st0 = complex(re_st, im_st)
    e0, e1, e2 = np.exp(-2.0 * i0), np.exp(-i1), np.exp(-i2)
    rho_ss = 0.5 * rho_ss0 * (1.0 + e0) + 0.5 * (1.0 - rho_ss0) * (1.0 - e0)
    rho_st = 0.5 * st0 * (e1 + e2) + 0.5 * st0.conjugate() * (e1 - e2)
    return {"C": np.abs(rho_st) / abs(st0), "P_D": np.abs(1.0 - 2.0 * rho_ss),
            "rho_ss": rho_ss}


def _rate_grid():
    t_max, dt = RATE_GRID
    return np.linspace(0.0, t_max, int(round(t_max / dt)) + 1)


def _max_dev(got, want):
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))


def _within(label, got, want, tol):
    dev = _max_dev(got, want)
    if not dev <= tol:
        return [f"{label}: max deviation {dev:.3e} > {tol:.1e}"]
    return []


def _echo(out_dir):
    with open(os.path.join(out_dir, "config_echo.cfg")) as fh:
        pairs = (ln.split(" = ", 1) for ln in fh.read().splitlines() if " = " in ln)
        return {k: v for k, v in pairs}


def _echo_matches(out_dir, params, extra=()):
    """The program resolved exactly the generated inputs."""
    echo = _echo(out_dir)
    rho_ss, re_st, im_st = params["state"]
    want = {"lambda_g": repr(params["lambda_g"]), "rho_ss": repr(rho_ss),
            "re_rho_st": repr(re_st), "im_rho_st": repr(im_st), **dict(extra)}
    return [f"config_echo {k} = {echo.get(k)!r}, expected {v!r}"
            for k, v in want.items() if echo.get(k) != v]


def _svg_ok(path, n_lines):
    root = ET.parse(path).getroot()
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if not root.tag.endswith("svg") or len(lines) != n_lines:
        return [f"{os.path.basename(path)}: expected {n_lines} polylines, "
                f"found {len(lines)}"]
    return []


def check_fig2_sweep(out_dir, params, expected):
    t = _rate_grid()
    problems = _echo_matches(out_dir, params, {
        "s_values": ",".join(repr(s) for s in params["s_values"])})
    _, head_a, a = read_csv(os.path.join(out_dir, "fig2a.csv"))
    _, _, b = read_csv(os.path.join(out_dir, "fig2bcd.csv"))
    n = len(params["s_values"])
    if a.shape != (len(t), 1 + n) or b.shape != (len(t), 1 + 3 * n):
        return problems + [f"fig2 CSV shapes {a.shape}, {b.shape}"]
    problems += _within("fig2a t", a[:, 0], t, ROUND_TOL)
    problems += _within("fig2bcd t", b[:, 0], t, ROUND_TOL)
    for k, ref in enumerate(expected):
        tag = head_a[1 + k]
        pd_, rho_tt, rho_ss = b[:, 1 + 3 * k], b[:, 2 + 3 * k], b[:, 3 + 3 * k]
        problems += _within(f"{tag} vs special route", a[:, 1 + k], ref["C"],
                            SPECIAL_ROUTE_TOL)
        problems += _within(f"P_D {tag} vs special route", pd_, ref["P_D"],
                            SPECIAL_ROUTE_TOL)
        problems += _within(f"rho_ss {tag} vs special route", rho_ss, ref["rho_ss"],
                            SPECIAL_ROUTE_TOL)
        problems += _within(f"trace {tag}", rho_tt + rho_ss, 1.0, ROUND_TOL)
    problems += _svg_ok(os.path.join(out_dir, "fig2a.svg"), n)
    problems += _svg_ok(os.path.join(out_dir, "fig2bcd.svg"), n)
    return problems


def check_rk4(out_dir, params, expected):
    t = _rate_grid()
    _, head, ode = read_csv(os.path.join(out_dir, "ode.csv"))
    _, _, closed = read_csv(os.path.join(out_dir, "closed_form.csv"))
    if ode.shape != (len(t), 7) or closed.shape != ode.shape:
        return [f"trajectory CSV shapes {ode.shape}, {closed.shape}"]
    col = {name: i for i, name in enumerate(head)}
    problems = _within("t", closed[:, 0], t, ROUND_TOL)
    for name in ("rho_ss", "re_rho_st", "im_rho_st"):
        problems += _within(f"ODE vs closed form {name}", ode[:, col[name]],
                            closed[:, col[name]], ODE_VS_CLOSED_TOL)
    ref = expected[0]
    for name in ("C", "P_D", "rho_ss"):
        problems += _within(f"closed-form {name} vs special route",
                            closed[:, col[name]], ref[name], SPECIAL_ROUTE_TOL)
    problems += _within("trace", closed[:, col["rho_ss"]] + closed[:, col["rho_tt"]],
                        1.0, ROUND_TOL)
    return problems


def _ohmic_modes(coupling, s, n_modes=ORACLE_MODES, omega_max=4.0):
    """Mode frequencies and displacement weights |alpha_k|^2 of the oracle's
    deterministic discretization, recomputed from its definition."""
    dw = omega_max / n_modes
    w = (np.arange(n_modes) + 0.5) * dw
    g2 = coupling * w * np.exp(-w * w) * dw
    return w, g2 * np.abs(1.0 - np.exp(-1j * w * s)) ** 2 / (w * w)


def _state_checks(label, c, pd_, st0_mag):
    problems = []
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(pd_))):
        return [f"{label}: non-finite values"]
    if np.min(c) < 0 or np.min(pd_) < 0 or np.max(pd_) > 1.0 + ROUND_TOL:
        problems.append(f"{label}: C or P_D outside its range")
    excess = (c * st0_mag) ** 2 - 0.25 * (1.0 - pd_ ** 2)
    if np.max(excess) > ROUND_TOL:
        problems.append(f"{label}: not positive, |rho_ST|^2 exceeds rho_SS rho_TT "
                        f"by {np.max(excess):.3e}")
    return problems


def check_oracle_exact(out_dir, params, expected):
    # oracle-compare mode defaults: s = 1, J = 0.1, t_max = 10, dt = 0.0125
    s, j_hop, t_max, dt = 1.0, 0.1, 10.0, 0.0125
    problems = _echo_matches(out_dir, params)
    comments, head, rows = read_csv(os.path.join(out_dir, "compare.csv"))
    t = np.linspace(0.0, t_max, int(round(t_max / dt)) + 1)
    if head != ["t", "C_exact", "C_master", "PD_exact", "PD_master"] \
            or rows.shape != (len(t), 5):
        return problems + [f"compare.csv header {head} shape {rows.shape}"]
    problems += _within("t", rows[:, 0], t, ROUND_TOL)
    rho_ss0, re_st, im_st = params["state"]
    st0 = math.hypot(re_st, im_st)
    for label, ci, pi in (("exact", 1, 3), ("master", 2, 4)):
        problems += _state_checks(label, rows[:, ci], rows[:, pi], st0)
        problems += _within(f"{label} C(0)", rows[0, ci], 1.0, ROUND_TOL)
        problems += _within(f"{label} P_D(0)", rows[0, pi], abs(1.0 - 2.0 * rho_ss0),
                            ROUND_TOL)
    summary = dict(tok.split("=") for tok in comments[0].lstrip("# ").split())
    w, weights = _ohmic_modes(params["lambda_g"], s)
    j_tilde = j_hop * math.exp(-0.5 * float(np.sum(weights)))
    rms = math.sqrt(float(np.mean((rows[:, 1] - rows[:, 2]) ** 2)))
    for key, want, rtol in (("j_tilde", j_tilde, 1e-8),
                            ("delta_e_b", float(np.min(w)), 1e-8),
                            ("adiabaticity_ratio", j_tilde / float(np.min(w)), 1e-8),
                            ("rms_coherence_diff", rms, 1e-6)):
        got = float(summary.get(key, "nan"))
        if not abs(got - want) <= rtol * abs(want) + 1e-12:
            problems.append(f"{key} = {got!r}, expected {want!r}")
    return problems


def check_oracle_bangbang(out_dir, params, expected):
    total_time, cycles = 4.0, (4, 8, 16, 32, 64)  # bangbang mode defaults
    problems = _echo_matches(out_dir, params)
    _, _, rows = read_csv(os.path.join(out_dir, "bangbang.csv"))
    if rows.shape != (len(cycles), 5):
        return problems + [f"bangbang.csv shape {rows.shape}"]
    if not np.all(np.isfinite(rows)):
        return problems + ["bangbang.csv: non-finite values"]
    want_cycles = sorted(cycles, reverse=True)
    if list(rows[:, 1]) != want_cycles:
        problems.append(f"n_cycles {list(rows[:, 1])} != {want_cycles}")
    problems += _within("delta_t", rows[:, 0],
                        [total_time / (2 * n) for n in want_cycles], ROUND_TOL)
    dist = rows[:, 2:4]
    if np.min(dist) < 0 or np.max(dist) > 1.0 + ROUND_TOL:
        problems.append("trace distance outside [0, 1]")
    if not rows[0, 2] < rows[0, 3]:
        problems.append("pulse train does not protect at the shortest spacing: "
                        f"{rows[0, 2]!r} >= free {rows[0, 3]!r}")
    slope = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 2]), 1)[0]
    if not abs(rows[0, 4] - slope) <= 1e-6 * abs(slope):
        problems.append(f"fitted_slope {rows[0, 4]!r} != refit {slope!r}")
    return problems


def expected_series(workload, params):
    """Special-function trajectories a run is checked against (per s value)."""
    t = _rate_grid()
    if workload == "fig2-sweep":
        return [special_route(s, params["lambda_g"], 1.0, params["state"], t)
                for s in params["s_values"]]
    if workload == "rk4-crosscheck":
        return [special_route(params["s"], params["lambda_g"], params["j_hop"],
                              params["state"], t)]
    return []


CHECKS = {
    "fig2-sweep": check_fig2_sweep,
    "rk4-crosscheck": check_rk4,
    "oracle-exact": check_oracle_exact,
    "oracle-bangbang": check_oracle_bangbang,
}


def check_outputs(workload, seed, out_dir, params, expected, outputs):
    """All problems with one run's outputs (empty list: correct)."""
    missing = [n for n in outputs if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        return [f"missing outputs: {missing}"]
    problems = CHECKS[workload](out_dir, params, expected)
    if seed == 0:
        problems += compare_reference(workload, out_dir)
    return problems

"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with -s to see them)."""

from contextlib import contextmanager

import numpy as np
from scipy.integrate import quad
from scipy.special import dawsn

import polaron_deco as pd
import polaron_deco.cli as cli
from polaron_deco import BathModel, PulseSchedule, TimeGrid
from polaron_deco.oracle import ohmic_mode_config
from conftest import ODE_CF_STATES, fig2_state


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_criterion_01_dawson_closed_form_identity():
    with criterion(1, "kernel zero matches Dawson closed form"):
        for lam in (0.1, 1.0, 5.0):
            for s in (0.1, 1.0, 10.0, 100.0):
                model = BathModel(lambda_g=lam, s=s)
                quad_route = pd.kernel_cos(0.0, model)
                dawson_route = model.kernel_zero()
                assert abs(quad_route - dawson_route) <= 1e-8, (lam, s)


def test_criterion_02_no_decoherence_limits(acceptance_trajectories):
    with criterion(2, "s=0 or lambda=0 freezes the state"):
        p0 = fig2_state().rho_tt - fig2_state().rho_ss
        for key in (("cf", "fig2", "s0"), ("cf", "fig2", "lam0")):
            traj = acceptance_trajectories[key]
            assert np.max(np.abs(traj.coherence - 1.0)) <= 1e-9
            assert np.max(np.abs(traj.pop_diff - abs(p0))) <= 1e-9


def test_criterion_03_ode_matches_closed_form(acceptance_trajectories):
    with criterion(3, "ODE vs closed form, 5 initial states"):
        for idx in range(len(ODE_CF_STATES)):
            a = acceptance_trajectories[("ode", idx, 1.0)]
            b = acceptance_trajectories[("cf", idx, 1.0)]
            err = max(np.max(np.abs(a.rho_ss - b.rho_ss)),
                      np.max(np.abs(a.rho_tt - b.rho_tt)),
                      np.max(np.abs(a.rho_st - b.rho_st)))
            assert err <= 1e-6, (idx, err)


def _gamma_nested(t, s, lam, sign):
    """Direct double quadrature, kernels recomputed at each t - tau."""
    j_tilde = np.exp(-lam * (0.5 - float(dawsn(s / 2.0)) / s))

    def kernel(u, trig):
        val, _ = quad(
            lambda w: w * np.exp(-w * w) * (1 - np.sinc(w * s / np.pi)) * trig(w * u),
            0.0, 10.0, limit=400, epsabs=1e-12, epsrel=1e-11)
        return 2.0 * lam * val

    def integrand(tau):
        u = t - tau
        return np.exp(sign * kernel(u, np.cos)) * np.cos(kernel(u, np.sin)) - 1.0

    outer, _ = quad(integrand, 0.0, t, limit=80, epsabs=1e-9, epsrel=1e-9)
    return 2.0 * j_tilde**2 * outer


def test_criterion_04_rates_match_nested_quadrature():
    with criterion(4, "change of variable vs nested double quadrature"):
        rng = np.random.default_rng(42)
        for trial in range(10):
            lam = float(rng.uniform(0.3, 2.0))
            s = float(rng.uniform(0.5, 20.0))
            dt = 0.005
            t = round(float(rng.uniform(1.0, 8.0)) / dt) * dt
            sign = 1.0 if trial % 2 == 0 else -1.0
            grid = TimeGrid(t_max=t, dt=dt)
            table = pd.build_rate_table(BathModel(lambda_g=lam, s=s), 1.0, grid)
            ours = table.gamma_plus[-1] if sign > 0 else table.gamma_minus[-1]
            direct = _gamma_nested(t, s, lam, sign)
            assert abs(ours - direct) <= 1e-6, (trial, lam, s, t, ours, direct)


def test_criterion_05_scattering_scale_controls_decoherence(acceptance_trajectories):
    with criterion(5, "coherence ordering and localization across s"):
        c_final = {s: acceptance_trajectories[("cf", "fig2", s)].coherence[-1]
                   for s in (1.0, 10.0, 100.0)}
        assert c_final[1.0] > c_final[10.0] > c_final[100.0]
        assert c_final[100.0] < 0.05
        traj100 = acceptance_trajectories[("cf", "fig2", 100.0)]
        assert traj100.pop_diff[-1] < 0.05
        assert abs(traj100.rho_ss[-1] - 0.5) <= 0.02
        assert abs(traj100.rho_tt[-1] - 0.5) <= 0.02


def test_criterion_06_dressed_hopping_behaviour():
    with criterion(6, "hopping ratio monotone, bounded, saturating"):
        lams = np.linspace(0.1, 5.0, 20)
        ss = np.geomspace(0.1, 100.0, 20)
        grid = np.array([[pd.effective_hopping_ratio(BathModel(lambda_g=l, s=s))
                          for s in ss] for l in lams])
        assert np.all((grid > 0.0) & (grid <= 1.0))
        assert np.all(np.diff(grid, axis=0) < 0.0)
        assert np.all(np.diff(grid, axis=1) < 0.0)
        for lam in (0.5, 1.0, 2.0):
            r = pd.effective_hopping_ratio(BathModel(lambda_g=lam, s=1e4))
            assert abs(r - np.exp(-lam / 2.0)) <= 1e-3


def test_criterion_07_state_legality(acceptance_trajectories):
    with criterion(7, "trace and positivity on every acceptance run"):
        assert len(acceptance_trajectories) >= 15
        for key, traj in acceptance_trajectories.items():
            assert traj.trace_error() <= 1e-9, key
            assert float(np.min(traj.min_eigenvalues())) >= -1e-8, key


def test_criterion_08_displacement_transform_verified():
    with criterion(8, "spectrum invariance and dressed hopping element"):
        cfg = pd.TruncatedBathConfig(mode_freqs=(1.0,), g_site1=(0.5,),
                                     g_site2=(0.0,), n_max=12, j_hop=1.0)
        report = pd.lang_firsov_check(cfg)
        assert report.spectrum_max_dev <= 1e-8
        assert abs(report.hop_measured - np.exp(-0.125)) <= 1e-4
        assert report.conclusive


def test_criterion_09_pulse_train_protection():
    with criterion(9, "pulses beat free decay and error scales ~ dt^2"):
        cfg = ohmic_mode_config()  # 2 modes, n_max=6 default
        schedules = [PulseSchedule(total_time=4.0, cycles=n)
                     for n in (4, 8, 16, 32, 64)]
        report = pd.run_bangbang(cfg, fig2_state(), schedules)
        for row in report.results:
            assert row.distance_pulsed < row.distance_free, row
        ordered = sorted(report.results, key=lambda r: r.n_cycles)
        for a, b in zip(ordered, ordered[1:]):
            assert b.distance_pulsed < a.distance_pulsed
        assert report.fitted_slope >= 1.7, report.fitted_slope


def test_criterion_10_exact_vs_master_equation():
    with criterion(10, "rate equation tracks the exact model in regime"):
        cfg = ohmic_mode_config(coupling=0.1, s=1.0, j_hop=0.1, n_max=5)
        comp = pd.compare_with_master_equation(
            cfg, fig2_state(), TimeGrid(t_max=10.0, dt=0.0125))
        assert comp.adiabaticity_ratio <= 0.1, comp.adiabaticity_ratio
        assert comp.rms_coherence_diff <= 0.1, comp.rms_coherence_diff


def test_criterion_11_deterministic_outputs(tmp_path):
    with criterion(11, "byte-identical CSVs across repeated runs"):
        payloads = []
        for label in ("a", "b"):
            out = tmp_path / label
            for mode, extra in (("sweep-s", {"t_max": "2", "dt": "0.01"}),
                                ("effective-hopping", {})):
                cfg = cli.parse_config(mode=mode, flags={
                    "out_dir": str(out / mode), **extra})
                cli.run_experiment(cfg)
            blobs = {}
            for sub in sorted((out).rglob("*.csv")):
                blobs[str(sub.relative_to(out))] = sub.read_bytes()
            payloads.append(blobs)
        assert payloads[0] == payloads[1]
        assert len(payloads[0]) >= 4

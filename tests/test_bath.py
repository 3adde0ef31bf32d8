import tracemalloc

import numpy as np
import pytest
from kernel_reference import direct_kernel_sums
from scipy.integrate import quad
from scipy.special import dawsn

import polaron_deco as pd
from polaron_deco import BathModel, ConfigError, QuadratureSpec, TimeGrid, bath
from polaron_deco.bath import sinc


def kernel_quadrature(tau, s, lam=1.0, trig=np.cos):
    """Independent route: scipy quadrature of the defining integral."""
    val, _ = quad(
        lambda w: w * np.exp(-w * w) * (1 - np.sinc(w * s / np.pi)) * trig(w * tau),
        0.0, 10.0, limit=2000, epsabs=1e-14, epsrel=1e-13)
    return 2.0 * lam * val


def kernel_cos_special(tau, s, lam=1.0):
    """Independent route: the full special-function form,
    lam * (1 - tau F[tau] - (F[s+tau] + F[s-tau]) / s) with F[z] = dawsn(z/2)."""
    F = lambda z: float(dawsn(z / 2.0))
    return lam * (1.0 - tau * F(tau) - (F(s + tau) + F(s - tau)) / s)


def kernel_sin_special(tau, s, lam=1.0):
    rt = np.sqrt(np.pi) / 2.0
    return lam * rt * (tau * np.exp(-tau**2 / 4)
                       - (np.exp(-(s - tau)**2 / 4) - np.exp(-(s + tau)**2 / 4)) / s)


# golden value for K_s(1) at lam = s = 1, frozen from two independent
# evaluations (scipy quadrature and the special-function form)
GOLDEN_KS_1_1 = 0.12999196415545955


class TestSinc:
    def test_at_zero(self):
        assert sinc(0.0) == 1.0

    def test_series_region_matches_ratio(self):
        x = np.array([1e-5, 5e-5, 9e-5])
        assert np.allclose(sinc(x), np.sin(x) / x, atol=1e-16)

    def test_plain_region(self):
        assert sinc(2.0) == pytest.approx(np.sin(2.0) / 2.0, rel=1e-15)


class TestBathModel:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BathModel(lambda_g=-1.0)
        with pytest.raises(ConfigError):
            BathModel(s=-0.5)

    @pytest.mark.parametrize("field,value", [
        ("lambda_g", np.nan), ("lambda_g", np.inf), ("s", np.nan), ("s", np.inf)])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            BathModel(**{field: value})

    def test_kernel_zero_special_cases(self):
        assert BathModel(lambda_g=0.0).kernel_zero() == 0.0
        assert BathModel(s=0.0).kernel_zero() == 0.0


class TestKernels:
    def test_decoupled_limits_exact(self):
        model_s0 = BathModel(lambda_g=1.0, s=0.0)
        model_l0 = BathModel(lambda_g=0.0, s=1.0)
        for tau in (0.0, 1.0, 7.3):
            assert pd.kernel_cos(tau, model_s0) == 0.0
            assert pd.kernel_cos(tau, model_l0) == 0.0
            assert pd.kernel_sin(tau, model_s0) == 0.0

    def test_sin_kernel_zero_at_origin(self):
        assert pd.kernel_sin(0.0, BathModel(lambda_g=1.0, s=1.0)) == 0.0

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigError):
            pd.kernel_cos(-0.1, BathModel())

    @pytest.mark.parametrize("lam,s", [(0.1, 1.0), (1.0, 1.0), (5.0, 1.0),
                                       (1.0, 0.1), (1.0, 10.0), (1.0, 100.0)])
    def test_cos_zero_matches_dawson_closed_form(self, lam, s):
        model = BathModel(lambda_g=lam, s=s)
        assert abs(pd.kernel_cos(0.0, model) - model.kernel_zero()) <= 1e-8

    @pytest.mark.parametrize("tau,s", [(0.5, 1.0), (1.0, 1.0), (5.0, 10.0),
                                       (2.0, 0.1), (20.0, 10.0)])
    def test_cos_matches_independent_routes(self, tau, s):
        model = BathModel(lambda_g=1.0, s=s)
        ours = pd.kernel_cos(tau, model)
        assert ours == pytest.approx(kernel_quadrature(tau, s), abs=1e-11)
        assert ours == pytest.approx(kernel_cos_special(tau, s), abs=1e-11)

    def test_sin_golden_value(self):
        model = BathModel(lambda_g=1.0, s=1.0)
        ours = pd.kernel_sin(1.0, model)
        assert ours == pytest.approx(GOLDEN_KS_1_1, abs=1e-11)
        assert ours == pytest.approx(kernel_quadrature(1.0, 1.0, trig=np.sin), abs=1e-11)
        assert ours == pytest.approx(kernel_sin_special(1.0, 1.0), abs=1e-11)

    def test_riemann_lebesgue_decay(self):
        model = BathModel(lambda_g=1.0, s=1.0)
        k0 = pd.kernel_cos(0.0, model)
        assert abs(pd.kernel_cos(50.0, model)) < 1e-6 * max(1.0, abs(k0))
        assert abs(pd.kernel_sin(50.0, model)) < 1e-6

    def test_cutoff_scaling(self):
        # the raw defining integral at a cutoff W = 2 is the library (W = 1)
        # kernel at (lambda W^2, W s, W tau): the rescaling the removed
        # omega_c key's error message and the README prescribe
        cutoff, lam, s, tau = 2.0, 0.8, 1.3, 0.7
        raw, _ = quad(
            lambda w: w * np.exp(-(w / cutoff) ** 2)
            * (1 - np.sinc(w * s / np.pi)) * np.cos(w * tau),
            0.0, 10.0 * cutoff, limit=2000, epsabs=1e-13, epsrel=1e-12)
        model = BathModel(lambda_g=lam * cutoff**2, s=cutoff * s)
        assert pd.kernel_cos(cutoff * tau, model) == pytest.approx(
            2.0 * lam * raw, abs=1e-10)


class TestEffectiveHopping:
    def test_limits(self):
        assert pd.effective_hopping_ratio(BathModel(lambda_g=0.0, s=3.0)) == 1.0
        assert pd.effective_hopping_ratio(BathModel(lambda_g=1.0, s=0.0)) == 1.0
        assert pd.effective_hopping_ratio(BathModel(lambda_g=1.0, s=1e-12)) \
            == pytest.approx(1.0, abs=1e-12)

    def test_value_at_s10(self):
        got = pd.effective_hopping_ratio(BathModel(lambda_g=1.0, s=10.0))
        expected = np.exp(-(0.5 - float(dawsn(5.0)) / 10.0))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.6127571471676964, rel=1e-12)

    def test_in_unit_interval(self):
        for lam in (0.1, 1.0, 5.0):
            for s in (0.01, 1.0, 50.0):
                r = pd.effective_hopping_ratio(BathModel(lambda_g=lam, s=s))
                assert 0.0 < r <= 1.0

    def test_monotone_in_coupling_and_scale(self):
        lams = np.linspace(0.1, 5.0, 20)
        ss = np.geomspace(0.1, 100.0, 20)
        grid = np.array([[pd.effective_hopping_ratio(BathModel(lambda_g=l, s=s))
                          for s in ss] for l in lams])
        assert np.all(np.diff(grid, axis=0) < 0.0)  # decreasing in coupling
        assert np.all(np.diff(grid, axis=1) < 0.0)  # decreasing in scale

    def test_large_scale_saturation(self):
        for lam in (0.5, 1.0, 2.0):
            r = pd.effective_hopping_ratio(BathModel(lambda_g=lam, s=1e4))
            assert abs(r - np.exp(-lam / 2.0)) < 1e-3

    def test_cutoff_scaling(self):
        # exp(-K_c(0)/2) at a cutoff W = 2, from the raw integral and from
        # its Dawson form, is the library ratio at (lambda W^2, W s)
        cutoff, lam, s = 2.0, 1.0, 3.0
        raw, _ = quad(
            lambda w: w * np.exp(-(w / cutoff) ** 2) * (1 - np.sinc(w * s / np.pi)),
            0.0, 10.0 * cutoff, limit=2000, epsabs=1e-13, epsrel=1e-12)
        zs = cutoff * s
        dawson_form = cutoff**2 * (0.5 - float(dawsn(zs / 2)) / zs)
        assert raw == pytest.approx(dawson_form, rel=1e-10)
        got = pd.effective_hopping_ratio(BathModel(lambda_g=lam * cutoff**2, s=zs))
        assert got == pytest.approx(np.exp(-lam * dawson_form), rel=1e-12)
        assert got == pytest.approx(np.exp(-lam * raw), rel=1e-10)

    def test_consistent_with_kernel(self):
        model = BathModel(lambda_g=1.3, s=2.0)
        ratio = pd.effective_hopping_ratio(model)
        assert ratio == pytest.approx(np.exp(-0.5 * pd.kernel_cos(0.0, model)),
                                      rel=1e-10)


class TestKernelTable:
    def test_decoupled_all_zero(self):
        grid = TimeGrid(t_max=5.0, dt=0.1)
        table = pd.build_kernel_table(BathModel(lambda_g=1.0, s=0.0), grid)
        assert np.all(table.k_cos == 0.0)
        assert np.all(table.k_sin == 0.0)

    def test_first_entry_is_pointwise_value(self):
        grid = TimeGrid(t_max=5.0, dt=0.1)
        model = BathModel(lambda_g=1.0, s=1.0)
        table = pd.build_kernel_table(model, grid)
        assert table.k_cos[0] == pytest.approx(pd.kernel_cos(0.0, model), abs=1e-12)
        assert table.k_sin[0] == 0.0

    def test_matches_pointwise_sample(self):
        grid = TimeGrid(t_max=20.0, dt=0.05)
        model = BathModel(lambda_g=1.0, s=1.0)
        table = pd.build_kernel_table(model, grid)
        for k in (0, 7, 40, 201, 400):
            tau = grid.points[k]
            assert abs(table.k_cos[k] - pd.kernel_cos(tau, model)) <= 1e-10
            assert abs(table.k_sin[k] - pd.kernel_sin(tau, model)) <= 1e-10

    @pytest.mark.parametrize("s", [1.0, 10.0, 100.0])
    def test_matches_special_function_route(self, s):
        grid = TimeGrid(t_max=50.0, dt=0.05)
        table = pd.build_kernel_table(BathModel(lambda_g=1.0, s=s), grid)
        ref_c = np.array([kernel_cos_special(t, s) for t in grid.points])
        ref_s = np.array([kernel_sin_special(t, s) for t in grid.points])
        assert np.max(np.abs(table.k_cos - ref_c)) < 1e-9
        assert np.max(np.abs(table.k_sin - ref_s)) < 1e-9

    def test_refinement_keeps_shared_points(self):
        model = BathModel(lambda_g=1.0, s=1.0)
        coarse = pd.build_kernel_table(model, TimeGrid(t_max=5.0, dt=0.1))
        fine = pd.build_kernel_table(model, TimeGrid(t_max=5.0, dt=0.05))
        assert np.max(np.abs(coarse.k_cos - fine.k_cos[::2])) < 1e-12
        assert np.max(np.abs(coarse.k_sin - fine.k_sin[::2])) < 1e-12

    @pytest.mark.parametrize("s", [1.0, 10.0])
    def test_long_time_decay(self, s):
        grid = TimeGrid(t_max=50.0, dt=0.5)
        table = pd.build_kernel_table(BathModel(lambda_g=1.0, s=s), grid)
        assert abs(table.k_cos[-1]) < 1e-3 * abs(table.k_cos[0])

    def test_mode_sum_table(self):
        grid = TimeGrid(t_max=2.0, dt=0.5)
        freqs = np.array([1.0, 3.0])
        weights = np.array([0.4, 0.1])
        table = pd.kernel_table_from_modes(freqs, weights, grid)
        t = grid.points[2]
        assert table.k_cos[2] == pytest.approx(
            0.4 * np.cos(1.0 * t) + 0.1 * np.cos(3.0 * t), rel=1e-14)
        assert table.k_sin[0] == 0.0
        assert table.k_cos[0] == pytest.approx(0.5, rel=1e-14)

    def test_tight_spec_failure_names_tau(self):
        # an unsatisfiable tolerance must fail loudly and name the worst tau
        grid = TimeGrid(t_max=50.0, dt=10.0)
        spec = QuadratureSpec(rel_tol=1e-300, abs_tol=0.0, max_subdivisions=8000)
        with pytest.raises(pd.QuadratureError, match="tau"):
            pd.build_kernel_table(BathModel(lambda_g=1.0, s=1.0), grid, spec)

    def test_sine_estimate_alone_fails(self, monkeypatch):
        # the sine kernel's error estimate is checked on its own: with the
        # cosine estimate zeroed, a tolerance below the sine one must fail
        # and name K_s at the sine estimate's worst tau
        grid = TimeGrid(t_max=50.0, dt=10.0)
        model = BathModel(lambda_g=1.0, s=1.0)
        k_cos, k_sin, err_c, err_s = bath._kernel_sums(model, grid)
        monkeypatch.setattr(bath, "_kernel_sums", lambda m, g: (
            k_cos, k_sin, np.zeros_like(err_c), err_s))
        worst = int(np.argmax(err_s))
        spec = QuadratureSpec(rel_tol=0.5 * err_s[worst], abs_tol=0.0)
        tau = f"tau={grid.points[worst]:.6g}:"
        with pytest.raises(pd.QuadratureError, match=f"K_s .*{tau}"):
            pd.build_kernel_table(model, grid, spec)
        # the same tolerance passes when the sine estimate is within it
        monkeypatch.setattr(bath, "_kernel_sums", lambda m, g: (
            k_cos, k_sin, np.zeros_like(err_c), 0.25 * err_s))
        pd.build_kernel_table(model, grid, spec)

    def test_memory_is_bounded(self):
        # the direct (n x nodes) phase block peaks at ~378 MB here; the
        # angle-addition route keeps O((chunk + sqrt(n)) x nodes)
        grid = TimeGrid(t_max=400.0, dt=0.05)
        tracemalloc.start()
        try:
            pd.build_kernel_table(BathModel(lambda_g=1.0, s=1.0), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96e6


# grids of n = 49 (a perfect square), 50 (= 7^2 + 1), 3 and 2 points; the
# block size is ceil(sqrt(n)), so n = 2 and 3 are single short blocks
SMALL_GRIDS = [(4.8, 0.1), (4.9, 0.1), (0.2, 0.1), (1.0, 1.0)]


def scaled_case(s, t_max, dt, cutoff):
    """The model and grid of (s, t_max, dt) at a Gaussian cutoff W, in units
    of W: s W on (t_max W, dt W), with the same points and oscillations."""
    grid = TimeGrid(t_max=t_max * cutoff, dt=dt * cutoff)
    assert len(grid) == len(TimeGrid(t_max=t_max, dt=dt))
    return BathModel(lambda_g=1.0, s=s * cutoff), grid


class TestKernelTableAngleAddition:
    """bath._kernel_sums against the direct cos/sin phase block."""

    @staticmethod
    def assert_matches_direct(model, grid):
        new = bath._kernel_sums(model, grid)
        ref = direct_kernel_sums(model, grid)
        # the two routes sum the nodes in different orders; 1e-14 relative
        # to the kernel's own scale K_c(0)
        tol = 1e-14 * max(1.0, ref[0][0])
        for name, a, b in zip(("k_cos", "k_sin", "err_cos", "err_sin"), new, ref):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= tol, name

    @pytest.mark.parametrize("t_max, dt", SMALL_GRIDS)
    @pytest.mark.parametrize("cutoff", [0.3, 3.1])
    @pytest.mark.parametrize("s", [0.01, 1.0, 10.0, 100.0])
    def test_small_grids(self, s, cutoff, t_max, dt):
        self.assert_matches_direct(*scaled_case(s, t_max, dt, cutoff))

    @pytest.mark.parametrize("t_max, dt", SMALL_GRIDS)
    def test_capped_block_and_chunks(self, monkeypatch, t_max, dt):
        # blocks of at most 3 points, taken 2 starts per GEMM: many chunks
        # and block starts beyond sqrt(n), as on grids longer than 256^2
        monkeypatch.setattr(bath, "_MAX_BLOCK", 3)
        monkeypatch.setattr(bath, "_START_CHUNK", 2)
        self.assert_matches_direct(*scaled_case(10.0, t_max, dt, 3.1))

    @pytest.mark.parametrize("s, cutoff", [
        (0.01, 0.3), (1.0, 0.3), (10.0, 0.3), (100.0, 0.3), (1.0, 1.0)])
    def test_default_grid(self, default_grid, s, cutoff):
        # 10001 points: blocks of 101, several chunks of block starts and a
        # two-point last block
        self.assert_matches_direct(
            *scaled_case(s, default_grid.t_max, default_grid.dt, cutoff))

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn

import polaron_deco as pd
from polaron_deco import BathModel, ConfigError, TimeGrid, bath, numerics
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

    @pytest.mark.parametrize("tau", [0.0, 50.0, 2000.0])
    @pytest.mark.parametrize("s", [0.01, 1.0, 100.0, 1000.0])
    def test_reference_rule_matches_special_functions(self, s, tau):
        # the fixed Gauss-Legendre rule sized to tau + s, from the oscillation
        # up to the longest lag and the shortest scale
        model = BathModel(lambda_g=1.0, s=s)
        assert abs(pd.kernel_cos(tau, model) - kernel_cos_special(tau, s)) <= 1e-12
        assert abs(pd.kernel_sin(tau, model) - kernel_sin_special(tau, s)) <= 1e-12

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

    def test_kernel_zero_along_an_axis(self):
        # one call per axis (the effective-hopping verb) gives the bits of
        # the scalar formula, with s = 0 and lambda_g = 0 exactly 0 and no
        # 0/0 warning
        lam = np.linspace(0.0, 2.0, 81)
        s = np.concatenate([[0.0, 1e-12], np.logspace(-1.0, 2.0, 61)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = bath.kernel_zero(lam[:, None], s)
            by_lam = [bath.kernel_zero(lam, v) for v in s]
            by_s = [bath.kernel_zero(v, s) for v in lam]
        scalar = np.array([[2.0 * float(l) * (0.5 - pd.dawson_sine(float(v)) / float(v))
                            if l and v else 0.0 for v in s] for l in lam])
        assert np.array_equal(table, scalar)
        assert np.array_equal(np.transpose(by_lam), scalar)
        assert np.array_equal(by_s, scalar)
        assert np.all(np.exp(-0.5 * table[0]) == 1.0)
        assert np.all(np.exp(-0.5 * table[:, 0]) == 1.0)
        assert isinstance(bath.kernel_zero(1.0, 10.0), float)

    @pytest.mark.parametrize("s, ratio", [(1.0, 0.9272207421212346),
                                          (10.0, 0.6127571471676962),
                                          (100.0, 0.6065913279504719)])
    def test_pinned_bits(self, s, ratio):
        # j_tilde enters every rate; these are the exact doubles the CLI's
        # default s values and the bench's seed-0 trajectories rest on
        assert pd.effective_hopping_ratio(BathModel(lambda_g=1.0, s=s)) == ratio

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

    @pytest.mark.parametrize("s", [1e-3, 0.01, 0.1, 1.0, 10.0, 100.0, 1e3])
    def test_matches_pointwise_route(self, s):
        # the closed forms (and below s = 0.25 their series) against the
        # composite Kronrod quadrature of the mode sum, tau by tau, on both
        # sides of the series' switch at tau * s = 2
        grid = TimeGrid(t_max=50.0, dt=0.05)
        model = BathModel(lambda_g=1.0, s=s)
        table = pd.build_kernel_table(model, grid)
        for k in list(range(0, 1001, 37)) + [1000]:
            tau = grid.points[k]
            assert abs(table.k_cos[k] - pd.kernel_cos(tau, model)) <= 1e-14, tau
            assert abs(table.k_sin[k] - pd.kernel_sin(tau, model)) <= 1e-14, tau

    def test_continuous_at_small_s_edge(self):
        # just below _SMALL_S the series run where tau * s < 2, at _SMALL_S
        # the closed forms run everywhere; the two tables agree, and so do
        # both forms at one s just below the switch
        grid = TimeGrid(t_max=50.0, dt=0.05)
        edge = bath._SMALL_S
        below = pd.build_kernel_table(BathModel(s=np.nextafter(edge, 0.0)), grid)
        above = pd.build_kernel_table(BathModel(s=edge), grid)
        assert np.max(np.abs(below.k_cos - above.k_cos)) <= 1e-14
        assert np.max(np.abs(below.k_sin - above.k_sin)) <= 1e-14
        x = 0.5 * grid.points[grid.points * 0.2 < 2.0]
        for direct, series in zip(bath._closed_forms(x, 0.2), bath._small_s_series(x, 0.2)):
            assert np.max(np.abs(direct - series)) <= 2e-15

    def test_series_holds_where_direct_form_cancels(self):
        # at s = 1e-6 the 1/s brackets of the closed forms lose ten digits;
        # the series keeps the s^2 scale: K_c(0) = 2 lambda_g (s/2)^2 / 3 to
        # leading order, and the table is s^2 times its s -> 0 shape
        grid = TimeGrid(t_max=10.0, dt=0.5)
        a = pd.build_kernel_table(BathModel(s=1e-6), grid)
        b = pd.build_kernel_table(BathModel(s=2e-6), grid)
        assert a.k_cos[0] == pytest.approx(2.0 * (0.5e-6) ** 2 / 3.0, rel=1e-10)
        assert np.allclose(b.k_cos, 4.0 * a.k_cos, rtol=1e-10, atol=0.0)
        assert np.allclose(b.k_sin, 4.0 * a.k_sin, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("s", [1e-300, 1e300, np.finfo(float).max])
    def test_extreme_s_finite_without_warning(self, s):
        # no argument of the closed forms or the series overflows or
        # divides by zero, even at grid ends near the largest float
        for grid in (TimeGrid(t_max=1e308, dt=1e308), TimeGrid(t_max=50.0, dt=0.5)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = pd.build_kernel_table(BathModel(lambda_g=1.0, s=s), grid)
            assert np.all(np.isfinite(table.k_cos)) and np.all(np.isfinite(table.k_sin))
            assert abs(table.k_cos[0] - bath.kernel_zero(1.0, s)) <= 1e-15
        if s >= 1e300:
            # the 1/s brackets vanish: K_c(tau) = 2 (1/2 - (tau/2) D(tau/2))
            x = 0.5 * grid.points
            assert np.max(np.abs(table.k_cos - (1.0 - 2.0 * x * pd.dawson(x)))) <= 1e-15

    def test_memory_is_bounded(self):
        # 1e6 + 1 points: the table holds its two 8 MB columns and a few
        # more per-point arrays (9 floats a point in all), never the
        # (points x terms) Dawson comb (224 MB here) or a (points x nodes)
        # phase block
        grid = TimeGrid(t_max=1e4, dt=0.01)
        assert len(grid) > 10**6
        tracemalloc.start()
        try:
            pd.build_kernel_table(BathModel(lambda_g=1.0, s=1.0), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * len(grid)


# grids of n = 49, 50, 3 and 2 points
SMALL_GRIDS = [(4.8, 0.1), (4.9, 0.1), (0.2, 0.1), (1.0, 1.0)]


def scaled_case(s, t_max, dt, cutoff):
    """The model and grid of (s, t_max, dt) at a Gaussian cutoff W, in units
    of W: s W on (t_max W, dt W), with the same points and oscillations."""
    grid = TimeGrid(t_max=t_max * cutoff, dt=dt * cutoff)
    assert len(grid) == len(TimeGrid(t_max=t_max, dt=dt))
    return BathModel(lambda_g=1.0, s=s * cutoff), grid


def gk15_table(model, grid):
    """(K_c, K_s) on grid by the composite Kronrod rule sized to t_max + s,
    summed directly over the (points x nodes) cos and sin phase block, 1024
    points at a time."""
    nodes, weights = numerics.composite_gk15_nodes(numerics.OMEGA_TRUNCATION,
                                                   grid.t_max + model.s)
    gw = (2.0 * model.lambda_g * nodes * np.exp(-nodes * nodes)
          * (1.0 - sinc(nodes * model.s)) * weights)
    out = np.empty((2, len(grid)))
    for i in range(0, len(grid), 1024):
        phase = np.outer(grid.points[i:i + 1024], nodes)
        out[0, i:i + 1024] = np.cos(phase) @ gw
        out[1, i:i + 1024] = np.sin(phase) @ gw
    return out


class TestKernelTableAngleAddition:
    """The closed-form table against the quadrature table it replaced: the
    composite Kronrod sums over the whole (points x nodes) phase block (the
    reference its angle-addition evaluation was held to), on small grids,
    in blocks of a few Dawson points, and on the default grid."""

    @staticmethod
    def assert_matches_direct(model, grid):
        table = pd.build_kernel_table(model, grid)
        ref = gk15_table(model, grid)
        # 1e-14 relative to the kernel's own scale K_c(0)
        tol = 1e-14 * max(1.0, ref[0][0])
        for name, a, b in zip(("k_cos", "k_sin"), (table.k_cos, table.k_sin), ref):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= tol, name
        return table

    @pytest.mark.parametrize("t_max, dt", SMALL_GRIDS)
    @pytest.mark.parametrize("cutoff", [0.3, 3.1])
    @pytest.mark.parametrize("s", [0.01, 1.0, 10.0, 100.0])
    def test_small_grids(self, s, cutoff, t_max, dt):
        self.assert_matches_direct(*scaled_case(s, t_max, dt, cutoff))

    @pytest.mark.parametrize("t_max, dt", SMALL_GRIDS)
    def test_capped_block_and_chunks(self, monkeypatch, t_max, dt):
        # Dawson blocks of at most 3 points give the bits of one block
        model, grid = scaled_case(10.0, t_max, dt, 3.1)
        whole = pd.build_kernel_table(model, grid)
        monkeypatch.setattr(numerics, "_BLOCK", 3)
        blocked = self.assert_matches_direct(model, grid)
        assert np.array_equal(blocked.k_cos, whole.k_cos)
        assert np.array_equal(blocked.k_sin, whole.k_sin)

    @pytest.mark.parametrize("s, cutoff", [
        (0.01, 0.3), (1.0, 0.3), (10.0, 0.3), (100.0, 0.3), (1.0, 1.0)])
    def test_default_grid(self, default_grid, s, cutoff):
        # 10001 points: three Dawson blocks; at s = 0.003 the series run
        # up to tau = 667, past the grid end
        self.assert_matches_direct(
            *scaled_case(s, default_grid.t_max, default_grid.dt, cutoff))

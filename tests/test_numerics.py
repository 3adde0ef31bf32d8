import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn

from polaron_deco import (
    ConfigError,
    TimeGrid,
    cumulative_trapezoid,
    dawson,
    dawson_sine,
    integrate_semiinf,
    numerics,
)
from rk4_reference import ode_step_rk4


def long_comb_dawson(x, reach=59):
    """Rybicki's comb for x > 0.5, summed over a (points x terms) tile with
    a running sum along each row, over the odd offsets -reach ... reach
    from the even node n0 nearest x/h. reach 59 gives 30 terms on each side
    instead of dawson's 14, so its first term left out is below e^{-225}
    rather than e^{-49}; reach 27 is dawson's own comb in this layout."""
    h = numerics._COMB_H
    offsets = np.arange(-float(reach), reach + 1.0, 2.0)
    v = np.asarray(x, dtype=float)[:, None]
    n0 = 2.0 * np.round(v / (2.0 * h))
    comb = np.exp(-((v - n0 * h - offsets * h) ** 2)) / (n0 + offsets)
    return comb.cumsum(axis=1)[:, -1] / np.sqrt(np.pi)


def tiled_series_dawson(x):
    """The Maclaurin series for |x| <= 0.5 over a (points x 15) tile: the
    terms as running products along each row, then their running sum."""
    v = np.asarray(x, dtype=float)[:, None]
    steps = np.concatenate([v, -2.0 * v * v / numerics._SERIES_DIVISORS], axis=1)
    return np.cumprod(steps, axis=1).cumsum(axis=1)[:, -1]


def tiled_dawson(x):
    """dawson with each branch summed over (points x terms) tiles, as one
    array of any shape: the series, the 14-a-side comb, and 1/(2x) past
    1e9. Its terms and their order are dawson's, so its bits must be too."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x).ravel()
    out = np.empty_like(ax)
    series = ax <= numerics._SERIES_EDGE
    far = ax > numerics._ASYMPTOTIC_EDGE
    comb = ~(series | far)
    out[series] = tiled_series_dawson(ax[series])
    out[comb] = long_comb_dawson(ax[comb], reach=27)
    out[far] = 0.5 / ax[far]
    return np.copysign(out.reshape(x.shape), x)


def sine_transform_quadrature(z):
    """Independent oracle: direct quadrature of int_0^inf e^{-t^2} sin(zt) dt."""
    val, _ = quad(lambda t: np.exp(-t * t) * np.sin(z * t), 0.0, 60.0,
                  limit=800, epsabs=1e-14, epsrel=1e-13)
    return val


class TestDawson:
    def test_zero(self):
        assert dawson_sine(0.0) == 0.0

    def test_small_argument(self):
        # Maclaurin value z/2 - z^3/12 + ..., cross-checked by quadrature
        assert dawson_sine(0.1) == pytest.approx(0.0499167499405, abs=1e-10)
        assert dawson_sine(0.1) == pytest.approx(sine_transform_quadrature(0.1), abs=1e-12)

    def test_large_argument(self):
        assert dawson_sine(10.0) == pytest.approx(0.102134074424, abs=1e-10)
        assert dawson_sine(10.0) == pytest.approx(sine_transform_quadrature(10.0), abs=1e-11)

    @pytest.mark.parametrize("z", np.arange(0.0, 50.5, 0.5).tolist())
    def test_matches_defining_integral(self, z):
        ref = sine_transform_quadrature(z)
        assert abs(dawson_sine(z) - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_half_argument_identity(self):
        # F[z] = D(z/2) against an implementation-independent Dawson function
        for z in np.linspace(0.01, 40.0, 157):
            assert dawson_sine(z) == pytest.approx(float(dawsn(z / 2)), rel=1e-12, abs=1e-15)

    def test_odd(self):
        for z in (0.3, 1.7, 12.0):
            assert dawson_sine(-z) == -dawson_sine(z)
        x = np.linspace(0.0, 200.0, 4001)
        assert np.array_equal(dawson(-x), -dawson(x))

    def test_shape_and_scalar_type(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        out = dawson(x)
        assert isinstance(out, np.ndarray) and out.shape == (3, 4)
        # each entry as computed alone, on both sides of the |x| = 0.5 switch
        assert np.array_equal(out.ravel(), [dawson(v) for v in x.ravel()])
        for v in (0.2, 2.0, np.float64(0.2)):
            assert type(dawson(v)) is float
            assert type(dawson_sine(v)) is float
        assert dawson(np.zeros(0)).shape == (0,)

    def test_asymptotic_tail(self):
        z = 100.0
        assert abs(z * dawson_sine(z) - 1.0) < 0.01

    def test_continuous_at_switch(self, monkeypatch):
        # the Maclaurin form ends at |x| = 0.5, the comb starts just above
        edge = numerics._SERIES_EDGE
        below, above = dawson(np.array([edge, np.nextafter(edge, 1.0)]))
        assert abs(above - below) <= 1e-15 * below
        # and the two forms agree on the series side of the switch
        x = np.linspace(0.3, edge, 41)
        series = dawson(x)
        monkeypatch.setattr(numerics, "_SERIES_EDGE", 0.0)
        comb = dawson(x)
        assert np.max(np.abs(comb - series) / series) <= 1e-14

    def test_scipy_reference_broad(self):
        xs = np.linspace(-200.0, 200.0, 400001)
        ours = dawson(xs)
        ref = dawsn(xs)
        nonzero = ref != 0.0
        assert np.all(ours[~nonzero] == 0.0)
        rel = np.abs(ours[nonzero] - ref[nonzero]) / np.abs(ref[nonzero])
        assert np.max(rel) <= 6e-15

    def test_short_comb_matches_long_comb(self):
        # 14 terms a side give the bits of 30: a dense grid past the series
        # edge, and every Dawson argument of default-grid kernel tables
        tau = np.linspace(0.0, 50.0, 10001)
        xs = [np.linspace(0.51, 50.0, 100001), np.linspace(50.0, 300.0, 50001)]
        for s in (1.0, 10.0, 100.0):
            xs += [0.5 * tau, np.abs(0.5 * s - 0.5 * tau), 0.5 * s + 0.5 * tau]
        x = np.concatenate(xs)
        x = x[x > numerics._SERIES_EDGE]
        assert np.array_equal(dawson(x), long_comb_dawson(x))
        assert np.array_equal(dawson(-x), -long_comb_dawson(x))

    @pytest.mark.parametrize("name", ["fig2", "series-edge", "random", "geometric"])
    def test_term_loops_give_the_bits_of_the_tiles(self, name):
        # the term-by-term loops over 1-D blocks add the same terms in the
        # same order as running sums along (points x terms) tiles
        rng = np.random.default_rng(39)
        if name == "fig2":
            # every Dawson argument of the default-grid fig2 kernel tables
            x = 0.5 * np.linspace(0.0, 50.0, 10001)
            x = np.concatenate([x] + [np.concatenate([x + 0.5 * s, 0.5 * s - x])
                                      for s in (1.0, 10.0, 100.0)])
        elif name == "series-edge":
            x = np.linspace(-0.6, 0.6, 240001)
        elif name == "random":
            x = np.concatenate([rng.uniform(-60.0, 60.0, 100000),
                                rng.uniform(-0.6, 0.6, 100000)])
        else:
            x = np.geomspace(1e-300, 1e300, 60001) * rng.choice([-1.0, 1.0], 60001)
        assert np.array_equal(dawson(x).view(np.int64), tiled_dawson(x).view(np.int64))

    def test_empty_and_one_point(self):
        assert dawson(np.zeros((0, 3))).shape == (0, 3)
        for v in (0.0, -0.0, 0.3, -0.5, 0.50000001, 7.25, -33.1, 2e9):
            one = np.array([v])
            assert np.array_equal(dawson(one).view(np.int64), tiled_dawson(one).view(np.int64))
            assert dawson(v) == tiled_dawson(one)[0]

    def test_memory_is_bounded(self):
        # 10^6 points: the output and O(_BLOCK) floats of per-block
        # temporaries, never a point-sized temporary (an unblocked
        # evaluation peaks near 7 times the output)
        x = np.concatenate([np.linspace(-60.0, 60.0, 500000),
                            np.linspace(-0.6, 0.6, 400000),
                            np.geomspace(1e-3, 1e12, 100000)])
        bound = x.nbytes + 16 * 8 * numerics._BLOCK
        assert bound < 1.5 * x.nbytes
        tracemalloc.start()
        try:
            dawson(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_blocks_give_the_bits_of_one(self, monkeypatch):
        # points go through in blocks of _BLOCK; any split gives the same
        # bits, across the series edge and the asymptotic switch: blocks
        # of 4099 (several per call), of 5, and single points
        x = np.concatenate([np.linspace(-60.0, 60.0, 3 * 4099 + 7),
                            np.geomspace(1e8, 1e10, 101)]).reshape(-1, 3)
        whole = dawson(x)
        for block in (4099, 5):
            monkeypatch.setattr(numerics, "_BLOCK", block)
            assert np.array_equal(dawson(x), whole)
        assert np.array_equal(whole.ravel(), [dawson(v) for v in x.ravel()])

    def test_asymptotic_form(self):
        # past 1e9, 1/(2x): continuous with the comb at the switch, and no
        # overflow up to the largest float, where the comb's node would
        edge = numerics._ASYMPTOTIC_EDGE
        comb, far = dawson(np.array([edge, np.nextafter(edge, np.inf)]))
        assert abs(far - comb) <= 4e-16 * comb
        big = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dawson(big) == 0.5 / big
            assert dawson(-big) == -0.5 / big

    def test_large_arguments(self):
        # far beyond 2^53 h the comb's node index n0 + m is no longer exact;
        # the distances x - n h must still be
        xs = np.geomspace(200.0, 1e300, 2001)
        rel = np.abs(dawson(xs) - dawsn(xs)) / dawsn(xs)
        assert np.max(rel) <= 6e-15
        assert dawson(-1e300) == -dawson(1e300)


class TestIntegrateSemiinf:
    def test_gaussian_moment(self):
        # int_0^inf w e^{-w^2} dw = 1/2
        val = integrate_semiinf(lambda w: w * np.exp(-w * w), 0.0)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_forward_scattering_factor(self):
        # with the s=2 factor the closed form is 1/2 - F[2]/2
        s = 2.0
        val = integrate_semiinf(
            lambda w: w * np.exp(-w * w) * (1 - np.sinc(w * s / np.pi)), s)
        expected = 0.5 - float(dawsn(1.0)) / 2.0
        assert val == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.2309602465436158, abs=1e-14)

    def test_zero_integrand(self):
        assert integrate_semiinf(lambda w: np.zeros_like(w), 0.0) == 0.0

    def test_default_tolerance_is_tight(self):
        val = integrate_semiinf(lambda w: w * np.exp(-w * w) * np.cos(40.0 * w), 40.0)
        ref, _ = quad(lambda w: w * np.exp(-w * w) * np.cos(40.0 * w), 0, 8,
                      limit=2000, epsabs=1e-13, epsrel=1e-12)
        assert val == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("z", [0.3, 2.0, 7.0, 21.0, 150.0, 400.0])
    def test_sine_transform_at_its_oscillation(self, z):
        # the selftest's check: the rule sized to the integrand's frequency z
        # against scipy's Dawson at z / 2
        val = integrate_semiinf(lambda t: np.exp(-t * t) * np.sin(z * t), z)
        assert val == pytest.approx(float(dawsn(z / 2)), abs=3e-14)


class TestTimeGrid:
    def test_endpoints_exact(self):
        grid = TimeGrid(t_max=50.0, dt=0.005)
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 50.0
        assert len(grid) == 10001

    def test_uniform(self):
        grid = TimeGrid(t_max=1.0, dt=0.1)
        assert np.allclose(np.diff(grid.points), 0.1, atol=1e-15)

    def test_non_commensurate_raises(self):
        with pytest.raises(ConfigError):
            TimeGrid(t_max=1.0, dt=0.3)

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            TimeGrid(t_max=0.0, dt=0.1)
        with pytest.raises(ConfigError):
            TimeGrid(t_max=1.0, dt=-0.1)

    @pytest.mark.parametrize("t_max", [float(numerics.MAX_POINTS), 2e12])
    def test_point_count_refused_before_allocating(self, t_max):
        # MAX_POINTS steps are one point too many; 2e12 points would be 16 TB
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="exceed MAX_POINTS"):
                TimeGrid(t_max=t_max, dt=1.0)
            assert tracemalloc.get_traced_memory()[1] < 1e5
        finally:
            tracemalloc.stop()


class TestCumulativeTrapezoid:
    def test_constant(self):
        grid = TimeGrid(t_max=1.0, dt=0.1)
        out = cumulative_trapezoid(np.ones(len(grid)), grid)
        assert out[0] == 0.0
        assert out[-1] == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact(self):
        grid = TimeGrid(t_max=1.0, dt=0.05)
        out = cumulative_trapezoid(grid.points, grid)
        assert out[-1] == pytest.approx(0.5, abs=1e-15)

    def test_sine(self):
        grid = TimeGrid(t_max=np.pi, dt=np.pi / 1000)
        out = cumulative_trapezoid(np.sin(grid.points), grid)
        assert abs(out[-1] - 2.0) < 1e-5

    def test_nonnegative_gives_nondecreasing(self):
        rng = np.random.default_rng(3)
        grid = TimeGrid(t_max=1.0, dt=0.01)
        samples = rng.uniform(0.0, 5.0, size=len(grid))
        out = cumulative_trapezoid(samples, grid)
        assert np.all(np.diff(out) >= 0.0)

    def test_length_mismatch(self):
        grid = TimeGrid(t_max=1.0, dt=0.1)
        with pytest.raises(ConfigError):
            cumulative_trapezoid(np.ones(len(grid) + 1), grid)


class TestRK4:
    def test_fixed_point(self):
        out = ode_step_rk4(1.0, lambda t, y: 0.0, 0.0, 0.1)
        assert out == 1.0

    def test_exponential_decay(self):
        y = 1.0
        dt = 0.01
        for k in range(100):
            y = ode_step_rk4(y, lambda t, v: -v, k * dt, dt)
        assert abs(y - np.exp(-1.0)) < 1e-8

    def test_complex_rotation_preserves_norm(self):
        y = 1.0 + 0.0j
        dt = 0.01
        for k in range(1000):
            y = ode_step_rk4(y, lambda t, v: 1j * v, k * dt, dt)
        assert abs(abs(y) - 1.0) < 1e-10

    def test_fourth_order_convergence(self):
        def run(dt, n):
            y = 1.0
            for k in range(n):
                y = ode_step_rk4(y, lambda t, v: -v, k * dt, dt)
            return abs(y - np.exp(-1.0))

        err_coarse = run(0.02, 50)
        err_fine = run(0.01, 100)
        assert err_coarse / err_fine >= 12.0

    def test_vector_state(self):
        y = np.array([1.0, 0.0])
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        dt = 2 * np.pi / 1000
        for k in range(1000):
            y = ode_step_rk4(y, lambda t, v: rot @ v, k * dt, dt)
        assert np.allclose(y, [1.0, 0.0], atol=1e-8)

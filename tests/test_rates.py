from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn

import polaron_deco as pd
from polaron_deco import BathModel, ConfigError, TimeGrid
from conftest import ONE_RULE_LAMBDAS, ONE_RULE_S


def gamma_nested_quadrature(t, s, lam, j_hop, which="plus"):
    """Independent oracle: double quadrature over tau, kernels evaluated at
    t - tau by their own inner quadratures (no change of variable, no grid)."""
    ratio = np.exp(-lam * (0.5 - float(dawsn(s / 2.0)) / s))
    j_tilde = j_hop * ratio
    sign = 1.0 if which == "plus" else -1.0

    def kernel(u, trig):
        val, _ = quad(
            lambda w: w * np.exp(-w * w) * (1 - np.sinc(w * s / np.pi)) * trig(w * u),
            0.0, 10.0, limit=800, epsabs=1e-13, epsrel=1e-12)
        return 2.0 * lam * val

    def integrand(tau):
        u = t - tau
        return np.exp(sign * kernel(u, np.cos)) * np.cos(kernel(u, np.sin)) - 1.0

    outer, _ = quad(integrand, 0.0, t, limit=120, epsabs=1e-9, epsrel=1e-9)
    return 2.0 * j_tilde**2 * outer


@pytest.fixture(scope="module")
def table_s1():
    grid = TimeGrid(t_max=10.0, dt=0.005)
    return pd.build_rate_table(BathModel(lambda_g=1.0, s=1.0), 1.0, grid)


class TestRateTable:
    def test_zero_at_origin(self, table_s1):
        assert table_s1.gamma_plus[0] == 0.0
        assert table_s1.gamma_minus[0] == 0.0
        for name in ("cum_gamma0", "cum_gamma1", "cum_gamma2"):
            assert getattr(table_s1, name)[0] == 0.0

    def test_decoupled_bath_all_zero(self):
        grid = TimeGrid(t_max=5.0, dt=0.05)
        table = pd.build_rate_table(BathModel(lambda_g=1.0, s=0.0), 1.0, grid)
        for name in ("gamma_plus", "gamma_minus",
                     "cap_gamma0", "cap_gamma1", "cap_gamma2"):
            assert np.all(getattr(table, name) == 0.0)
        assert table.j_tilde == 1.0

    def test_composite_identities_exact(self, table_s1):
        gp, gm = table_s1.gamma_plus, table_s1.gamma_minus
        assert np.array_equal(table_s1.cap_gamma1, 2.0 * gp + gm)
        assert np.array_equal(table_s1.cap_gamma2, 4.0 * gp)
        assert np.array_equal(table_s1.cap_gamma0, 0.5 * (2.0 * gp - gm))

    def test_overflowing_prefactor(self):
        # 2 j_tilde^2 overflows a float: a NumericalError, not an OverflowError
        grid = TimeGrid(t_max=1.0, dt=0.5)
        kernels = pd.build_kernel_table(BathModel(lambda_g=1.0, s=1.0), grid)
        with pytest.raises(pd.NumericalError, match="2 j_tilde\\^2 overflows"):
            pd.build_rate_table_from_kernels(kernels, 1e200)
        assert pd.build_rate_table_from_kernels(kernels, 1e150).j_tilde < 1e150

    def test_only_gamma_pm_stored(self, table_s1):
        # G0-G2 and their running integrals are derived on access
        assert [f.name for f in fields(pd.RateTable)] == [
            "grid", "j_tilde", "gamma_plus", "gamma_minus"]
        for k in range(3):
            assert np.array_equal(
                getattr(table_s1, f"cum_gamma{k}"),
                pd.cumulative_trapezoid(getattr(table_s1, f"cap_gamma{k}"), table_s1.grid))

    @pytest.mark.parametrize("name", ["gamma_plus", "gamma_minus"])
    def test_length_checked(self, table_s1, name):
        columns = {"gamma_plus": table_s1.gamma_plus, "gamma_minus": table_s1.gamma_minus}
        columns[name] = columns[name][:-1]
        with pytest.raises(ConfigError, match=f"{name} length does not match grid"):
            pd.RateTable(grid=table_s1.grid, j_tilde=table_s1.j_tilde, **columns)

    def test_ode_coefficient_identities(self, table_s1):
        # the off-diagonal equation couples through (g- + 6 g+)/2 and
        # (g- - 2 g+)/2; their sum and difference are the stored G1 and G2
        gp, gm = table_s1.gamma_plus, table_s1.gamma_minus
        a = 0.5 * (gm + 6.0 * gp)
        b = 0.5 * (gm - 2.0 * gp)
        assert np.max(np.abs((a + b) - table_s1.cap_gamma1)) < 1e-14
        assert np.max(np.abs((a - b) - table_s1.cap_gamma2)) < 1e-14

    def test_dressed_hopping(self, table_s1):
        expected = np.exp(-(0.5 - float(dawsn(0.5))))
        assert table_s1.j_tilde == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lam", ONE_RULE_LAMBDAS)
    def test_dressed_hopping_is_the_closed_form_ratio(self, lam):
        # the table reads J~ off its own k_cos[0], which has the bits of
        # kernel_zero, so it is j * effective_hopping_ratio bit for bit
        grid = TimeGrid(t_max=1.0, dt=1.0)
        for v in ONE_RULE_S:
            model = BathModel(lambda_g=lam, s=v)
            assert pd.build_rate_table(model, 0.7, grid).j_tilde \
                == 0.7 * pd.effective_hopping_ratio(model), v

    def test_change_of_variable_against_nested_quadrature(self, table_s1):
        # gamma_+(5) is finite and nonzero; its sign comes out negative here
        # because cos(K_s) drops the integrand below zero past u ~ 1.5
        k5 = int(round(5.0 / table_s1.grid.dt))
        direct = gamma_nested_quadrature(5.0, 1.0, 1.0, 1.0, "plus")
        assert direct != 0.0
        assert abs(table_s1.gamma_plus[k5] - direct) < 1e-6

    def test_change_of_variable_minus_branch(self, table_s1):
        k3 = int(round(3.0 / table_s1.grid.dt))
        direct = gamma_nested_quadrature(3.0, 1.0, 1.0, 1.0, "minus")
        assert abs(table_s1.gamma_minus[k3] - direct) < 1e-6

    def test_grid_doubling_converged(self):
        model = BathModel(lambda_g=1.0, s=1.0)
        coarse = pd.build_rate_table(model, 1.0, TimeGrid(t_max=50.0, dt=0.005))
        fine = pd.build_rate_table(model, 1.0, TimeGrid(t_max=50.0, dt=0.0025))
        assert abs(coarse.gamma_plus[-1] - fine.gamma_plus[-1]) < 1e-6
        assert abs(coarse.gamma_minus[-1] - fine.gamma_minus[-1]) < 1e-6

    def test_from_mode_kernels(self):
        grid = TimeGrid(t_max=4.0, dt=0.01)
        kernels = pd.kernel_table_from_modes([1.0, 3.0], [0.4, 0.1], grid)
        table = pd.build_rate_table_from_kernels(kernels, 0.5)
        assert table.j_tilde == pytest.approx(0.5 * np.exp(-0.25), rel=1e-12)
        assert table.gamma_plus[0] == 0.0


class TestRateAt:
    def test_exact_at_grid_points(self, table_s1):
        k = 123
        t = table_s1.grid.points[k]
        assert pd.rate_at(table_s1, t, "gamma_plus") == table_s1.gamma_plus[k]

    def test_midpoint_is_mean(self, table_s1):
        k = 200
        t = table_s1.grid.points[k] + 0.5 * table_s1.grid.dt
        expected = 0.5 * (table_s1.cap_gamma1[k] + table_s1.cap_gamma1[k + 1])
        assert pd.rate_at(table_s1, t, "cap_gamma1") == pytest.approx(expected, rel=1e-14)

    def test_flat_segment(self):
        grid = TimeGrid(t_max=1.0, dt=0.5)
        kernels = pd.kernel_table_from_modes([1.0], [0.0], grid)
        table = pd.build_rate_table_from_kernels(kernels, 1.0)
        assert pd.rate_at(table, 0.25, "gamma_plus") == 0.0

    def test_out_of_range(self, table_s1):
        with pytest.raises(ConfigError):
            pd.rate_at(table_s1, -0.5, "gamma_plus")
        with pytest.raises(ConfigError):
            pd.rate_at(table_s1, 11.0, "gamma_plus")

    def test_unknown_selector(self, table_s1):
        # beta is not tabulated: its commutator vanishes on the sector
        for which in ("gamma_three", "beta"):
            with pytest.raises(ConfigError, match="unknown rate selector"):
                pd.rate_at(table_s1, 1.0, which)

    def test_array_matches_scalar_calls(self, table_s1):
        t = np.array([[0.0, 0.0025, 1.234], [5.0, 9.9975, 10.0]])
        out = pd.rate_at(table_s1, t, "cap_gamma0")
        assert out.shape == t.shape
        expected = [pd.rate_at(table_s1, float(v), "cap_gamma0") for v in t.ravel()]
        assert np.array_equal(out.ravel(), expected)
        assert pd.rate_at(table_s1, np.array([]), "gamma_minus").shape == (0,)

    @pytest.mark.parametrize("bad", [-0.5, 11.0, np.nan])
    def test_array_with_one_bad_element(self, table_s1, bad):
        t = np.linspace(0.0, 10.0, 7)
        t[3] = bad
        with pytest.raises(ConfigError, match="outside"):
            pd.rate_at(table_s1, t, "gamma_plus")

    def test_scalar_returns_float(self, table_s1):
        k = 321
        out = pd.rate_at(table_s1, table_s1.grid.points[k], "cap_gamma2")
        assert type(out) is float
        assert out == table_s1.cap_gamma2[k]

import types

import numpy as np
import pytest

import polaron_deco as pd
from polaron_deco import (
    BathModel,
    ConfigError,
    DensityMatrixST,
    NumericalError,
    TimeGrid,
)
from polaron_deco.dynamics import _rk4_run
from conftest import fig2_state
from rk4_reference import rk4_step_loop


@pytest.fixture(scope="module")
def table_s1():
    grid = TimeGrid(t_max=10.0, dt=0.01)
    return pd.build_rate_table(BathModel(lambda_g=1.0, s=1.0), 1.0, grid)


@pytest.fixture(scope="module")
def fast_tables(fast_grid):
    return {s: pd.build_rate_table(BathModel(lambda_g=1.0, s=s), 1.0, fast_grid)
            for s in (1.0, 10.0)}


@pytest.fixture(scope="module")
def zero_table():
    grid = TimeGrid(t_max=10.0, dt=0.01)
    return pd.build_rate_table(BathModel(lambda_g=1.0, s=0.0), 1.0, grid)


class TestDensityMatrixST:
    def test_from_parts(self):
        st = DensityMatrixST.from_parts(2 / 3, np.sqrt(2) / 3)
        assert st.rho_tt == pytest.approx(1 / 3)
        assert st.min_eigenvalue() == pytest.approx(0.0, abs=1e-12)

    def test_trace_violation(self):
        with pytest.raises(ConfigError):
            DensityMatrixST(rho_ss=0.6, rho_tt=0.6, rho_st=0.0)

    def test_population_bounds(self):
        with pytest.raises(ConfigError, match="rho_ss"):
            DensityMatrixST.from_parts(1.5, 0.0)

    def test_positivity(self):
        with pytest.raises(ConfigError):
            DensityMatrixST.from_parts(0.5, 0.9)

    @pytest.mark.parametrize("rho_ss,rho_st", [
        (np.nan, 0.1), (0.5, np.nan), (0.5, complex(0.1, np.inf)), (np.inf, 0.0)])
    def test_non_finite_rejected(self, rho_ss, rho_st):
        with pytest.raises(ConfigError, match="finite"):
            DensityMatrixST.from_parts(rho_ss, rho_st)

    def test_matrix_layout(self):
        st = DensityMatrixST.from_parts(0.25, 0.1 + 0.2j)
        m = st.matrix()
        assert m[1, 1] == 0.25
        assert m[0, 0] == 0.75
        assert m[1, 0] == 0.1 + 0.2j
        assert m[0, 1] == np.conj(m[1, 0])


class TestEvolvers:
    def test_decoupled_bath_is_frozen(self, zero_table):
        rho0 = fig2_state()
        for traj in (pd.evolve_closed_form(rho0, zero_table),
                     pd.evolve_ode(rho0, zero_table)):
            assert np.max(np.abs(traj.rho_ss - rho0.rho_ss)) < 1e-12
            assert np.max(np.abs(traj.rho_st - rho0.rho_st)) < 1e-12

    def test_maximally_mixed_fixed_point(self, table_s1):
        rho0 = DensityMatrixST.maximally_mixed()
        for traj in (pd.evolve_closed_form(rho0, table_s1),
                     pd.evolve_ode(rho0, table_s1)):
            assert np.max(np.abs(traj.rho_ss - 0.5)) < 1e-9
            assert np.max(np.abs(traj.rho_st)) < 1e-9

    def test_closed_form_starts_at_initial_state(self, table_s1):
        rho0 = DensityMatrixST.from_parts(0.8, 0.1 - 0.2j)
        traj = pd.evolve_closed_form(rho0, table_s1)
        assert traj.rho_ss[0] == rho0.rho_ss
        assert traj.rho_st[0] == rho0.rho_st

    def test_ode_matches_closed_form(self, table_s1):
        rho0 = fig2_state()
        a = pd.evolve_ode(rho0, table_s1)
        b = pd.evolve_closed_form(rho0, table_s1)
        err = max(np.max(np.abs(a.rho_ss - b.rho_ss)),
                  np.max(np.abs(a.rho_tt - b.rho_tt)),
                  np.max(np.abs(a.rho_st - b.rho_st)))
        assert err <= 1e-6

    def test_trace_preserved(self, table_s1):
        traj = pd.evolve_ode(fig2_state(), table_s1)
        assert traj.trace_error() <= 1e-9

    def test_positivity_held(self, table_s1):
        traj = pd.evolve_closed_form(fig2_state(), table_s1)
        assert float(np.min(traj.min_eigenvalues())) >= -1e-8

    def test_real_coherence_decays_with_gamma1(self, table_s1):
        rho0 = DensityMatrixST.from_parts(0.5, 0.3)
        traj = pd.evolve_ode(rho0, table_s1)
        expected = 0.3 * np.exp(-table_s1.cum_gamma1)
        assert np.max(np.abs(traj.rho_st.real - expected)) < 1e-4
        assert np.max(np.abs(traj.rho_st.imag)) < 1e-12

    def test_imag_coherence_decays_with_gamma2(self, table_s1):
        rho0 = DensityMatrixST.from_parts(0.5, 0.3j)
        traj = pd.evolve_ode(rho0, table_s1)
        with np.errstate(divide="ignore"):
            exponent = -np.log(np.abs(traj.rho_st[1:]) / 0.3)
        assert np.max(np.abs(exponent - table_s1.cum_gamma2[1:])) < 1e-4

    def test_population_difference_exponent(self, table_s1):
        # the diagonal gap contracts at twice the running integral of G0
        rho0 = fig2_state()
        traj = pd.evolve_closed_form(rho0, table_s1)
        gap = traj.rho_tt - traj.rho_ss
        expected = (rho0.rho_tt - rho0.rho_ss) * np.exp(-2.0 * table_s1.cum_gamma0)
        assert np.max(np.abs(gap - expected)) < 1e-12

    @pytest.mark.parametrize("s", [1.0, 10.0])
    @pytest.mark.parametrize("state", [
        (2.0 / 3.0, np.sqrt(2.0) / 3.0), (0.8, 0.1 - 0.2j), (1.0, 0j)])
    def test_product_form_matches_step_loop(self, fast_tables, s, state):
        # the amplification-factor product is RK4 itself, not a new scheme:
        # it must reproduce the step-by-step loop to round-off at dt and dt/2
        rho0 = DensityMatrixST.from_parts(*state)
        table = fast_tables[s]
        loop = rk4_step_loop(rho0, table, refine=1)
        traj = pd.evolve_ode(rho0, table)
        assert np.max(np.abs(traj.rho_ss - loop[:, 0])) <= 1e-13
        assert np.max(np.abs(traj.rho_st - (loop[:, 1] - 1j * loop[:, 2]))) <= 1e-13
        fine = _rk4_run(rho0, table, refine=2)
        assert np.max(np.abs(fine - rk4_step_loop(rho0, table, refine=2))) <= 1e-13

    def test_long_grid_end_time_in_range(self):
        # the last step ends at points[-2] + dt, one ulp (3.6e-12) past
        # t_max here; the range check must scale with t_max
        grid = TimeGrid(t_max=20000.0, dt=0.2)
        table = pd.build_rate_table_from_kernels(
            pd.kernel_table_from_modes([1.0], [0.0], grid), 1.0)
        traj = pd.evolve_ode(fig2_state(), table)
        assert traj.rho_ss[-1] == fig2_state().rho_ss

    def test_self_check_threshold(self):
        # dt vs dt/2 final states differ by 1.5e-8 at dt = 0.05 and by
        # ~6e-9 at dt = 0.04, either side of the 1e-8 tolerance
        def evolve(dt):
            grid = TimeGrid(t_max=2.0, dt=dt)
            table = pd.build_rate_table_from_kernels(
                pd.kernel_table_from_modes([1.0], [1.0], grid), 1.0)
            return pd.evolve_ode(fig2_state(), table)

        evolve(0.04)
        with pytest.raises(NumericalError, match="1.5[0-9]*e-08"):
            evolve(0.05)

    def test_self_check_catches_unstable_grid(self):
        # rates far too stiff for the step size must trip the halving check
        grid = TimeGrid(t_max=2.0, dt=0.5)
        kernels = pd.kernel_table_from_modes([1.0], [5.0], grid)
        table = pd.build_rate_table_from_kernels(kernels, 4.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                pd.evolve_ode(fig2_state(), table)


class TestObservables:
    def test_coherence_normalization(self, table_s1):
        traj = pd.evolve_closed_form(fig2_state(), table_s1)
        assert traj.coherence_normalized
        c = traj.coherence
        assert c[0] == 1.0
        assert np.all(c >= 0.0)

    def test_coherence_frozen_without_coupling(self, zero_table):
        traj = pd.evolve_closed_form(fig2_state(), zero_table)
        assert np.max(np.abs(traj.coherence - 1.0)) < 1e-12

    def test_zero_initial_coherence(self, table_s1):
        traj = pd.evolve_closed_form(DensityMatrixST.from_parts(1.0, 0.0), table_s1)
        assert not traj.coherence_normalized
        assert np.all(traj.coherence == 0.0)  # falls back to |rho_st|

    def test_population_difference_initial(self, table_s1):
        traj = pd.evolve_closed_form(fig2_state(), table_s1)
        pdiff = traj.pop_diff
        assert pdiff[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert np.all((pdiff >= 0.0) & (pdiff <= 1.0))

    def test_population_difference_mixed(self, table_s1):
        traj = pd.evolve_closed_form(DensityMatrixST.maximally_mixed(), table_s1)
        assert np.max(traj.pop_diff) < 1e-12

    def test_long_time_equal_mixture(self):
        # strong scattering drives the populations to the 1/2, 1/2 mixture
        grid = TimeGrid(t_max=50.0, dt=0.005)
        table = pd.build_rate_table(BathModel(lambda_g=1.0, s=100.0), 1.0, grid)
        traj = pd.evolve_closed_form(fig2_state(), table)
        assert abs(traj.rho_ss[-1] - 0.5) < 0.02
        assert traj.pop_diff[-1] < 0.05
        assert traj.coherence[-1] < 0.05

    def test_csv_export(self, table_s1, tmp_path):
        traj = pd.evolve_closed_form(fig2_state(), table_s1)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,rho_ss,rho_tt,re_rho_st,im_rho_st,C,P_D"
        assert len(lines) == len(table_s1.grid) + 1
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(2 / 3, abs=1e-9)


class TestLambShift:
    def test_operator_is_identity(self):
        report = pd.lamb_shift_vanishes()
        assert report.identity_deviation < 1e-15
        assert np.array_equal(report.operator, np.eye(2))

    def test_commutators_vanish(self):
        report = pd.lamb_shift_vanishes(n_random_states=16, seed=123)
        assert report.max_commutator_entry < 1e-15
        assert report.vanishes


def test_star_import_binds_no_module():
    namespace = {}
    exec("from polaron_deco import *", namespace)
    modules = [k for k, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert modules == []
    assert "Trajectory" in namespace and "evolve_closed_form" in namespace

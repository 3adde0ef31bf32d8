import numpy as np
import pytest

import polaron_deco as pd


def fig2_state():
    return pd.DensityMatrixST.from_parts(2.0 / 3.0, np.sqrt(2.0) / 3.0)


# initial states used by the ODE / closed-form cross validation; all satisfy
# the density-matrix invariants (pure or mixed)
ODE_CF_STATES = (
    (2.0 / 3.0, np.sqrt(2.0) / 3.0 + 0.0j),
    (0.5, 0.5 + 0.0j),
    (0.5, 0.3j),
    (0.8, 0.1 - 0.2j),
    (1.0, 0.0j),
)


# the (lambda_g, s) set on which K_c(0) has one rule: s = 0, subnormal s,
# both sides of the kernel table's series switch at s = 0.25, and a
# geometric grid across it
ONE_RULE_LAMBDAS = (0.5, 1.0, 1.37)
ONE_RULE_S = np.concatenate([[0.0, 5e-324, 1.5e-323, np.nextafter(0.25, 0.0), 0.25],
                             np.geomspace(1e-6, 1e3, 4000)])


@pytest.fixture(scope="session")
def default_grid():
    return pd.TimeGrid(t_max=50.0, dt=0.005)


@pytest.fixture(scope="session")
def fast_grid():
    return pd.TimeGrid(t_max=10.0, dt=0.01)


@pytest.fixture(scope="session")
def default_rate_tables(default_grid):
    """Rate tables at the reference parameters, one per scattering scale."""
    return {
        s: pd.build_rate_table(pd.BathModel(lambda_g=1.0, s=s), 1.0, default_grid)
        for s in (1.0, 10.0, 100.0)
    }


@pytest.fixture(scope="session")
def acceptance_trajectories(default_grid, default_rate_tables):
    """Every trajectory the acceptance criteria look at, computed once.

    Keys: ("ode"|"cf", state-index, s) for the cross-validation set on s=1,
    ("cf", "fig2", s) for the scattering sweep, and ("cf", "fig2", "s0"/"lam0")
    for the decoupled limits.
    """
    out = {}
    table_s1 = default_rate_tables[1.0]
    for idx, (rho_ss, rho_st) in enumerate(ODE_CF_STATES):
        state = pd.DensityMatrixST.from_parts(rho_ss, rho_st)
        out[("cf", idx, 1.0)] = pd.evolve_closed_form(state, table_s1)
        out[("ode", idx, 1.0)] = pd.evolve_ode(state, table_s1)
    for s, table in default_rate_tables.items():
        out[("cf", "fig2", s)] = pd.evolve_closed_form(fig2_state(), table)
    zero_s = pd.build_rate_table(pd.BathModel(lambda_g=1.0, s=0.0), 1.0, default_grid)
    zero_lam = pd.build_rate_table(pd.BathModel(lambda_g=0.0, s=1.0), 1.0, default_grid)
    out[("cf", "fig2", "s0")] = pd.evolve_closed_form(fig2_state(), zero_s)
    out[("cf", "fig2", "lam0")] = pd.evolve_closed_form(fig2_state(), zero_lam)
    return out

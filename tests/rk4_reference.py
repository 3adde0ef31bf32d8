"""Reference RK4: one generic classical step and the step-by-step loop over
the rate equations, with scalar rate lookups.

dynamics._rk4_run evaluates the same scheme in closed form, as a cumulative
product of per-step amplification factors; the tests hold the two to round-off.
"""

import numpy as np

from polaron_deco.rates import rate_at


def ode_step_rk4(state, derivative, t: float, dt: float):
    """One classical 4th-order Runge-Kutta step; local error O(dt^5).

    derivative(t, state) must be callable at t, t + dt/2 and t + dt.
    state may be a scalar or ndarray, real or complex.
    """
    k1 = derivative(t, state)
    k2 = derivative(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = derivative(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = derivative(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step_loop(rho0, rates, refine: int = 1):
    """RK4 at grid spacing dt/refine, one Python step at a time.

    State vector y = (rho_SS, Re rho_TS, Im rho_TS); returns it on the grid.
    """
    grid = rates.grid
    dt = grid.dt / refine

    def deriv(t, y):
        g0 = rate_at(rates, t, "cap_gamma0")
        g1 = rate_at(rates, t, "cap_gamma1")
        g2 = rate_at(rates, t, "cap_gamma2")
        return np.array([-g0 * (2.0 * y[0] - 1.0), -g1 * y[1], -g2 * y[2]])

    y = np.array([rho0.rho_ss, rho0.rho_st.real, -rho0.rho_st.imag])
    out = np.empty((len(grid), 3))
    out[0] = y
    for k in range(grid.n_steps):
        t = grid.points[k]
        for j in range(refine):
            y = ode_step_rk4(y, deriv, t + j * dt, dt)
        out[k + 1] = y
    return out

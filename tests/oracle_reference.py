"""Reference oracle routes in their plain, one-at-a-time form, on the
eigendecomposition of the lab-basis H instead of a Chebyshev series.

oracle.run_bangbang advances every pulse schedule in lockstep by Chebyshev
series; serial_bangbang runs one schedule after another on eigen-
coefficients. oracle.exact_decoherence_reference sums a Chebyshev series
per slice of oracle.CHUNK points; one_block_rho applies the
eigendecomposition to the whole time grid as one amplitude block. The tests
hold the production routes to them.
"""

import numpy as np

from polaron_deco.oracle import (
    BangBangResult,
    _ideal_rotation,
    _initial_site_branches,
    _reduced_st_series,
    _require_hermitian,
    _site_swap,
    _vacuum_state,
    build_hamiltonian,
    trace_distance,
)


class Propagator:
    """exp(-i H t) for one Hermitian H, held as its eigendecomposition H = V E V^dag."""

    def __init__(self, ham: np.ndarray):
        ham = np.asarray(ham)
        with np.errstate(invalid="ignore"):  # inf - inf
            _require_hermitian(float(np.max(np.abs(ham - ham.conj().T))))
        self.energies, self.vectors = np.linalg.eigh(ham)

    def coefficients(self, psi: np.ndarray) -> np.ndarray:
        """Eigen-coefficients V^dag psi of states along the last axis."""
        return (np.asarray(psi).conj() @ self.vectors).conj()  # no copy of V

    def states(self, coeffs: np.ndarray) -> np.ndarray:
        """State vectors V c of eigen-coefficients along the last axis."""
        return coeffs @ self.vectors.T

    def phases(self, t) -> np.ndarray:
        """exp(-i E t), shape np.shape(t) + (dim,)."""
        return np.exp(-1j * np.multiply.outer(t, self.energies))

    def evolve(self, psi: np.ndarray, t) -> np.ndarray:
        """exp(-i H t) psi for states along the last axis of psi.

        The result has shape np.shape(t) + psi.shape: a scalar t evolves a
        state (or a stack of states) to one time, a 1-d t to every time.
        """
        psi = np.asarray(psi)
        t = np.asarray(t, dtype=float)
        phases = self.phases(t).reshape(t.shape + (1,) * (psi.ndim - 1) + (-1,))
        return self.states(phases * self.coefficients(psi))


def serial_bangbang(config, rho0, schedules):
    """BangBangResult rows of run_bangbang, sorted by delta_t, with each
    schedule run from the initial coefficients on its own."""
    total_time = schedules[0].total_time
    prop = Propagator(build_hamiltonian(config))
    branches = _initial_site_branches(rho0)
    psi0 = _vacuum_state([vec for _, vec in branches], config.bath_dim)
    undo = _ideal_rotation(config, total_time)

    def distance(psi):
        rho = sum(p * r for (p, _), r in zip(branches, _reduced_st_series(psi)))
        return trace_distance(undo[:, None] * rho * undo.conj(), rho0.matrix())

    distance_free = distance(prop.evolve(psi0, total_time))
    c0 = prop.coefficients(psi0)
    # row j is the coefficients of Pi v_j: (V^dag Pi V)^T
    pulse_t = prop.coefficients(_site_swap(prop.vectors.T))
    results = []
    for sched in schedules:
        free = prop.phases(sched.delta_t)
        c = c0
        for _ in range(2 * sched.cycles):
            c = free * (c @ pulse_t)
        results.append(BangBangResult(
            delta_t=sched.delta_t, n_cycles=sched.cycles,
            distance_pulsed=distance(prop.states(c)), distance_free=distance_free,
        ))
    results.sort(key=lambda r: r.delta_t)
    return results


def one_block_rho(config, rho0, grid):
    """The [T, S] matrices exact_decoherence_reference reports, with every
    branch propagated by the eigendecomposition of H over the whole grid as
    one T x dim block."""
    prop = Propagator(build_hamiltonian(config))
    t = grid.points
    rho_t = np.zeros((len(t), 2, 2), dtype=complex)
    for p, vec in _initial_site_branches(rho0):
        psi0 = _vacuum_state(vec, config.bath_dim)
        rho_t += p * _reduced_st_series(prop.evolve(psi0, t))
    d = _ideal_rotation(config, t)
    rho_t = d[:, :, None] * rho_t * d.conj()[:, None, :]
    rho_t[0] = rho0.matrix()
    return rho_t

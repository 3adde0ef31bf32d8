"""Reference oracle routes in their plain, one-at-a-time form, on dense
matrices from tests/kron_reference.py instead of the bands and Chebyshev
series of polaron_deco.oracle.

oracle.run_bangbang advances each pulse schedule by one Chebyshev series
per half cycle; serial_bangbang runs each schedule on the eigen-
coefficients of the Kronecker-built H. oracle.exact_decoherence_reference
sums a Chebyshev series per slice of oracle.CHUNK points; one_block_rho
applies the eigendecomposition to the whole time grid as one amplitude
block. oracle.lang_firsov_check applies exp(-S) to vacuum states by a
series; dense_lang_firsov transforms the whole Kronecker-built H by the
unitary exp(S). The tests hold the production routes to them, which share
neither the band builder nor the series. dense_lang_firsov also transforms
the two-particle block, which only the tests build, for the polaron shift.
"""

import numpy as np

from polaron_deco.oracle import (
    BangBangResult,
    _ideal_rotation,
    _initial_site_branches,
    _reduced_st_series,
    _require_hermitian,
    _site_swap,
    _trace_distance,
    _vacuum_state,
)
from kron_reference import kron_generator, kron_hamiltonian


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
    prop = Propagator(kron_hamiltonian(config))
    branches = _initial_site_branches(rho0)
    psi0 = _vacuum_state([vec for _, vec in branches], config.bath_dim)
    undo = _ideal_rotation(config, total_time)

    def distance(psi):
        rho = sum(p * r for (p, _), r in zip(branches, _reduced_st_series(psi)))
        return _trace_distance(undo[:, None] * rho * undo.conj(), rho0.matrix())

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
    prop = Propagator(kron_hamiltonian(config))
    t = grid.points
    rho_t = np.zeros((len(t), 2, 2), dtype=complex)
    for p, vec in _initial_site_branches(rho0):
        psi0 = _vacuum_state(vec, config.bath_dim)
        rho_t += p * _reduced_st_series(prop.evolve(psi0, t))
    d = _ideal_rotation(config, t)
    rho_t = d[:, :, None] * rho_t * d.conj()[:, None, :]
    rho_t[0] = rho0.matrix()
    return rho_t


def unitary_from_generator(s_matrix: np.ndarray) -> np.ndarray:
    """exp(S) for anti-Hermitian S, from one eigh of the Hermitian iS = V E V^dag:
    exp(S) = V exp(-i E) V^dag."""
    energies, vectors = np.linalg.eigh(1j * s_matrix)
    return (vectors * np.exp(-1j * energies)) @ vectors.conj().T


def dense_lang_firsov(config):
    """<1, vac| exp(S) H exp(-S) |2, vac> and the two-particle vacuum energy
    <vac| exp(S) H_2 exp(-S) |vac>, from the whole transformed matrices of
    the one- and two-particle blocks."""
    u = unitary_from_generator(kron_generator(config))
    hop = (u @ kron_hamiltonian(config) @ u.conj().T)[0, config.bath_dim]
    u2 = unitary_from_generator(kron_generator(config, particles=2))
    shift = (u2 @ kron_hamiltonian(config, particles=2) @ u2.conj().T)[0, 0].real
    return complex(hop), float(shift)

"""Reference oracle routes in their plain, one-at-a-time form.

oracle.run_bangbang advances every pulse schedule in lockstep;
serial_bangbang runs one schedule after another.
oracle.exact_decoherence_reference sums a Chebyshev series per slice of
oracle.CHUNK points; one_block_rho is the other exact route, the
eigendecomposition (oracle.Propagator) applied to the whole time grid as one
amplitude block. The tests hold the production routes to them.
"""

import numpy as np

from polaron_deco.oracle import (
    BangBangResult,
    Propagator,
    _frame,
    _ideal_rotation,
    _initial_site_branches,
    _matmul,
    _on_blocks,
    _reduced_st_series,
    _vacuum_state,
    trace_distance,
)


def serial_bangbang(config, rho0, schedules):
    """BangBangResult rows of run_bangbang, sorted by delta_t, with each
    schedule run from the initial coefficients on its own."""
    total_time = schedules[0].total_time
    frame = _frame(config)
    prop = Propagator(frame.ham)
    branches = _initial_site_branches(rho0)
    psi0 = _vacuum_state([frame.from_site @ vec for _, vec in branches], config.bath_dim)
    undo = _ideal_rotation(config, total_time)

    def distance(psi):
        reduced = _reduced_st_series(psi, frame.to_st)
        rho = sum(p * r for (p, _), r in zip(branches, reduced))
        return trace_distance(undo[:, None] * rho * undo.conj(), rho0.matrix())

    distance_free = distance(prop.evolve(psi0, total_time))
    c0 = prop.coefficients(psi0)
    pulse_t = prop.coefficients(_on_blocks(frame.pulse, prop.vectors.T))
    results = []
    for sched in schedules:
        free = prop.phases(sched.delta_t)
        c = c0
        for _ in range(2 * sched.cycles):
            c = free * _matmul(c, pulse_t)
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
    frame = _frame(config)
    prop = Propagator(frame.ham)
    t = grid.points
    rho_t = np.zeros((len(t), 2, 2), dtype=complex)
    for p, vec in _initial_site_branches(rho0):
        psi0 = _vacuum_state(frame.from_site @ vec, config.bath_dim)
        rho_t += p * _reduced_st_series(prop.evolve(psi0, t), frame.to_st)
    d = _ideal_rotation(config, t)
    rho_t = d[:, :, None] * rho_t * d.conj()[:, None, :]
    rho_t[0] = rho0.matrix()
    return rho_t

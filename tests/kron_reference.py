"""Reference oracle operators built from dense Kronecker products.

Each mode's annihilator is a Kronecker chain of identities around one
(n_max + 1)-level ladder matrix, and each b^dag b is a dense matrix product.
oracle.build_hamiltonian and oracle._minus_i_generator write the one-particle
H and -iS as bands from an occupation table; the tests hold toarray() of
those bands to these matrices to round-off, and the dense references of
tests/oracle_reference.py take their H and S from here. The two-particle
block (particles=2), which the one-particle oracle does not build, is here
for the polaron-shift check of the tests alone.
"""

import math

import numpy as np


def annihilator(n_max: int) -> np.ndarray:
    b = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(1, n_max + 1):
        b[n - 1, n] = math.sqrt(n)
    return b


def mode_annihilators(config):
    """b_k on the bath space, mode 0 the slowest Kronecker factor."""
    eye = np.eye(config.n_max + 1)
    ops = []
    for k in range(config.n_modes):
        mats = [eye] * config.n_modes
        mats[k] = annihilator(config.n_max)
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        ops.append(full)
    return ops


def kron_hamiltonian(config, particles: int = 1) -> np.ndarray:
    """H in one fermion-number block (1 or 2 particles)."""
    b_ops = mode_annihilators(config)
    hb = sum(w * (b.conj().T @ b) for w, b in zip(config.mode_freqs, b_ops))
    db = config.bath_dim
    couple = []
    for gs in (config.g_site1, config.g_site2):
        op = np.zeros((db, db), dtype=complex)
        for g, b in zip(gs, b_ops):
            op += g * b + np.conj(g) * b.conj().T
        couple.append(op)
    if particles == 2:
        return (2.0 * config.epsilon_onsite) * np.eye(db) + hb + couple[0] + couple[1]
    h_sys = np.array([[config.epsilon_onsite, config.j_hop],
                      [config.j_hop, config.epsilon_onsite]], dtype=complex)
    ham = np.kron(h_sys, np.eye(db)) + np.kron(np.eye(2), hb)
    ham += np.kron(np.diag([1.0, 0.0]), couple[0])
    ham += np.kron(np.diag([0.0, 1.0]), couple[1])
    return ham


def kron_generator(config, particles: int = 1) -> np.ndarray:
    """S = -sum_{p,k} n_p (g_pk b_k - g_pk^* b_k^dag) / omega_k (1 or 2 particles)."""
    b_ops = mode_annihilators(config)
    db = config.bath_dim
    disp = []
    for gs in (config.g_site1, config.g_site2):
        op = np.zeros((db, db), dtype=complex)
        for g, w, b in zip(gs, config.mode_freqs, b_ops):
            op += (g / w) * b - (np.conj(g) / w) * b.conj().T
        disp.append(op)
    if particles == 2:
        return -(disp[0] + disp[1])
    return -(np.kron(np.diag([1.0, 0.0]), disp[0]) + np.kron(np.diag([0.0, 1.0]), disp[1]))

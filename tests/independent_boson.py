"""The oracle's model at J = 0, the independent-boson model, in closed form.

With no hopping, the site-p branch of the bare bath vacuum evolves under
eps + sum_k [omega_k b_k^dag b_k + g_pk b_k + g_pk^* b_k^dag] into

    e^{-i eps t} e^{i Phi_p(t)} |z_p(t)>,
    z_pk(t) = (g_pk^* / omega_k) (e^{-i omega_k t} - 1),
    Phi_p(t) = sum_k (|g_pk|^2 / omega_k^2) (omega_k t - sin omega_k t),

a product of coherent states. The site-basis reduced state is then

    rho_pq(t) = rho_pq(0) e^{i (Phi_p - Phi_q)} <z_q|z_p>,
    <z_q|z_p> = exp(sum_k [z_qk^* z_pk - |z_pk|^2 / 2 - |z_qk|^2 / 2]),

whose coherence magnitude |<z_2|z_1>| = exp(-sum_k |alpha_k|^2 (1 - cos
omega_k t)) is exp(-(K_c(0) - K_c(t))) of the mode kernels. At J = 0 the
ideal rotation exp(-i H_S t) is the global phase e^{-i eps t}, so undoing it
leaves the state as it is. Nothing here is truncated: the oracle's distance
from it is its Fock-truncation error.
"""

import numpy as np

# rows are <T|, <S| in the site basis {|10>, |01>}
ST_FROM_SITE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def site_from_st(rho_st_matrices):
    """Site-basis matrices of [T, S]-ordered ones (leading axes kept)."""
    return ST_FROM_SITE.conj().T @ rho_st_matrices @ ST_FROM_SITE


def st_matrices(traj):
    """[T, S]-ordered 2x2 matrices of a Trajectory's stored fields."""
    return np.stack([np.stack([traj.rho_tt, traj.rho_st.conj()], axis=-1),
                     np.stack([traj.rho_st, traj.rho_ss], axis=-1)], axis=-2)


def independent_boson_states(config, rho0, t):
    """[T, S]-ordered reduced states of config at J = 0 (j_hop is ignored)
    from rho0 and the bare bath vacuum, at times t: shape (len(t), 2, 2)."""
    w = np.asarray(config.mode_freqs)
    g = np.array([config.g_site1, config.g_site2])  # (site, mode)
    t = np.asarray(t, dtype=float)[:, None]
    z = g.conj()[:, None, :] / w * (np.exp(-1j * w * t) - 1.0)  # (site, time, mode)
    phi = np.sum(np.abs(g[:, None, :] / w) ** 2 * (w * t - np.sin(w * t)), axis=-1)
    half_norm = 0.5 * np.sum(np.abs(z) ** 2, axis=-1)  # (site, time)
    rho_site0 = site_from_st(rho0.matrix())
    rho = np.empty((t.shape[0], 2, 2), dtype=complex)
    for p in range(2):
        for q in range(2):
            overlap = np.exp(np.sum(z[q].conj() * z[p], axis=-1) - half_norm[p] - half_norm[q])
            rho[:, p, q] = rho_site0[p, q] * np.exp(1j * (phi[p] - phi[q])) * overlap
    return ST_FROM_SITE @ rho @ ST_FROM_SITE.conj().T

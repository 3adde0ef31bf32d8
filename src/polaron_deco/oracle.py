"""Exact reference simulator: two sites coupled to a handful of truncated
bosonic modes, diagonalized densely.

Serves three jobs that the master-equation pipeline cannot certify for
itself: numerical verification of the displacement (polaron) transformation,
a brute-force decoherence reference in the anti-adiabatic regime, and the
pulse-train (bang-bang) protection protocol with measured error scaling.

Everything is restricted to the single-particle sector (plus an optional
two-particle block for the induced interaction check), so the Hilbert space
is 2 * (n_max + 1)^n_modes and dense eigendecomposition is cheap.

Operators are filled from one occupation table of the bath basis (mode 0
slowest, the Kronecker order): H_bath is a diagonal, and each coupling or
displacement writes a * sqrt(n_k) at one lowered index pair per mode and
basis state, with its adjoint at the mirror position.

Every exp(-i H t) below comes from one Propagator (the eigendecomposition
of H, built once per Hamiltonian) applied to state vectors; pi pulses act on
eigen-coefficients through V^dag Pi V, built once per run.

Frames: when |g_1k| = |g_2k| for every mode (every ohmic_mode_config), the
antiunitary (site swap) x (complex conjugation) commutes with H after the
bath gauge b_k -> e^{i theta_k} b_k, theta_k = -(arg g_1k + arg g_2k)/2,
which makes g_2k = conj(g_1k) (Dyson, J. Math. Phys. 3, 1199 (1962)). In
the basis u_n = (|1,n> + |2,n>)/sqrt2, v_n = i(|1,n> - |2,n>)/sqrt2, H is
then the real symmetric [[Re A + J, -Im A], [Im A, Re A - J]] (A the gauged
site-1 block), eigh and propagation run in real arithmetic, and the pi pulse
is diag(I, -I). The gauge acts on the bath alone, so it leaves the vacuum
and every reduced state unchanged; only a 2x2 map on the site index is
applied, at the two ends. Other configurations propagate the same way in
the lab (site) basis with complex H, where the pulse is the site swap.
Reported reduced states have the ideal system-only rotation exp(-i H_S t)
undone, so a perfectly protected qubit returns exactly to its initial
state; the site-swap pulse commutes with H_S, which makes that rotation
well defined with or without pulses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import kernel_table_from_modes
from .dynamics import DensityMatrixST, Trajectory, evolve_closed_form, trajectory_from_matrices
from .errors import ConfigError, InvariantError
from .numerics import TimeGrid
from .rates import build_rate_table_from_kernels

__all__ = [
    "TruncatedBathConfig",
    "PulseSchedule",
    "ohmic_mode_config",
    "build_hamiltonian",
    "lang_firsov_generator",
    "lang_firsov_check",
    "Propagator",
    "run_bangbang",
    "exact_decoherence_reference",
    "compare_with_master_equation",
    "trace_distance",
]

# largest Hilbert dimension TruncatedBathConfig accepts
DIM_CAP = 4096
# displaced-vacuum weight beyond n_max above which lang_firsov_check is
# inconclusive
TAIL_THRESHOLD = 1e-6
# upper edge of the frequency band ohmic_mode_config discretizes, in units of W
OMEGA_MAX = 4.0

# rows are <T|, <S| expressed in the site basis {|10>, |01>}
_ST_FROM_SITE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class TruncatedBathConfig:
    """Finite system + bath description.

    mode_freqs: bath frequencies omega_k (all > 0).
    g_site1, g_site2: complex coupling amplitude of each mode to site 1 / 2.
    n_max: Fock cutoff per mode (states 0..n_max).
    epsilon_onsite: onsite energy (an identity shift in the sector).
    j_hop: bare hopping J.

    Spaces larger than DIM_CAP are refused.
    """

    mode_freqs: tuple
    g_site1: tuple
    g_site2: tuple
    n_max: int
    j_hop: float
    epsilon_onsite: float = 0.0

    def __post_init__(self):
        freqs = tuple(float(w) for w in self.mode_freqs)
        g1 = tuple(complex(g) for g in self.g_site1)
        g2 = tuple(complex(g) for g in self.g_site2)
        if not freqs:
            raise ConfigError("at least one bath mode is required")
        if len(g1) != len(freqs) or len(g2) != len(freqs):
            raise ConfigError("couplings must have one entry per mode")
        for name in ("mode_freqs", "g_site1", "g_site2", "j_hop", "epsilon_onsite"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not all(w > 0 for w in freqs):
            raise ConfigError(f"mode frequencies must be > 0, got {freqs}")
        if self.n_max < 0:
            raise ConfigError(f"n_max must be >= 0, got {self.n_max}")
        object.__setattr__(self, "mode_freqs", freqs)
        object.__setattr__(self, "g_site1", g1)
        object.__setattr__(self, "g_site2", g2)
        if self.dim > DIM_CAP:
            raise ConfigError(f"Hilbert dimension {self.dim} exceeds cap {DIM_CAP}")

    @property
    def n_modes(self) -> int:
        return len(self.mode_freqs)

    @property
    def bath_dim(self) -> int:
        return (self.n_max + 1) ** self.n_modes

    @property
    def dim(self) -> int:
        return 2 * self.bath_dim

    def alphas(self) -> np.ndarray:
        """Displacement amplitudes alpha_k = (g_1k - g_2k) / omega_k."""
        return (np.array(self.g_site1) - np.array(self.g_site2)) / np.array(self.mode_freqs)

    def alpha_weights(self) -> np.ndarray:
        return np.abs(self.alphas()) ** 2

    def j_tilde(self) -> float:
        """Dressed hopping J * exp(-sum_k |alpha_k|^2 / 2)."""
        return self.j_hop * math.exp(-0.5 * float(self.alpha_weights().sum()))

    def delta_e_b(self) -> float:
        """Minimum bath excitation energy (smallest mode frequency)."""
        return min(self.mode_freqs)

    def induced_interaction(self) -> float:
        """Bath-mediated two-particle coupling sum_k 2 Re(g_1k* g_2k)/omega_k."""
        g1 = np.array(self.g_site1)
        g2 = np.array(self.g_site2)
        return float(np.sum(2.0 * (np.conj(g1) * g2).real / np.array(self.mode_freqs)))


def ohmic_mode_config(n_modes: int = 2, n_max: int = 6, coupling: float = 1.0,
                      s: float = math.pi, j_hop: float = 0.5,
                      epsilon_onsite: float = 0.0) -> TruncatedBathConfig:
    """Deterministic discretization of the Ohmic-Gaussian bath.

    Modes sit at omega_j = (j - 1/2) * domega on (0, OMEGA_MAX] with
    |g_j|^2 = coupling * omega_j * exp(-omega_j^2) * domega, and the site-2
    phase e^{-i omega_j s} implements the separation under linear
    dispersion. Refining domega converges to the continuum kernels.

    The default s = pi puts both default modes (omega = 1, 3) at
    omega * s = pi mod 2pi, where the symmetric (pulse-surviving) coupling
    g_1 + g_2 vanishes; that is the regime in which the pulse train's
    per-cycle error is purely second order, see run_bangbang.
    """
    dw = OMEGA_MAX / n_modes
    w = (np.arange(n_modes) + 0.5) * dw
    g_mag = np.sqrt(coupling * w * np.exp(-w * w) * dw)
    g1 = g_mag.astype(complex)
    g2 = g_mag * np.exp(-1j * w * s)
    return TruncatedBathConfig(
        mode_freqs=tuple(w), g_site1=tuple(g1), g_site2=tuple(g2),
        n_max=n_max, j_hop=j_hop, epsilon_onsite=epsilon_onsite,
    )


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def _bath_ladders(config: TruncatedBathConfig):
    """Occupation table of the bath basis and the ladder of every mode.

    Basis index idx = sum_k n_k * stride_k, mode 0 slowest (Kronecker order).
    Returns occ[k, idx] = n_k and, per mode, the indices with n_k >= 1, their
    lowered indices idx - stride_k and sqrt(n_k):
    b_k |idx> = sqrt(n_k) |idx - stride_k>.
    """
    d = config.n_max + 1
    strides = d ** np.arange(config.n_modes - 1, -1, -1)
    occ = np.arange(config.bath_dim) // strides[:, None] % d
    ladders = []
    for n, stride in zip(occ, strides):
        up = np.flatnonzero(n)
        ladders.append((up, up - stride, np.sqrt(n[up])))
    return occ, ladders


def _fill(mat: np.ndarray, ladders, particles: int, site_amps,
          adjoint_sign: float = 1.0) -> None:
    """mat += sum_{p,k} n_p (a_pk b_k + adjoint_sign * conj(a_pk) b_k^dag), in place.

    site_amps = (a_1k, a_2k). In the one-particle block, n_p selects site p's
    diagonal bath block of mat; in the two-particle block both sites act on
    all of mat.
    """
    db = len(mat) // 2
    blocks = (mat, mat) if particles == 2 else (mat[:db, :db], mat[db:, db:])
    for block, amps in zip(blocks, site_amps):
        for (up, down, root), a in zip(ladders, amps):
            block[down, up] += a * root
            block[up, down] += adjoint_sign * np.conj(a) * root


def build_hamiltonian(config: TruncatedBathConfig, particles: int = 1) -> np.ndarray:
    """Dense Hamiltonian of one fermion-number block.

    particles=1 (default): basis |site> (x) |Fock>, dimension 2 * bath_dim,
    H = eps*(n1+n2) + J*(site swap) + H_bath + site-conditioned couplings.
    particles=2: the single state |11> (x) |Fock>; hopping is Pauli blocked
    and both couplings add. particles=0: bare bath block.

    Block diagonality in total fermion number is structural (each block is
    built separately); Hermiticity is exact (mirror entries are conjugates).
    """
    if particles not in (0, 1, 2):
        raise ConfigError(f"particles must be 0, 1 or 2, got {particles}")
    occ, ladders = _bath_ladders(config)
    h_bath = sum(w * n for w, n in zip(config.mode_freqs, occ))
    diag = particles * config.epsilon_onsite + h_bath
    ham = np.diag(np.tile(diag, 2 if particles == 1 else 1).astype(complex))
    if particles == 1:
        r = np.arange(config.bath_dim)
        ham[r, r + config.bath_dim] = ham[r + config.bath_dim, r] = config.j_hop
    if particles:
        _fill(ham, ladders, particles, (config.g_site1, config.g_site2))
    return ham


def lang_firsov_generator(config: TruncatedBathConfig, particles: int = 1) -> np.ndarray:
    """Anti-Hermitian generator of the displacement transformation,
    S = -sum_{p,k} n_p (g_pk b_k - g_pk^* b_k^dag) / omega_k, in one block."""
    if particles not in (1, 2):
        raise ConfigError(f"particles must be 1 or 2, got {particles}")
    _, ladders = _bath_ladders(config)
    dim = config.dim if particles == 1 else config.bath_dim
    gen = np.zeros((dim, dim), dtype=complex)
    amps = [[-g / w for g, w in zip(gs, config.mode_freqs)]
            for gs in (config.g_site1, config.g_site2)]
    _fill(gen, ladders, particles, amps, adjoint_sign=-1.0)
    return gen


def _matmul(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m; a complex a times a real m is one real GEMM on the stacked real
    and imaginary parts of a, not a complex GEMM on a complex copy of m."""
    if np.iscomplexobj(m) or not np.iscomplexobj(a):
        return a @ m
    rows = a.reshape(-1, a.shape[-1])
    parts = np.concatenate([rows.real, rows.imag]) @ m
    out = np.empty((len(rows), m.shape[-1]), dtype=complex)
    out.real, out.imag = parts[:len(rows)], parts[len(rows):]
    return out.reshape(a.shape[:-1] + m.shape[-1:])


class Propagator:
    """exp(-i H t) for one Hermitian H, held as its eigendecomposition H = V E V^dag.

    A real (symmetric) H gives a real V, and every product with V is then a
    real GEMM; the dtype of H decides, not its values.
    """

    def __init__(self, ham: np.ndarray):
        ham = np.asarray(ham)
        with np.errstate(invalid="ignore"):  # inf - inf: reported below
            dev = float(np.max(np.abs(ham - ham.conj().T)))
        if not (dev <= 1e-12):
            raise ConfigError(
                f"exact propagation requires a finite Hermitian matrix "
                f"(max |H - H^dag| = {dev:.3e})"
            )
        self.energies, self.vectors = np.linalg.eigh(ham)

    def coefficients(self, psi: np.ndarray) -> np.ndarray:
        """Eigen-coefficients V^dag psi of states along the last axis."""
        return _matmul(np.asarray(psi).conj(), self.vectors).conj()  # no copy of V

    def states(self, coeffs: np.ndarray) -> np.ndarray:
        """State vectors V c of eigen-coefficients along the last axis."""
        return _matmul(coeffs, self.vectors.T)

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


def unitary_from_generator(s_matrix: np.ndarray) -> np.ndarray:
    """exp(S) for anti-Hermitian S: the propagator of H = iS at t = 1."""
    prop = Propagator(1j * s_matrix)
    return prop.evolve(np.eye(len(s_matrix)), 1.0).T  # row j is exp(S) e_j


@dataclass(frozen=True)
class LangFirsovReport:
    spectrum_max_dev: float
    hop_measured: float
    hop_expected: float
    truncation_tail: float
    suggested_n_max: int
    conclusive: bool
    two_particle_shift: float | None
    two_particle_expected: float | None

    @property
    def hop_error(self) -> float:
        return abs(self.hop_measured - self.hop_expected)


def _coherent_tail(weight: float, n_max: int) -> float:
    """Poisson weight beyond the Fock cutoff for a displacement of |alpha|^2 = weight."""
    term = math.exp(-weight)
    acc = term
    for n in range(1, n_max + 1):
        term *= weight / n
        acc += term
    return max(0.0, 1.0 - acc)


def lang_firsov_check(config: TruncatedBathConfig,
                      include_two_particle: bool = True) -> LangFirsovReport:
    """Numerical verification of the displacement transformation.

    Checks, on the truncated space: (i) the spectrum is invariant under the
    similarity transform exp(S) H exp(-S); (ii) the vacuum matrix element of
    the transformed hopping has magnitude J exp(-sum|alpha_k|^2 / 2); and
    optionally (iii) the two-particle block's vacuum energy carries the
    polaron shift -sum_k (|g_1k|^2 + |g_2k|^2)/omega_k minus the induced
    interaction. A Poisson estimate of the displaced-vacuum weight beyond
    n_max qualifies the result: above TAIL_THRESHOLD the report is marked
    inconclusive and suggests a larger cutoff.
    """
    ham = build_hamiltonian(config)
    gen = lang_firsov_generator(config)
    u = unitary_from_generator(gen)
    transformed = u @ ham @ u.conj().T
    spectrum_dev = float(np.max(np.abs(
        np.sort(np.linalg.eigvalsh(ham)) - np.sort(np.linalg.eigvalsh(transformed))
    )))

    db = config.bath_dim
    hop_measured = float(np.abs(transformed[0, db]))  # <site1, vac| H' |site2, vac>
    hop_expected = abs(config.j_tilde())

    tail = float(sum(_coherent_tail(wk, config.n_max) for wk in config.alpha_weights()))
    suggested = config.n_max
    while tail > TAIL_THRESHOLD and suggested < 60:
        suggested += 2
        tail_try = sum(_coherent_tail(wk, suggested) for wk in config.alpha_weights())
        if tail_try <= TAIL_THRESHOLD:
            break

    two_shift = two_expected = None
    if include_two_particle:
        ham2 = build_hamiltonian(config, particles=2)
        gen2 = lang_firsov_generator(config, particles=2)
        u2 = unitary_from_generator(gen2)
        transformed2 = u2 @ ham2 @ u2.conj().T
        two_shift = float(transformed2[0, 0].real)
        g1 = np.array(config.g_site1)
        g2 = np.array(config.g_site2)
        w = np.array(config.mode_freqs)
        two_expected = float(
            2.0 * config.epsilon_onsite
            - np.sum((np.abs(g1) ** 2 + np.abs(g2) ** 2) / w)
            - config.induced_interaction()
        )

    return LangFirsovReport(
        spectrum_max_dev=spectrum_dev,
        hop_measured=hop_measured,
        hop_expected=hop_expected,
        truncation_tail=tail,
        suggested_n_max=suggested,
        conclusive=tail <= TAIL_THRESHOLD,
        two_particle_shift=two_shift,
        two_particle_expected=two_expected,
    )


# ---------------------------------------------------------------------------
# States and propagation
# ---------------------------------------------------------------------------

_SITE_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class _Frame:
    """Basis the oracle propagates in: two bath blocks of dim / 2 states each.

    ham: H in this basis; pulse: the pi pulse as a 2x2 acting on the block
    index; from_site: block amplitudes of a site-basis pair (|1>, |2>);
    to_st: [T, S] amplitudes of a block pair.
    """

    ham: np.ndarray
    pulse: np.ndarray
    from_site: np.ndarray
    to_st: np.ndarray


def _gauge_angles(config: TruncatedBathConfig):
    """theta_k = -(arg g_1k + arg g_2k) / 2 when |g_1k| = |g_2k| for every
    mode, to a few ulp (ohmic_mode_config leaves differences of 1e-16);
    None otherwise."""
    g1, g2 = np.array(config.g_site1), np.array(config.g_site2)
    m1, m2 = np.abs(g1), np.abs(g2)
    if np.any(np.abs(m1 - m2) > 4.0 * np.finfo(float).eps * np.maximum(m1, m2)):
        return None
    return -0.5 * (np.angle(g1) + np.angle(g2))


def _frame(config: TruncatedBathConfig) -> _Frame:
    """The real symmetric frame of the module docstring when the couplings
    allow it, else the lab (site) basis with the complex H."""
    ham = build_hamiltonian(config)
    theta = _gauge_angles(config)
    if theta is None:
        return _Frame(ham=ham, pulse=_SITE_SWAP, from_site=np.eye(2),
                      to_st=_ST_FROM_SITE)
    db = config.bath_dim
    occ, _ = _bath_ladders(config)
    phi = theta @ occ  # gauge phase of every bath basis state
    a = ham[:db, :db] * np.exp(1j * (phi[None, :] - phi[:, None]))
    hop = ham[:db, db:].real  # J * I; the gauge acts alike on both sites
    real = np.block([[a.real + hop, -a.imag], [a.imag, a.real - hop]])
    return _Frame(ham=real, pulse=np.diag([1.0, -1.0]),
                  from_site=np.array([[1.0, 1.0], [-1j, 1j]]) / math.sqrt(2.0),
                  to_st=np.diag([1.0, 1j]))


def _on_blocks(m: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """The 2x2 m applied to the block index of amplitude vectors along the
    last axis; the bath index is untouched."""
    blocks = amps.reshape(*amps.shape[:-1], 2, amps.shape[-1] // 2)
    return (m @ blocks).reshape(amps.shape)


def _vacuum_state(block_amps, bath_dim: int) -> np.ndarray:
    """Normalized block amplitude pairs (along the last axis) times the bath
    vacuum, as vectors of length 2 * bath_dim."""
    amps = np.asarray(block_amps, dtype=complex)
    norm = np.linalg.norm(amps, axis=-1)
    if np.any(np.abs(norm - 1.0) > 1e-10):
        raise InvariantError(f"state norm {norm} deviates from 1 beyond 1e-10")
    vec = np.zeros(amps.shape[:-1] + (2 * bath_dim,), dtype=complex)
    vec[..., 0], vec[..., bath_dim] = amps[..., 0], amps[..., 1]
    return vec


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) * sum |eigenvalues(rho - sigma)| for Hermitian arguments."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


@dataclass(frozen=True)
class PulseSchedule:
    """N two-pulse cycles of spacing delta_t covering total_time = 2 N delta_t.

    Each cycle is pulse (free for delta_t) pulse (free for delta_t), i.e.
    the operator U(delta_t) Pi U(delta_t) Pi with Pi acting first, so a
    cycle spans 2 delta_t; the pulses themselves take no time.
    """

    total_time: float
    cycles: int

    def __post_init__(self):
        if self.cycles < 1:
            raise ConfigError(f"cycles must be >= 1, got {self.cycles}")
        if not self.total_time > 0:
            raise ConfigError(f"total_time must be > 0, got {self.total_time}")

    @property
    def delta_t(self) -> float:
        return self.total_time / (2 * self.cycles)


def _ideal_rotation(config: TruncatedBathConfig, t) -> np.ndarray:
    """Diagonal of exp(+i H_S t) in the [T, S] basis, shape np.shape(t) + (2,);
    H_S is diagonal there with eigenvalues eps + J (triplet) and eps - J
    (singlet)."""
    energies = np.array([config.epsilon_onsite + config.j_hop,
                         config.epsilon_onsite - config.j_hop])
    return np.exp(1j * np.multiply.outer(t, energies))


def _initial_site_branches(rho0: DensityMatrixST):
    """Convex decomposition of rho0 as site-basis state vectors."""
    rho_site = _ST_FROM_SITE.conj().T @ rho0.matrix() @ _ST_FROM_SITE
    weights, vecs = np.linalg.eigh(rho_site)
    return [(float(p), vecs[:, i]) for i, p in enumerate(weights) if p > 1e-14]


def _reduced_st_series(amp_series: np.ndarray, to_st: np.ndarray) -> np.ndarray:
    """[T, S] reduced density matrices of a stack of states (leading axis),
    whose two blocks map to [T, S] amplitudes by to_st."""
    a = amp_series.reshape(amp_series.shape[0], 2, -1)
    rho_block = np.einsum("tpm,tqm->tpq", a, a.conj())
    return np.einsum("ip,tpq,jq->tij", to_st, rho_block, to_st.conj())


@dataclass(frozen=True)
class BangBangResult:
    delta_t: float
    n_cycles: int
    distance_pulsed: float
    distance_free: float


@dataclass(frozen=True)
class BangBangReport:
    config: TruncatedBathConfig
    total_time: float
    results: tuple
    fitted_slope: float | None

    def to_csv(self, path):
        from .output import format_number, write_csv

        cfg = self.config
        header_comment = (
            f"# config: n_modes={cfg.n_modes} n_max={cfg.n_max} "
            f"j_hop={format_number(cfg.j_hop)} eps={format_number(cfg.epsilon_onsite)} "
            f"freqs={','.join(format_number(w) for w in cfg.mode_freqs)} "
            f"T={format_number(self.total_time)}"
        )
        slope = self.fitted_slope if self.fitted_slope is not None else float("nan")
        write_csv(
            path,
            ["delta_t", "n_cycles", "trace_distance_pulsed", "trace_distance_free",
             "fitted_slope"],
            [[r.delta_t for r in self.results],
             [r.n_cycles for r in self.results],
             [r.distance_pulsed for r in self.results],
             [r.distance_free for r in self.results],
             [slope] * len(self.results)],
            comments=[header_comment],
        )


def run_bangbang(config: TruncatedBathConfig, rho0: DensityMatrixST,
                 schedules) -> BangBangReport:
    """Pulse-train protection runs over one or more schedules.

    Each branch vector of rho0 evolves through N cycles U(dt) Pi U(dt) Pi
    (the pulse Pi acts first) and, once for all schedules, freely for the
    same total time; both reduced states are compared to rho0 after undoing
    the ideal rotation.
    With at least three schedules of a common total time, a log-log fit of
    the pulsed distance against delta_t estimates the scaling exponent
    (2 for a purely second-order per-cycle error accumulated over T/(2 dt)
    cycles).
    """
    if isinstance(schedules, PulseSchedule):
        schedules = [schedules]
    schedules = list(schedules)
    if not schedules:
        raise ConfigError("at least one schedule is required")
    total_times = {s.total_time for s in schedules}
    if len(total_times) != 1:
        raise ConfigError("all schedules must share one total_time for the scaling fit")
    total_time = schedules[0].total_time

    frame = _frame(config)
    prop = Propagator(frame.ham)
    rho0_matrix = rho0.matrix()
    branches = _initial_site_branches(rho0)
    psi0 = _vacuum_state([frame.from_site @ vec for _, vec in branches], config.bath_dim)
    undo = _ideal_rotation(config, total_time)

    def distance(psi):
        reduced = _reduced_st_series(psi, frame.to_st)
        rho = sum(p * r for (p, _), r in zip(branches, reduced))
        return trace_distance(undo[:, None] * rho * undo.conj(), rho0_matrix)

    distance_free = distance(prop.evolve(psi0, total_time))
    c0 = prop.coefficients(psi0)
    # row j of pulse_t is the coefficients of Pi v_j: (V^dag Pi V)^T
    pulse_t = prop.coefficients(_on_blocks(frame.pulse, prop.vectors.T))
    results = []
    for sched in schedules:
        dt = sched.delta_t
        free = prop.phases(dt)
        c = c0
        for _ in range(2 * sched.cycles):
            c = free * _matmul(c, pulse_t)
        results.append(BangBangResult(
            delta_t=dt, n_cycles=sched.cycles,
            distance_pulsed=distance(prop.states(c)), distance_free=distance_free,
        ))
    results.sort(key=lambda r: r.delta_t)

    slope = None
    positive = [r for r in results if r.distance_pulsed > 0.0]
    if len(positive) >= 3:
        slope = float(np.polyfit(
            np.log([r.delta_t for r in positive]),
            np.log([r.distance_pulsed for r in positive]), 1,
        )[0])
    return BangBangReport(config=config, total_time=total_time,
                          results=tuple(results), fitted_slope=slope)


@dataclass(frozen=True)
class ExactReference:
    trajectory: Trajectory
    j_tilde: float
    delta_e_b: float

    @property
    def adiabaticity_ratio(self) -> float:
        """Dressed hopping over minimum bath gap; the time-local rate
        treatment is trustworthy well below 1."""
        return self.j_tilde / self.delta_e_b


def exact_decoherence_reference(config: TruncatedBathConfig, rho0: DensityMatrixST,
                                grid: TimeGrid) -> ExactReference:
    """Pulse-free reduced trajectory from the exact model, on grid.

    The bath starts in its vacuum; mixed initial qubit states are evolved
    branch by branch and recombined (exact for linear evolution). States are
    reported with the ideal rotation undone, which leaves the coherence
    magnitude and populations untouched.
    """
    frame = _frame(config)
    prop = Propagator(frame.ham)
    t = grid.points
    rho_t = np.zeros((len(t), 2, 2), dtype=complex)
    for p, vec in _initial_site_branches(rho0):
        psi0 = _vacuum_state(frame.from_site @ vec, config.bath_dim)
        rho_t += p * _reduced_st_series(prop.evolve(psi0, t), frame.to_st)
    d = _ideal_rotation(config, t)
    rho_t = d[:, :, None] * rho_t * d.conj()[:, None, :]
    # t = 0 is the input itself, so a zero rho_ST(0) stays exactly zero and the
    # coherence is normalized (or not) as the input decides
    rho_t[0] = rho0.matrix()
    traj = trajectory_from_matrices(grid, rho_t)
    return ExactReference(trajectory=traj, j_tilde=config.j_tilde(),
                          delta_e_b=config.delta_e_b())


@dataclass(frozen=True)
class MasterEquationComparison:
    exact: Trajectory
    master: Trajectory
    rms_coherence_diff: float
    j_tilde: float
    delta_e_b: float

    @property
    def adiabaticity_ratio(self) -> float:
        return self.j_tilde / self.delta_e_b


def compare_with_master_equation(config: TruncatedBathConfig, rho0: DensityMatrixST,
                                 grid: TimeGrid) -> MasterEquationComparison:
    """Exact trajectory against the rate-equation one, apples to apples.

    The master-equation side is driven by the discrete-mode kernels of the
    very same configuration (mode sum instead of continuum integral), so the
    residual is Markovian/weak-dressing error rather than discretization
    error.
    """
    exact = exact_decoherence_reference(config, rho0, grid)
    kernels = kernel_table_from_modes(config.mode_freqs, config.alpha_weights(), grid)
    rates = build_rate_table_from_kernels(kernels, config.j_hop)
    master = evolve_closed_form(rho0, rates)
    rms = float(np.sqrt(np.mean(
        (exact.trajectory.coherence - master.coherence) ** 2
    )))
    return MasterEquationComparison(
        exact=exact.trajectory, master=master, rms_coherence_diff=rms,
        j_tilde=exact.j_tilde, delta_e_b=exact.delta_e_b,
    )

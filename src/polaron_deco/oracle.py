"""Exact reference simulator: two sites coupled to a handful of truncated
bosonic modes, solved without approximation on the truncated space.

Serves three jobs that the master-equation pipeline cannot certify for
itself: numerical verification of the displacement (polaron) transformation,
a brute-force decoherence reference in the anti-adiabatic regime, and the
pulse-train (bang-bang) protection protocol with measured error scaling.

Everything is restricted to the single-particle sector (plus an optional
two-particle block for the induced interaction check), so the Hilbert space
is 2 * (n_max + 1)^n_modes and dense operators are cheap.

Operators are filled from one occupation table of the bath basis (mode 0
slowest, the Kronecker order): H_bath is a diagonal, and each coupling or
displacement writes a * sqrt(n_k) at one lowered index pair per mode and
basis state, with its adjoint at the mirror position.

exp(-i H t) has one route, ChebyshevPropagator: a Chebyshev series in H,
in the lab (site) basis, applied through its nonzero diagonals, with no
eigenbasis. A time series from one state (exact_decoherence_reference) is
propagated and reduced to 2x2 states in slices of at most CHUNK time points,
and the series terms are held in blocks of at most CHUNK, so only
O(CHUNK x dim) amplitudes are ever held. Pulse trains (run_bangbang) stack
the branch rows of every schedule and advance them in lockstep, one series
per half cycle over the rows still active, each row by its own delta_t; the
pi pulse is the site swap. The displacement check needs the whole unitary
exp(S) and takes it from one eigh (unitary_from_generator): a matrix
exponential, not a propagation route. The tests hold the series to
eigendecompositions of the same H.

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
    "ChebyshevPropagator",
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
# time points per slice that exact_decoherence_reference propagates and
# reduces at once, and Chebyshev terms per block, so its memory is
# O(CHUNK * dim) whatever the grid length
CHUNK = 128
# largest radius * (slice span) of a slice with more than one time point;
# its Chebyshev series then has at most CHUNK terms (117 at the cap)
SPAN_CAP = CHUNK / 2
# a Chebyshev series stops at the first term whose bound on |J_k| is below this
SERIES_TOL = 1e-16

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


def _require_hermitian(dev: float) -> None:
    """ConfigError unless max |H - H^dag| = dev is at most 1e-12; a
    non-finite H gives a NaN dev, which fails too."""
    if not (dev <= 1e-12):
        raise ConfigError(
            f"exact propagation requires a finite Hermitian matrix "
            f"(max |H - H^dag| = {dev:.3e})"
        )


def _series_length(x: float) -> int:
    """Terms k = 0, 1, ... a Chebyshev series at x = r tau keeps: all before
    the first whose bound (x/2)^k / k! on |J_k(x)| is below SERIES_TOL."""
    if x == 0.0:
        return 1
    log_bound, k = 0.0, 0
    while log_bound >= math.log(SERIES_TOL):
        k += 1
        log_bound += math.log(0.5 * x / k)  # in logs: the bound overflows near k = x/2
    return k


def _bessel_coefficients(x: np.ndarray, n_terms: int) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(x) for k < n_terms, one row per x.

    These are the cosine coefficients of exp(-i x cos theta) (Jacobi-Anger),
    read off an FFT of n >= 2 n_terms samples: the orders that alias onto
    k < n_terms are beyond n_terms, where |J_k(x)| is below the bound.
    """
    n = 1 << (2 * n_terms - 1).bit_length()
    theta = 2.0 * math.pi * np.arange(n) / n
    coef = np.fft.fft(np.exp(-1j * np.multiply.outer(x, np.cos(theta))))[:, :n_terms] / n
    coef[:, 1:] *= 2.0
    return coef


class ChebyshevPropagator:
    """exp(-i H t) psi over a time series for one Hermitian H, with no
    eigenbasis (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).

    Gershgorin puts the spectrum in [center - radius, center + radius], and
    exp(-i H tau) = exp(-i center tau) sum_k (2 - delta_k0) (-i)^k
    J_k(radius tau) T_k((H - center) / radius). The Chebyshev vectors
    T_k psi come from the three-term recurrence, and H enters only through
    products with its nonzero diagonals.
    """

    def __init__(self, ham: np.ndarray):
        ham = np.asarray(ham)
        self.dim = n = len(ham)
        nonzero = np.flatnonzero(ham)
        diagonals = {int(o): np.diagonal(ham, o)
                     for o in np.union1d(nonzero % n - nonzero // n, [0])}
        with np.errstate(invalid="ignore"):  # inf - inf
            _require_hermitian(float(np.max(
                [np.max(np.abs(d - np.conj(diagonals.get(-o, 0.0))))
                 for o, d in diagonals.items()])))
        # off-diagonal absolute row sums, each diagonal added to the rows it touches
        radii = np.zeros(n)
        for o, d in diagonals.items():
            if o:
                radii[max(0, -o):n - max(0, o)] += np.abs(d)
        main = diagonals[0].real
        low, high = float(np.min(main - radii)), float(np.max(main + radii))
        self.center, self.radius = 0.5 * (high + low), 0.5 * (high - low)
        # the diagonals of 2 (H - center) / radius, the recurrence's step; with
        # radius 0 every series has one term and the step is never taken
        scale = 2.0 / self.radius if self.radius > 0.0 else 0.0
        self._bands = [(o, scale * (d - self.center) if o == 0 else scale * d)
                       for o, d in diagonals.items()]

    def _step(self, x: np.ndarray, out: np.ndarray) -> None:
        """out += 2 (H - center) x / radius for states along the last axis."""
        n = self.dim
        for o, d in self._bands:
            if o >= 0:
                out[..., :n - o] += d * x[..., o:]
            else:
                out[..., -o:] += d * x[..., :n + o]

    def _chebyshev_blocks(self, psi: np.ndarray, n_terms: int):
        """Yield (k0, block): block[i] = T_{k0 + i}((H - center) / radius) psi,
        blocks of at most CHUNK terms, so the series is never held whole."""
        block = np.empty((min(CHUNK, n_terms),) + psi.shape, dtype=complex)
        prev = cur = None
        for k in range(n_terms):
            row = block[k % CHUNK]  # prev and cur are the two rows before it
            if k == 0:
                row[...] = psi
            elif k == 1:
                row[...] = 0.0
                self._step(psi, row)
                row *= 0.5
            else:
                np.negative(prev, out=row)
                self._step(cur, row)
            prev, cur = cur, row
            if k % CHUNK == len(block) - 1 or k == n_terms - 1:
                yield k - k % CHUNK, block[:k % CHUNK + 1]

    def coefficients(self, tau) -> np.ndarray:
        """Series coefficients of exp(-i H tau), one row per entry of the 1-d
        tau, with as many terms as the largest radius * tau needs."""
        tau = np.asarray(tau, dtype=float)
        x = self.radius * tau
        coef = _bessel_coefficients(x, _series_length(float(np.max(x))))
        return coef * np.exp(-1j * self.center * tau)[:, None]

    def evolve(self, psi: np.ndarray, tau) -> np.ndarray:
        """exp(-i H tau) psi for every tau, shape np.shape(tau) + psi.shape:
        one Chebyshev series, summed by one product per block of terms."""
        psi = np.asarray(psi, dtype=complex)
        tau = np.asarray(tau, dtype=float)
        coef = self.coefficients(tau.ravel())
        out = np.zeros((len(coef), psi.size), dtype=complex)
        for k0, block in self._chebyshev_blocks(psi, coef.shape[1]):
            out += coef[:, k0:k0 + len(block)] @ block.reshape(len(block), -1)
        return out.reshape(tau.shape + psi.shape)

    def evolve_rows(self, psi: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """exp(-i H tau_r) psi_r for every row r of the 2-d psi, each by its
        own tau_r, given coef = coefficients(tau): one series for all rows."""
        psi = np.asarray(psi, dtype=complex)
        out = np.zeros_like(psi)
        for k0, block in self._chebyshev_blocks(psi, coef.shape[1]):
            out += np.einsum("rk,krd->rd", coef[:, k0:k0 + len(block)], block)
        return out

    def series(self, psi: np.ndarray, t):
        """Yield (ts, exp(-i H (ts - t[0])) psi) over consecutive equal slices
        ts of the increasing times t, each of at most CHUNK points.

        Each slice is one series from the previous slice's last state. A
        slice spans at most SPAN_CAP / radius, so that its series has at
        most CHUNK terms; only a single step longer than that takes more,
        still generated in blocks of CHUNK.
        """
        t = np.asarray(t, dtype=float)
        width = self.radius * float(np.max(np.diff(t), initial=0.0))
        per_slice = CHUNK if width * CHUNK <= SPAN_CAP else max(1, int(SPAN_CAP / width))
        anchor_t, anchor = t[0], np.asarray(psi, dtype=complex)
        for ts in np.array_split(t, -(-len(t) // per_slice)):
            states = self.evolve(anchor, ts - anchor_t)
            yield ts, states
            anchor_t, anchor = ts[-1], states[-1]


def unitary_from_generator(s_matrix: np.ndarray) -> np.ndarray:
    """exp(S) for anti-Hermitian S, from one eigh of the Hermitian iS = V E V^dag:
    exp(S) = V exp(-i E) V^dag. The transform check needs the whole unitary."""
    energies, vectors = np.linalg.eigh(1j * s_matrix)
    return (vectors * np.exp(-1j * energies)) @ vectors.conj().T


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

def _site_swap(amps: np.ndarray) -> np.ndarray:
    """The pi pulse: the site-1 and site-2 halves of amplitude vectors along
    the last axis exchanged; the bath index is untouched."""
    halves = amps.reshape(*amps.shape[:-1], 2, amps.shape[-1] // 2)
    return halves[..., ::-1, :].reshape(amps.shape)


def _vacuum_state(site_amps, bath_dim: int) -> np.ndarray:
    """Normalized site amplitude pairs (along the last axis) times the bath
    vacuum, as vectors of length 2 * bath_dim."""
    amps = np.asarray(site_amps, dtype=complex)
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
        if not (math.isfinite(self.total_time) and self.total_time > 0):
            raise ConfigError(f"total_time must be finite and > 0, got {self.total_time}")

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


def _reduced_st_series(amp_series: np.ndarray) -> np.ndarray:
    """[T, S] reduced density matrices of a stack of site-basis states
    (leading axis)."""
    a = amp_series.reshape(amp_series.shape[0], 2, -1)
    rho_site = np.einsum("tpm,tqm->tpq", a, a.conj())
    return np.einsum("ip,tpq,jq->tij", _ST_FROM_SITE, rho_site, _ST_FROM_SITE.conj())


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
    All schedules run in lockstep: their branch rows are stacked, longest
    schedule first, and every half cycle swaps the sites of the rows that
    still have steps left and advances them by one Chebyshev series, each
    row by its own dt (ChebyshevPropagator.evolve_rows). So a run takes
    2 * max(N) series rather than 2 * sum(N), and the series coefficients
    are built once per active-row count.
    The cost grows with radius * total_time (a series over dt has about
    radius * dt terms), where an eigendecomposition would cost one fixed
    dim^3; at the CLI default T = 4 the series is the faster of the two.
    Results come sorted by delta_t.
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

    prop = ChebyshevPropagator(build_hamiltonian(config))
    rho0_matrix = rho0.matrix()
    branches = _initial_site_branches(rho0)
    psi0 = _vacuum_state([vec for _, vec in branches], config.bath_dim)
    undo = _ideal_rotation(config, total_time)

    def distance(psi):
        rho = sum(p * r for (p, _), r in zip(branches, _reduced_st_series(psi)))
        return trace_distance(undo[:, None] * rho * undo.conj(), rho0_matrix)

    distance_free = distance(prop.evolve(psi0, total_time))
    # one block of branch rows per schedule, longest first, so the rows that
    # still take a half cycle at step k are always a prefix
    schedules.sort(key=lambda s: -s.cycles)
    nb = len(psi0)
    psi = np.tile(psi0, (len(schedules), 1))
    delta_t = np.repeat([s.delta_t for s in schedules], nb)
    half_cycles = np.repeat([2 * s.cycles for s in schedules], nb)
    coef = None
    for k in range(half_cycles[0]):
        n = np.count_nonzero(half_cycles > k)
        if coef is None or len(coef) != n:  # once per active-row count
            coef = prop.coefficients(delta_t[:n])
        psi[:n] = prop.evolve_rows(_site_swap(psi[:n]), coef)
    results = [BangBangResult(
        delta_t=s.delta_t, n_cycles=s.cycles, distance_free=distance_free,
        distance_pulsed=distance(psi[i * nb:(i + 1) * nb]),
    ) for i, s in enumerate(schedules)]
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
    branch by branch (all branches in one series) and recombined (exact for
    linear evolution). The grid is propagated by ChebyshevPropagator.series
    and reduced slice by slice. States are reported with the ideal rotation
    undone, which leaves the coherence magnitude and populations untouched.
    """
    t = grid.points
    branches = _initial_site_branches(rho0)
    psi0 = _vacuum_state([vec for _, vec in branches], config.bath_dim)
    rho_t = np.concatenate([
        sum(p * _reduced_st_series(states[:, b]) for b, (p, _) in enumerate(branches))
        for _, states in ChebyshevPropagator(build_hamiltonian(config)).series(psi0, t)])
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

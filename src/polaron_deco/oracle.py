"""Exact reference simulator: two sites coupled to a handful of truncated
bosonic modes, solved without approximation on the truncated space.

Serves three jobs that the master-equation pipeline cannot certify for
itself: numerical verification of the displacement (polaron) transformation,
a brute-force decoherence reference in the anti-adiabatic regime, and the
pulse-train (bang-bang) protection protocol with measured error scaling.

Everything is restricted to the one-particle sector, the paper's fixed
particle number, so the Hilbert space is 2 * (n_max + 1)^n_modes.

Operators are BandedOperators, written from one occupation table of the
bath basis (mode 0 slowest, the Kronecker order): H_bath is the main
diagonal, the hopping J sits at offsets +-bath_dim, and each coupling or
displacement writes a * sqrt(n_k) on the diagonal at +stride_k of its
mode, with its adjoint on the mirror diagonal. No dense matrix is built.

exp(-i H t) has one route, ChebyshevPropagator: a Chebyshev series in H,
in the lab (site) basis, applied through its bands, with no eigenbasis. A
time series from one state (exact_decoherence_reference) is propagated and
reduced to 2x2 states in slices of at most CHUNK time points, and the
series terms are held in blocks of at most CHUNK, so only O(CHUNK x dim)
amplitudes are ever held. Pulse trains (run_bangbang) run one schedule
at a time, one series per half cycle on the branch rows of rho0, from one
table of series coefficients per schedule; the pi pulse is the site swap.
The displacement check (lang_firsov_check) needs only exp(-S) applied to
vacuum states, which the same series gives on the Hermitian -iS at
tau = 1. The tests hold the series to eigendecompositions of
Kronecker-product builds of the same H.

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
from .errors import ConfigError, InvariantError, NumericalError
from .numerics import TimeGrid
from .rates import build_rate_table_from_kernels

__all__ = [
    "TruncatedBathConfig",
    "PulseSchedule",
    "ohmic_mode_config",
    "build_hamiltonian",
    "lang_firsov_check",
    "BandedOperator",
    "ChebyshevPropagator",
    "run_bangbang",
    "exact_decoherence_reference",
    "compare_with_master_equation",
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
# largest Bessel table (time points x FFT length) ChebyshevPropagator.coefficients
# builds, the CHUNK x DIM_CAP amplitudes of one series block; a longer series
# (radius * tau beyond ~1.9e5 for a single time) raises NumericalError
BESSEL_CAP = CHUNK * DIM_CAP

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
        _check_dim(len(freqs), self.n_max)

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


def _check_dim(n_modes: int, n_max: int) -> None:
    """ConfigError when 2 (n_max + 1)^n_modes exceeds DIM_CAP. The product
    stops at the cap, so a huge n_modes is refused before anything of its
    length is allocated."""
    dim = 2
    for _ in range(n_modes if n_max > 0 else 0):
        dim *= n_max + 1
        if dim > DIM_CAP:
            raise ConfigError(f"Hilbert dimension 2*{n_max + 1}**{n_modes} "
                              f"exceeds cap {DIM_CAP}")


def ohmic_mode_config(n_modes: int = 2, n_max: int = 6, coupling: float = 1.0,
                      s: float = math.pi, j_hop: float = 0.5) -> TruncatedBathConfig:
    """Deterministic discretization of the Ohmic-Gaussian bath.

    Modes sit at omega_j = (j - 1/2) * domega on (0, OMEGA_MAX] with
    |g_j|^2 = coupling * omega_j * exp(-omega_j^2) * domega, and the site-2
    phase e^{-i omega_j s} implements the separation under linear
    dispersion. This is not the paper's spectral density: per mode,
    |alpha_j|^2 = 2 coupling exp(-omega_j^2) (1 - cos(omega_j s)) domega /
    omega_j, not 2 lambda omega_j exp(-omega_j^2) (1 - sinc(omega_j s))
    domega, so refining domega does not converge to the continuum kernels
    (summed over 2048 modes at s = 1 and coupling = lambda = 0.1, K_c(0) is
    0.0461 against the continuum's 0.0151).

    The default s = pi puts both default modes (omega = 1, 3) at
    omega * s = pi mod 2pi, where the symmetric (pulse-surviving) coupling
    g_1 + g_2 vanishes; that is the regime in which the pulse train's
    per-cycle error is purely second order, see run_bangbang.

    A coupling so large that some |g_j|^2 is not finite is refused.
    """
    if n_modes < 1:
        raise ConfigError("at least one bath mode is required")
    _check_dim(n_modes, n_max)  # before anything of length n_modes
    dw = OMEGA_MAX / n_modes
    w = (np.arange(n_modes) + 0.5) * dw
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        g_sq = coupling * w * np.exp(-w * w) * dw
    if not np.isfinite(g_sq).all():
        raise ConfigError(f"coupling {coupling:.6g} gives a non-finite mode coupling "
                          f"|g_j|^2 = coupling * omega_j exp(-omega_j^2) domega")
    g_mag = np.sqrt(g_sq)
    g1 = g_mag.astype(complex)
    g2 = g_mag * np.exp(-1j * w * s)
    return TruncatedBathConfig(
        mode_freqs=tuple(w), g_site1=tuple(g1), g_site2=tuple(g2),
        n_max=n_max, j_hop=j_hop,
    )


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def _bath_ladders(config: TruncatedBathConfig):
    """Occupation table of the bath basis and the ladder stride of every mode.

    Basis index idx = sum_k n_k * stride_k, mode 0 slowest (Kronecker order).
    Returns occ[k, idx] = n_k and stride_k: b_k |idx> = sqrt(n_k) |idx - stride_k>.
    """
    d = config.n_max + 1
    strides = d ** np.arange(config.n_modes - 1, -1, -1)
    return np.arange(config.bath_dim) // strides[:, None] % d, strides


class BandedOperator:
    """A square matrix held as its diagonals that have a nonzero entry, plus
    the main diagonal: bands = {offset: diagonal} in ascending offset order,
    the diagonal at offset o holding the entries [r, r + o], as
    np.diagonal(matrix, o) would.

    Products have one path, _apply: the main diagonal times x (less an
    optional term), then each off-diagonal band multiplied into a scratch
    buffer and added to the rows it touches, all in place. The rows and
    entries of each band are sliced once per operator; _operands binds
    them to given buffers, so that a caller reusing its buffers (the
    Chebyshev recurrence) also reuses the views.
    """

    def __init__(self, bands: dict, dim: int):
        self.bands = dict(sorted({0: np.zeros(dim, dtype=complex), **bands}.items()))
        self.shape = (dim, dim)
        # (diagonal, rows it writes, entries of x it reads) per off-diagonal band
        self._off = [(d, slice(max(0, -o), dim - max(0, o)), slice(max(0, o), dim - max(0, -o)))
                     for o, d in self.bands.items() if o]

    def toarray(self) -> np.ndarray:
        """The dense matrix (for references and tests; no route needs it)."""
        return sum(np.diag(d, o) for o, d in self.bands.items())

    def _operands(self, x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> list:
        """(diagonal, out rows, tmp rows, x entries) views of every
        off-diagonal band, for states along the last axis of the buffers."""
        return [(d, out[..., rows], tmp[..., rows], x[..., cols]) for d, rows, cols in self._off]

    def _apply(self, x: np.ndarray, out: np.ndarray, minus, operands: list) -> np.ndarray:
        """out = (this matrix) x - minus (minus None for none), with operands
        from _operands(x, out, tmp); returns out."""
        np.multiply(self.bands[0], x, out=out)
        if minus is not None:
            np.subtract(out, minus, out=out)
        for d, rows, scratch, entries in operands:
            np.multiply(d, entries, out=scratch)
            np.add(rows, scratch, out=rows)
        return out

    def product(self, x: np.ndarray) -> np.ndarray:
        """(this matrix) x for states along the last axis, as a new array."""
        out = np.empty(np.shape(x), dtype=complex)
        return self._apply(x, out, None, self._operands(x, out, np.empty_like(out)))


def _banded(config: TruncatedBathConfig, site_amps, eps: float, freqs,
            hop: float) -> BandedOperator:
    """eps + sum_k freqs_k n_k on the main diagonal, plus
    sum_{p,k} n_p (a_pk b_k + conj(a_pk) b_k^dag) with site_amps =
    (a_1k, a_2k), plus hop times the site swap: a Hermitian operator on the
    one-particle block, as bands.

    a_pk b_k writes a_pk sqrt(n_k + 1) at offset +stride_k on every row of
    site p's bath block with n_k < n_max, its adjoint the mirror entry at
    -stride_k.
    """
    occ, strides = _bath_ladders(config)
    db = config.bath_dim
    bands = {0: np.tile(eps + sum(w * n for w, n in zip(freqs, occ)), 2).astype(complex)}
    for k, (n, stride) in enumerate(zip(occ, strides)):
        raised = np.flatnonzero(n < config.n_max)
        root = np.sqrt(n[raised] + 1.0)
        up, down = np.zeros((2, 2 * db), dtype=complex)
        for p, amps in enumerate(site_amps):
            up[raised + db * p] += amps[k] * root
            down[raised + db * p] += np.conj(amps[k]) * root
        if np.any(up):
            bands[stride], bands[-stride] = up[:-stride], down[:-stride]
    if hop:
        bands[db] = bands[-db] = np.full(db, hop, dtype=complex)
    return BandedOperator(bands, 2 * db)


def build_hamiltonian(config: TruncatedBathConfig) -> BandedOperator:
    """Hamiltonian of the one-particle block, as bands: basis
    |site> (x) |Fock>, dimension 2 * bath_dim,
    H = eps*(n1+n2) + J*(site swap) + H_bath + site-conditioned couplings.

    Hermiticity is exact (mirror entries are conjugates).
    """
    return _banded(config, (config.g_site1, config.g_site2), config.epsilon_onsite,
                   config.mode_freqs, config.j_hop)


def _minus_i_generator(config: TruncatedBathConfig) -> BandedOperator:
    """The Hermitian -iS of the anti-Hermitian displacement generator
    S = -sum_{p,k} n_p (g_pk b_k - g_pk^* b_k^dag) / omega_k, whose
    propagator exp(-i (-iS) tau) is exp(-S) at tau = 1."""
    amps = [[1j * g / w for g, w in zip(gs, config.mode_freqs)]
            for gs in (config.g_site1, config.g_site2)]
    return _banded(config, amps, 0.0, [0.0] * config.n_modes, 0.0)


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
    the first whose bound (x/2)^k / k! on |J_k(x)| is below SERIES_TOL.
    Counting stops past BESSEL_CAP // 2 terms, more than a Bessel table
    within BESSEL_CAP holds, so a huge x costs at most that many steps."""
    if x == 0.0:
        return 1
    log_bound, k = 0.0, 0
    while log_bound >= math.log(SERIES_TOL) and k <= BESSEL_CAP // 2:
        k += 1
        log_bound += math.log(0.5 * x / k)  # in logs: the bound overflows near k = x/2
    return k


def _bessel_coefficients(x: np.ndarray, n_terms: int) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(x) for k < n_terms, one row per x.

    These are the cosine coefficients of exp(-i x cos theta) (Jacobi-Anger),
    read off an FFT of n >= 2 n_terms samples: the orders that alias onto
    k < n_terms are beyond n_terms, where |J_k(x)| is below the bound. A
    table of more than BESSEL_CAP entries (len(x) x n) raises
    NumericalError before anything is allocated.
    """
    n = 1 << (2 * n_terms - 1).bit_length()
    if len(x) * n > BESSEL_CAP:
        raise NumericalError(
            f"a Chebyshev series to radius * |tau| = {float(np.max(np.abs(x))):.6g} needs "
            f"{n_terms} terms or more, a Bessel table of {len(x)} x {n} entries "
            f"over BESSEL_CAP = {BESSEL_CAP}")
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
    products with its bands (BandedOperator).

    evolve is coefficients (one Bessel table for the times) followed by
    apply (the series on the states), so a caller that repeats one time
    step builds its table once. The recurrence is planned: a single state
    runs as a 1-D vector (a stack of states as rows), three ring buffers
    and one scratch buffer hold it, each buffer's band views are built
    once per series, and each term T_k = 2 A T_{k-1} - T_{k-2} is one
    BandedOperator product with the main diagonal fused with -T_{k-2}.
    """

    def __init__(self, ham: BandedOperator):
        n = ham.shape[0]
        with np.errstate(invalid="ignore"):  # inf - inf
            _require_hermitian(float(np.max(
                [np.max(np.abs(d - np.conj(ham.bands.get(-o, 0.0))))
                 for o, d in ham.bands.items()])))
        # off-diagonal absolute row sums, each diagonal added to the rows it touches
        radii = np.zeros(n)
        with np.errstate(over="ignore"):  # an infinite bound raises below
            for o, d in ham.bands.items():
                if o:
                    radii[max(0, -o):n - max(0, o)] += np.abs(d)
            main = ham.bands[0].real
            low, high = float(np.min(main - radii)), float(np.max(main + radii))
        # halves first: high - low overflows once the bounds pass 1e308 / 2
        self.center, self.radius = 0.5 * high + 0.5 * low, 0.5 * high - 0.5 * low
        if not math.isfinite(self.radius):
            raise NumericalError(f"the spectral bounds [{low:.6g}, {high:.6g}] overflow")
        # 2 (H - center) / radius, the recurrence's step; with radius 0 every
        # series has one term and the step is never taken
        scale = 2.0 / self.radius if self.radius > 0.0 else 0.0
        self._step_operator = BandedOperator(
            {o: scale * (d - self.center) if o == 0 else scale * d
             for o, d in ham.bands.items()}, n)

    def _chebyshev_blocks(self, psi: np.ndarray, n_terms: int):
        """Yield (k0, block): block[i] = T_{k0 + i}((H - center) / radius) psi
        flattened, blocks of at most CHUNK terms, so the series is never held
        whole.

        Term k is computed in ring slot k % 3 from the two slots before it,
        then copied into its block row.
        """
        step = self._step_operator
        n = step.shape[0]
        states = psi.reshape((n,) if psi.size == n else (-1, n))
        ring = np.empty((3,) + states.shape, dtype=complex)
        ring[0] = states
        tmp = np.empty_like(states)
        # slot s is written from slot s - 1 (and slot s - 2)
        operands = [step._operands(ring[s - 1], ring[s], tmp) for s in range(3)]
        block = np.empty((min(CHUNK, n_terms), psi.size), dtype=complex)
        rows = block.reshape((len(block),) + states.shape)
        for k in range(n_terms):
            s = k % 3
            if k == 1:
                step._apply(ring[0], ring[1], None, operands[1])
                ring[1] *= 0.5
            elif k > 1:
                step._apply(ring[s - 1], ring[s], ring[s - 2], operands[s])
            rows[k % CHUNK] = ring[s]
            if k % CHUNK == len(block) - 1 or k == n_terms - 1:
                yield k - k % CHUNK, block[:k % CHUNK + 1]

    def coefficients(self, tau) -> np.ndarray:
        """The series coefficients exp(-i center tau) (2 - delta_k0) (-i)^k
        J_k(radius tau), one row per tau (raveled), as many terms as the
        largest radius * |tau| needs; NumericalError when radius * tau
        overflows or the Bessel table exceeds BESSEL_CAP."""
        tau = np.asarray(tau, dtype=float)
        # the largest radius * |tau|, as a float product that overflows to
        # inf without the warning the array product would print
        tau_max = float(np.max(np.abs(tau)))
        x_max = self.radius * tau_max
        if math.isinf(x_max):
            raise NumericalError(f"radius * tau overflows at radius = {self.radius:.6g}, "
                                 f"|tau| = {tau_max:.6g}")
        x = self.radius * tau.ravel()
        coef = _bessel_coefficients(x, _series_length(x_max))
        return coef * np.exp(-1j * self.center * tau.ravel())[:, None]

    def apply(self, coef: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """The series of coefficients() rows applied to psi, shape
        (len(coef),) + psi.shape: one recurrence, summed by one product per
        block of terms. psi may be a stack of states along its leading axes."""
        psi = np.asarray(psi, dtype=complex)
        out = np.zeros((len(coef), psi.size), dtype=complex)
        for k0, block in self._chebyshev_blocks(psi, coef.shape[1]):
            out += coef[:, k0:k0 + len(block)] @ block
        return out.reshape((len(coef),) + psi.shape)

    def evolve(self, psi: np.ndarray, tau) -> np.ndarray:
        """exp(-i H tau) psi for every tau, shape np.shape(tau) + psi.shape:
        one Chebyshev series with as many terms as the largest radius * |tau|
        needs. psi may be a stack of states along its leading axes."""
        return self.apply(self.coefficients(tau), psi).reshape(
            np.shape(tau) + np.shape(psi))

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


@dataclass(frozen=True)
class LangFirsovReport:
    displaced_vacuum_dev: float
    hop_measured: float
    hop_phase: float
    hop_expected: float
    truncation_tail: float
    suggested_n_max: int
    conclusive: bool

    @property
    def hop_error(self) -> float:
        return abs(self.hop_measured - self.hop_expected)


def _coherent_tail(weights: np.ndarray, n_max: int) -> float:
    """Poisson weight beyond the Fock cutoff, summed over displacements of
    |alpha_k|^2 = weights.

    A weight up to n_max + 1 sums its omitted terms, which shrink at least
    geometrically, so a tail far below 1e-16 keeps its digits. Above that
    the tail is about 1/2 or more, and 1 - (kept terms) is exact to rounding
    even where exp(-weight) underflows.
    """
    term = np.exp(-weights)
    kept = term
    for n in range(1, n_max + 1):
        term = term * weights / n
        kept = kept + term
    low = weights <= n_max + 1
    omitted = np.zeros_like(weights)
    n = n_max
    while np.any(term > 1e-17 * omitted):
        n += 1
        term = np.where(low, term * weights / n, 0.0)
        omitted = omitted + term
    return float(np.sum(np.where(low, omitted, 1.0 - kept)))


def _coherent_vacuum(config: TruncatedBathConfig, betas) -> np.ndarray:
    """The product of coherent states, prod_k exp(-|beta_k|^2 / 2)
    beta_k^{n_k} / sqrt(n_k!), over the bath basis up to n_max: the exact
    displaced vacuum, cut at the Fock cutoff without renormalizing."""
    occ, _ = _bath_ladders(config)
    n = np.arange(1, config.n_max + 1)
    amps = [math.exp(-0.5 * abs(b) ** 2) * np.cumprod(np.r_[1.0, b / np.sqrt(n)])
            for b in betas]
    return np.prod([a[n_k] for a, n_k in zip(amps, occ)], axis=0)


def lang_firsov_check(config: TruncatedBathConfig) -> LangFirsovReport:
    """Numerical verification of the displacement transformation.

    exp(-S)|p, vac> for both sites comes from one series of -iS at tau = 1,
    and one product with H gives <1, vac| exp(S) H exp(-S) |2, vac>: its
    magnitude should be J exp(-sum|alpha_k|^2 / 2), and its phase is
    reported. The series states are held to the product of coherent states
    with beta_pk = -g_pk^* / omega_k, which they equal up to the Fock
    cutoff (displaced_vacuum_dev). The Poisson weight beyond n_max of those
    per-site displaced vacua, of |beta_pk|^2 = |g_pk|^2 / omega_k^2 and the
    larger of the two sites (truncation_tail), qualifies the result: above
    TAIL_THRESHOLD the report is marked inconclusive and suggests a larger
    cutoff.
    """
    db = config.bath_dim
    w = np.array(config.mode_freqs)
    g = np.array([config.g_site1, config.g_site2])
    displaced = ChebyshevPropagator(_minus_i_generator(config)).evolve(
        _vacuum_state(np.eye(2), db), 1.0)
    # <v_i| exp(S) H exp(-S) |v_j> of the displaced vacua v
    elements = displaced.conj() @ build_hamiltonian(config).product(displaced).T
    coherent = np.zeros_like(displaced)
    for p in range(2):
        coherent[p, p * db:(p + 1) * db] = _coherent_vacuum(config, -np.conj(g[p]) / w)

    site_weights = np.abs(g / w) ** 2

    def tail_at(n_max):
        return max(_coherent_tail(weights, n_max) for weights in site_weights)

    tail = tail_at(config.n_max)
    suggested = config.n_max
    while suggested < 60 and tail_at(suggested) > TAIL_THRESHOLD:
        suggested += 2

    return LangFirsovReport(
        displaced_vacuum_dev=float(np.max(np.abs(displaced - coherent))),
        hop_measured=float(abs(elements[0, 1])),  # <site1, vac| H' |site2, vac>
        hop_phase=float(np.angle(elements[0, 1])),
        hop_expected=abs(config.j_tilde()),
        truncation_tail=tail,
        suggested_n_max=suggested,
        conclusive=tail <= TAIL_THRESHOLD,
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


def _trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
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

    def table(self):
        """(header, columns, comments) of the report's CSV: one row per
        schedule, the fitted slope repeated on each."""
        from .output import format_number

        cfg = self.config
        slope = self.fitted_slope if self.fitted_slope is not None else float("nan")
        return (
            ["delta_t", "n_cycles", "trace_distance_pulsed", "trace_distance_free",
             "fitted_slope"],
            [[r.delta_t for r in self.results],
             [r.n_cycles for r in self.results],
             [r.distance_pulsed for r in self.results],
             [r.distance_free for r in self.results],
             [slope] * len(self.results)],
            [f"# config: n_modes={cfg.n_modes} n_max={cfg.n_max} "
             f"j_hop={format_number(cfg.j_hop)} eps={format_number(cfg.epsilon_onsite)} "
             f"freqs={','.join(format_number(w) for w in cfg.mode_freqs)} "
             f"T={format_number(self.total_time)}"],
        )


def run_bangbang(config: TruncatedBathConfig, rho0: DensityMatrixST,
                 schedules) -> BangBangReport:
    """Pulse-train protection runs over a list of one or more schedules.

    Each branch vector of rho0 evolves through N cycles U(dt) Pi U(dt) Pi
    (the pulse Pi acts first) and, once for all schedules, freely for the
    same total time; both reduced states are compared to rho0 after undoing
    the ideal rotation.
    Each schedule runs on its own from the branch rows of rho0: every half
    cycle swaps the sites and advances all rows by one Chebyshev series
    over dt, so a schedule of N cycles takes 2 N series. The series
    coefficients depend on dt alone, so each schedule builds its Bessel
    table once (ChebyshevPropagator.coefficients) and applies it in all
    2 N half cycles (ChebyshevPropagator.apply).
    The cost grows with radius * total_time (a series over dt has about
    radius * dt terms), where an eigendecomposition would cost one fixed
    dim^3; at the CLI default T = 4 the series is the faster of the two.
    Results come sorted by delta_t.
    With at least three schedules of a common total time whose pulsed
    distance is at least 1e-12, a log-log fit of those distances against
    delta_t estimates the scaling exponent (2 for a purely second-order
    per-cycle error accumulated over T/(2 dt) cycles); otherwise
    fitted_slope is None.
    """
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
    # the free series first: a spectrum too wide for it raises NumericalError
    # before (eps +- J) total_time can overflow in the ideal rotation
    psi_free = prop.evolve(psi0, total_time)
    undo = _ideal_rotation(config, total_time)

    def distance(psi):
        rho = sum(p * r for (p, _), r in zip(branches, _reduced_st_series(psi)))
        return _trace_distance(undo[:, None] * rho * undo.conj(), rho0_matrix)

    distance_free = distance(psi_free)
    results = []
    for sched in schedules:
        coef = prop.coefficients(sched.delta_t)
        psi = psi0
        for _ in range(2 * sched.cycles):
            psi = prop.apply(coef, _site_swap(psi))[0]
        results.append(BangBangResult(
            delta_t=sched.delta_t, n_cycles=sched.cycles,
            distance_pulsed=distance(psi), distance_free=distance_free))
    results.sort(key=lambda r: r.delta_t)

    slope = None
    # distances below 1e-12 are rounding, which has no scaling to fit
    above_noise = [r for r in results if r.distance_pulsed >= 1e-12]
    if len(above_noise) >= 3:
        slope = float(np.polyfit(
            np.log([r.delta_t for r in above_noise]),
            np.log([r.distance_pulsed for r in above_noise]), 1,
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
    """Exact trajectory against the rate-equation one on the same modes.

    The master-equation side is driven by the discrete-mode kernels of the
    very same configuration (mode sum instead of continuum integral), so
    discretization is not in the residual. Neither is mainly the
    Markovian/weak-dressing approximation: two other effects dominate it.
    The exact run starts in the bare bath vacuum and is reported in the lab
    frame, where the rate equation assumes a factorized state in the
    polaron frame; and for couplings with g_2k != -g_1k the dressed hopping
    carries a phase (LangFirsovReport.hop_phase, 0.062 rad at the
    oracle-compare default) that the rate equation does not have.
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

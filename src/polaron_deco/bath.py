"""Ohmic bath with Gaussian cutoff: spectral model, correlation kernels and
the dressed (polaron) hopping reduction.

The coupling-weighted spectral density is |g(w)|^2 = lambda_g * w * e^{-w^2},
with the Gaussian cutoff W as the unit of energy (a bath with another cutoff
is the same model at lambda_g * W^2, s * W, j_hop / W and times t * W). Two
sites separated by a scattering time scale s = l/v see the difference
coupling, which carries the forward-scattering factor (1 - sin(ws)/(ws)).
The mode-sum kernels are

    K_c(tau) = 2 * lambda_g * int_0^inf dw w e^{-w^2} (1 - sinc(ws)) cos(w tau)
    K_s(tau) = same integrand with sin(w tau)

so that K_c(0) equals the total dressing weight and the effective hopping
ratio is exp(-K_c(0)/2). Both kernels have closed forms in the Dawson
function D (numerics.dawson) and Gaussians,

    K_c(tau) / 2 lambda_g = 1/2 - (tau/2) D(tau/2) - [D((s+tau)/2) + D((s-tau)/2)] / 2s
    K_s(tau) / 2 lambda_g = (sqrt(pi)/4) tau e^{-tau^2/4}
                            - (sqrt(pi)/4s) [e^{-(s-tau)^2/4} - e^{-(s+tau)^2/4}]

which build_kernel_table evaluates on a whole grid (K_c(0) = 2 lambda_g
(1/2 - F[s]/s), with F the Gaussian sine transform numerics.dawson_sine,
is BathModel.kernel_zero). The pointwise kernel_cos / kernel_sin integrate
the mode sum itself with a fixed composite Kronrod rule; that quadrature
route against the special-function route is the main cross-check, enforced
by the test suite and the selftest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import OMEGA_TRUNCATION, TimeGrid, composite_gk15_nodes, dawson, dawson_sine

__all__ = [
    "BathModel",
    "KernelTable",
    "kernel_zero",
    "kernel_cos",
    "kernel_sin",
    "effective_hopping_ratio",
    "build_kernel_table",
    "kernel_table_from_modes",
]


def sinc(x):
    """sin(x)/x, series-evaluated below 1e-4 to avoid the 0/0 corner."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - x * x / 6.0 + x**4 / 120.0, np.sin(safe) / safe)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BathModel:
    """Dimensionless bath description.

    lambda_g: effective coupling (absorbs the intrinsic coupling, phonon
        speed and geometry prefactor of the 3d mode sum).
    s: scattering time scale, site separation over phonon speed, in 1/W.
    """

    lambda_g: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        for name in ("lambda_g", "s"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.lambda_g >= 0:
            raise ConfigError(f"lambda_g must be >= 0, got {self.lambda_g}")
        if not self.s >= 0:
            raise ConfigError(f"s must be >= 0, got {self.s}")

    def kernel_zero(self) -> float:
        """K_c(0) by the Dawson closed form, 2*lambda_g*(1/2 - F[s]/s).

        This is the special-function route; kernel_cos(0) reaches the same
        number by quadrature.
        """
        return kernel_zero(self.lambda_g, self.s)


def kernel_zero(lambda_g, s):
    """BathModel.kernel_zero elementwise over broadcast arrays of valid
    lambda_g and s: exactly 0 where either is 0. Scalars give a float."""
    lam = np.asarray(lambda_g, dtype=float)
    s = np.asarray(s, dtype=float)
    safe_s = np.where(s == 0.0, 1.0, s)  # no 0/0 where the result is 0 anyway
    k = np.where((lam == 0.0) | (s == 0.0), 0.0,
                 2.0 * lam * (0.5 - dawson_sine(safe_s) / safe_s))
    return k if k.ndim else float(k)


@dataclass(frozen=True)
class KernelTable:
    """K_c and K_s sampled on a time grid.

    Values decay towards zero at large tau (algebraically, like 1/tau^2,
    while tau is below s, then faster); the decay check in the tests is run
    for s values up to the grid length.
    """

    grid: TimeGrid
    k_cos: np.ndarray
    k_sin: np.ndarray

    def __post_init__(self):
        for name in ("k_cos", "k_sin"):
            object.__setattr__(self, name, self.grid.column(getattr(self, name), name))


def _pointwise(model: BathModel, trig, tau: float) -> float:
    # trig(w tau) * sinc(w s) oscillates at up to the sum frequency tau + s
    w, weights = composite_gk15_nodes(OMEGA_TRUNCATION, tau + model.s)
    f = w * np.exp(-w * w) * (1.0 - sinc(w * model.s)) * trig(w * tau)
    return 2.0 * model.lambda_g * float(f @ weights)


def kernel_cos(tau: float, model: BathModel) -> float:
    """Cosine correlation kernel K_c(tau) by the fixed reference rule.

    Identically zero when s = 0 (every mode couples to both sites with the
    same phase) or when lambda_g = 0.
    """
    if tau < 0:
        raise ConfigError(f"tau must be >= 0, got {tau}")
    if model.lambda_g == 0.0 or model.s == 0.0:
        return 0.0
    return _pointwise(model, np.cos, tau)


def kernel_sin(tau: float, model: BathModel) -> float:
    """Sine correlation kernel K_s(tau); odd in tau, K_s(0) = 0 exactly."""
    if tau < 0:
        raise ConfigError(f"tau must be >= 0, got {tau}")
    if tau == 0.0 or model.lambda_g == 0.0 or model.s == 0.0:
        return 0.0
    return _pointwise(model, np.sin, tau)


def effective_hopping_ratio(model: BathModel) -> float:
    """Dressed over bare hopping, exp(-K_c(0)/2), in (0, 1].

    Equals exp(-lambda_g * (1/2 - F[s]/s)); exactly 1 when s = 0 or
    lambda_g = 0, and saturates to exp(-lambda_g / 2) for s -> inf.
    """
    return float(np.exp(-0.5 * model.kernel_zero()))


_ROOT_PI_4 = math.sqrt(math.pi) / 4.0
# below this s the closed forms' 1/s brackets lose digits to cancellation
# (3.7e-14 of K_c at s = 0.01, and all of them as s -> 0), so where
# tau * s < 2 build_kernel_table sums them as series in s instead
_SMALL_S = 0.25
# the series stop at order 15 in s: with |D^(k)| <= 2^(k-1) Gamma((k+1)/2)
# and |H_k(x)| e^{-x^2/2} <= 1.09 sqrt(2^k k!), the first order left out
# (17) is below 1e-19 of 2 lambda_g at s = 0.25
_SERIES_ORDER = 15


def _gauss(u):
    """e^{-u^2}, with |u| clipped at 40 where it underflows to 0 anyway, so
    that no square overflows."""
    return np.exp(-np.square(np.minimum(np.abs(u), 40.0)))


def _closed_forms(x, s: float):
    """(K_c, K_s) / 2 lambda_g at tau = 2x, from the Dawson closed forms."""
    a = 0.5 * s
    k_cos = 0.5 - x * dawson(x) - 0.5 * (dawson(x + a) + dawson(a - x)) / s
    k_sin = _ROOT_PI_4 * (2.0 * x * _gauss(x) - (_gauss(a - x) - _gauss(a + x)) / s)
    return k_cos, k_sin


def _small_s_series(x, s: float):
    """(K_c, K_s) / 2 lambda_g at tau = 2x, as series in a = s/2.

    With y = x s, the brackets are Taylor series about x:
    K_c / 2 lambda_g = -(1/2) sum_{odd k >= 3} E_k, E_k = D^(k)(x) a^(k-1) / k!,
    K_s / 2 lambda_g = -(sqrt(pi)/4) sum_{odd k >= 3} G_k,
    G_k = e^{-x^2} H_k(x) a^(k-1) / k! (H_k the Hermite polynomials).
    D' = 1 - 2xD and the recurrences D^(k+1) = -2x D^(k) - 2k D^(k-1),
    H_(k+1) = 2x H_k - 2k H_(k-1) become
    E_(k+1) = -(y E_k + 2a^2 E_(k-1)) / (k+1) and
    G_(k+1) = (y G_k - 2a^2 G_(k-1)) / (k+1), which neither overflow nor
    amplify rounding while y < 1.
    """
    a = 0.5 * s
    d, g = dawson(x), _gauss(x)
    y, a2 = x * s, 2.0 * a * a
    e0 = 1.0 - 2.0 * x * d
    e1 = -a * d - 0.5 * y * e0
    g0 = 2.0 * x * g
    g1 = (x * y - a) * g
    k_cos, k_sin = np.zeros_like(x), np.zeros_like(x)
    for k in range(2, _SERIES_ORDER):
        e0, e1 = e1, -(y * e1 + a2 * e0) / (k + 1)
        g0, g1 = g1, (y * g1 - a2 * g0) / (k + 1)
        if k % 2 == 0:
            k_cos -= e1
            k_sin -= g1
    return 0.5 * k_cos, _ROOT_PI_4 * k_sin


def build_kernel_table(model: BathModel, grid: TimeGrid) -> KernelTable:
    """Tabulate K_c and K_s on grid from their closed forms (module
    docstring): three Dawson evaluations and three Gaussians per point, so
    the cost and memory are O(n) whatever t_max and s. Where s < _SMALL_S
    and tau * s < 2 the 1/s brackets are summed as series in s instead
    (_small_s_series), so the table stays accurate down to s -> 0, and no
    argument overflows up to the largest float s.
    The pointwise quadrature kernel_cos / kernel_sin agree with the table
    to round-off, which the tests assert on samples of grid points.
    """
    n = len(grid)
    if model.lambda_g == 0.0 or model.s == 0.0:
        return KernelTable(grid=grid, k_cos=np.zeros(n), k_sin=np.zeros(n))
    x = 0.5 * grid.points
    # the series take the first points, up to tau * s = 2
    m = int(np.count_nonzero(x * model.s < 1.0)) if model.s < _SMALL_S else 0
    k = np.empty((2, n))
    if m:
        k[:, :m] = _small_s_series(x[:m], model.s)
    k[:, m:] = _closed_forms(x[m:], model.s)
    k *= 2.0 * model.lambda_g
    return KernelTable(grid=grid, k_cos=k[0], k_sin=k[1])


def kernel_table_from_modes(freqs, weights, grid: TimeGrid) -> KernelTable:
    """Kernels of a discrete mode set: K_c(t) = sum_k w_k cos(omega_k t).

    weights are the per-mode dressing weights |alpha_k|^2. Used to drive the
    master equation with exactly the same bath a truncated-mode simulation
    sees, so the two can be compared without discretization bias.
    """
    freqs = np.asarray(freqs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if freqs.shape != weights.shape:
        raise ConfigError("freqs and weights must have matching shapes")
    phase = np.outer(grid.points, freqs)
    return KernelTable(
        grid=grid,
        k_cos=np.cos(phase) @ weights,
        k_sin=np.sin(phase) @ weights,
    )

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
ratio is exp(-K_c(0)/2). At tau = 0 the integral has the closed form
1/2 - F[s]/s in terms of the Gaussian sine transform F (see
numerics.dawson_sine); that identity is the main cross-check between the
quadrature and special-function routes and is enforced by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, QuadratureError
from .numerics import (
    OMEGA_TRUNCATION,
    QuadratureSpec,
    TimeGrid,
    composite_gk15_nodes,
    dawson_sine,
    integrate_semiinf,
)

__all__ = [
    "BathModel",
    "KernelTable",
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
        if self.lambda_g == 0.0 or self.s == 0.0:
            return 0.0
        return 2.0 * self.lambda_g * (0.5 - dawson_sine(self.s) / self.s)


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
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.points.shape:
                raise ConfigError(f"{name} length does not match grid")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _integrand_factory(model: BathModel, trig, tau: float):
    def f(x):
        return x * np.exp(-x * x) * (1.0 - sinc(x * model.s)) * trig(x * tau)

    return f


def kernel_cos(tau: float, model: BathModel,
               spec: QuadratureSpec | None = None) -> float:
    """Cosine correlation kernel K_c(tau) by adaptive quadrature.

    Identically zero when s = 0 (every mode couples to both sites with the
    same phase) or when lambda_g = 0.
    """
    if tau < 0:
        raise ConfigError(f"tau must be >= 0, got {tau}")
    if model.lambda_g == 0.0 or model.s == 0.0:
        return 0.0
    val = integrate_semiinf(_integrand_factory(model, np.cos, tau), spec)
    return 2.0 * model.lambda_g * val


def kernel_sin(tau: float, model: BathModel,
               spec: QuadratureSpec | None = None) -> float:
    """Sine correlation kernel K_s(tau); odd in tau, K_s(0) = 0 exactly."""
    if tau < 0:
        raise ConfigError(f"tau must be >= 0, got {tau}")
    if tau == 0.0 or model.lambda_g == 0.0 or model.s == 0.0:
        return 0.0
    val = integrate_semiinf(_integrand_factory(model, np.sin, tau), spec)
    return 2.0 * model.lambda_g * val


def effective_hopping_ratio(model: BathModel) -> float:
    """Dressed over bare hopping, exp(-K_c(0)/2), in (0, 1].

    Equals exp(-lambda_g * (1/2 - F[s]/s)); exactly 1 when s = 0 or
    lambda_g = 0, and saturates to exp(-lambda_g / 2) for s -> inf.
    """
    return float(np.exp(-0.5 * model.kernel_zero()))


# block starts per GEMM, and the largest block; the working set is
# (2 * _START_CHUNK + 4 * block) * nodes doubles
_START_CHUNK = 32
_MAX_BLOCK = 256


def _kernel_sums(model: BathModel, grid: TimeGrid):
    """K_c, K_s and their embedded-Gauss error estimates on grid, scaled.

    Grid index j is written as a*B + b with B = ceil(sqrt(n)), capped at
    _MAX_BLOCK so that long grids add block starts, not memory; cos and sin
    are evaluated on the block-start phases theta[a*B] * x and the offset
    phases theta[b] * x only, and recombined by angle addition,
    cos(A + O) = cos A cos O - sin A sin O, sin(A + O) = sin A cos O +
    cos A sin O. With the weights g*w_K and g*w_err folded into the four
    (B x nodes) offset factors, one GEMM per chunk of block starts yields
    all four sums. Returns (k_cos, k_sin, err_cos, err_sin).
    """
    n = len(grid)
    nodes, weights, err_weights = composite_gk15_nodes(
        OMEGA_TRUNCATION, grid.t_max + model.s)
    g = nodes * np.exp(-nodes * nodes) * (1.0 - sinc(nodes * model.s))
    scale = 2.0 * model.lambda_g

    theta = grid.points
    block = min(math.isqrt(n - 1) + 1, _MAX_BLOCK)
    offsets = np.outer(theta[:block], nodes)
    right = np.empty((4, block, len(nodes)))
    np.cos(offsets, out=right[0])
    np.sin(offsets, out=right[1])
    del offsets
    np.multiply(right[:2], g * err_weights, out=right[2:])
    right[:2] *= g * weights
    right = right.reshape(4 * block, len(nodes))

    starts = theta[::block]
    sums = np.empty((4, len(starts), block))
    for i in range(0, len(starts), _START_CHUNK):
        phase = np.outer(starts[i:i + _START_CHUNK], nodes)
        c = len(phase)
        left = np.empty((2 * c, len(nodes)))
        np.cos(phase, out=left[:c])
        np.sin(phase, out=left[c:])
        del phase
        # rows: cos A, sin A; columns: (cos O, sin O) x (g*w_K, g*w_err)
        m = (left @ right.T).reshape(2, c, 4, block)
        cos_a, sin_a = m[0], m[1]
        for k in (0, 2):
            sums[k, i:i + c] = cos_a[:, k] - sin_a[:, k + 1]
            sums[k + 1, i:i + c] = sin_a[:, k] + cos_a[:, k + 1]
    k_cos, k_sin, err_c, err_s = (scale * row.ravel()[:n] for row in sums)
    return k_cos, k_sin, np.abs(err_c), np.abs(err_s)


def build_kernel_table(model: BathModel, grid: TimeGrid,
                       spec: QuadratureSpec | None = None) -> KernelTable:
    """Tabulate K_c and K_s on grid with one composite Kronrod rule.

    The integrand's product cos(w tau) * sinc(w s) carries spectral content
    up to the sum frequency tau + s, so the panels are sized to resolve
    t_max + s. The n x nodes phase block is never formed: cos
    and sin run on about 2 sqrt(n) x nodes block-start and offset phases,
    and angle addition folds them into one GEMM per chunk of block starts
    (see _kernel_sums). The cost is ~16 n x nodes GEMM flops, the memory
    O((chunk + min(sqrt(n), 256)) x nodes). Per-tau embedded-Gauss error
    estimates guard every entry of both kernels, and a failure names the
    kernel and the offending tau. Pointwise kernel_cos / kernel_sin agree
    with the table to well below 1e-10, which the tests assert on a sample
    of grid points.
    """
    spec = spec or QuadratureSpec()
    if model.lambda_g == 0.0 or model.s == 0.0:
        zeros = np.zeros(len(grid))
        return KernelTable(grid=grid, k_cos=zeros, k_sin=zeros.copy())

    k_cos, k_sin, err_c, err_s = _kernel_sums(model, grid)
    tol = max(spec.abs_tol, spec.rel_tol)
    for name, err in (("K_c", err_c), ("K_s", err_s)):
        worst = int(np.argmax(err))
        if err[worst] > tol:
            raise QuadratureError(
                f"kernel table {name} did not converge at "
                f"tau={grid.points[worst]:.6g}: "
                f"error estimate {err[worst]:.3e} > {tol:.3e}"
            )
    return KernelTable(grid=grid, k_cos=k_cos, k_sin=k_sin)


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

"""Numerical primitives: Dawson-type transforms, Gauss-Kronrod quadrature
and cumulative trapezoid integration.

Everything here is a pure function of its inputs and safe to call
concurrently. All quantities are dimensionless (energies in units of the
bath cutoff, times in inverse-cutoff units).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, QuadratureError

__all__ = [
    "QuadratureSpec",
    "TimeGrid",
    "dawson",
    "dawson_sine",
    "integrate_semiinf",
    "cumulative_trapezoid",
]

# Gaussian-decay integrands are below 2e-28 past this point; hard truncation
# of the semi-infinite range is safe and cheap.
OMEGA_TRUNCATION = 8.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy request for adaptive quadrature.

    The integral estimate I is accepted once the accumulated error estimate
    drops below max(abs_tol, rel_tol * |I|).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    max_subdivisions: int = 8000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ConfigError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.abs_tol < 0:
            raise ConfigError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ConfigError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid 0 = t_0 < t_1 < ... = t_max with spacing dt.

    t_max must be an integer multiple of dt (to 1e-9 relative); the
    endpoints are exact by construction.
    """

    t_max: float
    dt: float
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if not self.t_max > 0:
            raise ConfigError(f"t_max must be > 0, got {self.t_max}")
        steps = self.t_max / self.dt
        if not math.isfinite(steps):
            raise ConfigError(f"t_max/dt = {steps} is not a finite step count")
        n = int(round(steps))
        if n < 1 or abs(steps - n) > 1e-9 * max(1.0, steps):
            raise ConfigError(
                f"t_max={self.t_max} is not an integer multiple of dt={self.dt}"
            )
        pts = np.linspace(0.0, self.t_max, n + 1)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_steps(self) -> int:
        return len(self.points) - 1

    def __len__(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# Dawson function and its sine-transform form
# ---------------------------------------------------------------------------
#
# dawson(x) = e^{-x^2} int_0^x e^{u^2} du, evaluated by three stitched
# branches (maximum relative error ~1e-13, checked against quadrature of the
# defining integral in the test suite):
#   |x| <= 1   Maclaurin series  sum_n (-2)^n x^{2n+1} / (2n+1)!!
#   1 < |x| < 6   sampling-theorem comb  (1/sqrt(pi)) sum_{n odd} e^{-(x-nh)^2}/n,
#                 whose error is O(exp(-(pi/2h)^2)), spectrally small for h=0.25
#   |x| >= 6   asymptotic series  (1/2x) sum_n (2n-1)!! / (2x^2)^n
# The branch overlaps are cross-validated in the tests rather than trusted.

_COMB_H = 0.25
_COMB_HALF_WIDTH = 7.0  # exp(-49) ~ 5e-22, negligible beyond this window


def _dawson_series(x: float) -> float:
    term = x
    total = x
    n = 0
    while abs(term) > 1e-17 * abs(total):
        n += 1
        term *= -2.0 * x * x / (2 * n + 1)
        total += term
        if n > 60:  # unreachable for |x| <= 1, guards misuse
            break
    return total


def _dawson_comb(x: float) -> float:
    h = _COMB_H
    n_lo = int(math.ceil((x - _COMB_HALF_WIDTH) / h))
    n_hi = int(math.floor((x + _COMB_HALF_WIDTH) / h))
    acc = 0.0
    for n in range(n_lo, n_hi + 1):
        if n % 2 != 0:
            acc += math.exp(-((x - n * h) ** 2)) / n
    return acc / math.sqrt(math.pi)


def _dawson_asymptotic(x: float) -> float:
    inv = 1.0 / (2.0 * x * x)
    term = 1.0
    total = 1.0
    for n in range(1, 40):
        new = term * (2 * n - 1) * inv
        if abs(new) >= abs(term):
            break
        term = new
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return total / (2.0 * x)


def dawson(x: float) -> float:
    """Dawson integral D(x) = e^{-x^2} int_0^x e^{u^2} du (odd in x)."""
    ax = abs(x)
    if ax <= 1.0:
        val = _dawson_series(ax)
    elif ax < 6.0:
        val = _dawson_comb(ax)
    else:
        val = _dawson_asymptotic(ax)
    return math.copysign(val, x) if x != 0 else 0.0


def dawson_sine(z: float) -> float:
    """Sine transform of a unit Gaussian, int_0^inf e^{-t^2} sin(z t) dt.

    Equals dawson(z/2); the identity is verified against direct quadrature
    in the test suite instead of being assumed. Odd in z.
    """
    return dawson(0.5 * z)


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7-15 pair and adaptive quadrature
# ---------------------------------------------------------------------------

GK15_NODES = np.array([
    +0.991455371120813, -0.991455371120813,
    +0.949107912342759, -0.949107912342759,
    +0.864864423359769, -0.864864423359769,
    +0.741531185599394, -0.741531185599394,
    +0.586087235467691, -0.586087235467691,
    +0.405845151377397, -0.405845151377397,
    +0.207784955007898, -0.207784955007898,
    0.000000000000000,
])
GK15_WEIGHTS = np.array([
    0.022935322010529, 0.022935322010529,
    0.063092092629979, 0.063092092629979,
    0.104790010322250, 0.104790010322250,
    0.140653259715525, 0.140653259715525,
    0.169004726639267, 0.169004726639267,
    0.190350578064785, 0.190350578064785,
    0.204432940075298, 0.204432940075298,
    0.209482141084728,
])
# Embedded 7-point Gauss weights sit on the odd-indexed Kronrod nodes.
G7_WEIGHTS = np.array([
    0.0, 0.0,
    0.129484966168870, 0.129484966168870,
    0.0, 0.0,
    0.279705391489277, 0.279705391489277,
    0.0, 0.0,
    0.381830050505119, 0.381830050505119,
    0.0, 0.0,
    0.417959183673469,
])
_GK15_ERRW = GK15_WEIGHTS - G7_WEIGHTS


def _gk15_panel(f, a: float, b: float):
    """15-point Kronrod estimate on [a, b] with embedded-Gauss error estimate."""
    half = 0.5 * (b - a)
    x = a + half * (GK15_NODES + 1.0)
    fx = np.asarray(f(x), dtype=float)
    value = half * float(fx @ GK15_WEIGHTS)
    err = half * abs(float(fx @ _GK15_ERRW))
    return value, err


def integrate_semiinf(f, spec: QuadratureSpec | None = None,
                      omega_max: float = OMEGA_TRUNCATION) -> float:
    """Integrate f over [0, inf) for integrands with Gaussian decay.

    f must accept an ndarray of abscissae and return the integrand values.
    The range is truncated at omega_max and refined adaptively, always
    bisecting the panel with the largest error estimate.

    Raises QuadratureError if max_subdivisions panels do not reach the
    requested tolerance.
    """
    spec = spec or QuadratureSpec()
    value, err = _gk15_panel(f, 0.0, omega_max)
    heap = [(-err, 0.0, omega_max, value, err)]
    total, total_err = value, err
    panels = 1
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if panels >= spec.max_subdivisions:
            raise QuadratureError(
                f"no convergence after {panels} panels: |I|={abs(total):.3e}, "
                f"err={total_err:.3e}, requested "
                f"{max(spec.abs_tol, spec.rel_tol * abs(total)):.3e}"
            )
        _, a, b, v0, e0 = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _gk15_panel(f, a, mid)
        v2, e2 = _gk15_panel(f, mid, b)
        total += v1 + v2 - v0
        total_err += e1 + e2 - e0
        heapq.heappush(heap, (-e1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, b, v2, e2))
        panels += 1
    return total


def composite_gk15_nodes(omega_max: float, max_oscillation: float):
    """Fixed composite Kronrod rule resolving cos/sin factors up to the
    given oscillation rate.

    Returns (nodes, kronrod_weights, gauss_error_weights). Panels are sized
    to at most half an oscillation period so the 15-point rule stays in its
    rapidly convergent regime.
    """
    h = min(0.5, math.pi / max(max_oscillation, 1.0))
    n_panels = max(16, int(math.ceil(omega_max / h)))
    edges = np.linspace(0.0, omega_max, n_panels + 1)
    half = 0.5 * np.diff(edges)
    centers = 0.5 * (edges[1:] + edges[:-1])
    nodes = (centers[:, None] + half[:, None] * GK15_NODES[None, :]).ravel()
    weights = (half[:, None] * GK15_WEIGHTS[None, :]).ravel()
    err_weights = (half[:, None] * _GK15_ERRW[None, :]).ravel()
    return nodes, weights, err_weights


# ---------------------------------------------------------------------------
# Grid integration
# ---------------------------------------------------------------------------

def cumulative_trapezoid(samples: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Running trapezoid integral of samples aligned with grid.

    out[0] = 0 and out[k] = trapezoid rule over the first k intervals.
    """
    samples = np.asarray(samples)
    if samples.shape[0] != len(grid):
        raise ConfigError(
            f"samples length {samples.shape[0]} does not match grid length {len(grid)}"
        )
    out = np.zeros_like(samples, dtype=np.result_type(samples, float))
    out[1:] = np.cumsum(0.5 * (samples[1:] + samples[:-1])) * grid.dt
    return out


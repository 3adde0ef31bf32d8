"""Numerical primitives: the Dawson function, fixed composite quadrature
rules on [0, omega_max] and cumulative trapezoid integration.

Everything here is a pure function of its inputs. All quantities are
dimensionless (energies in units of the bath cutoff, times in inverse-cutoff
units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "TimeGrid",
    "dawson",
    "dawson_sine",
    "integrate_semiinf",
    "cumulative_trapezoid",
]

# Gaussian-decay integrands are below 2e-28 past this point; hard truncation
# of the semi-infinite range is safe and cheap.
OMEGA_TRUNCATION = 8.0
# most points a TimeGrid holds, 80 MB per float column
MAX_POINTS = 10**7


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid 0 = t_0 < t_1 < ... = t_max with spacing dt.

    t_max must be an integer multiple of dt (to 1e-9 relative); the
    endpoints are exact by construction. A grid of more than MAX_POINTS
    points is refused before any is allocated.
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
        if n + 1 > MAX_POINTS:
            raise ConfigError(f"t_max/dt = {n} steps: {n + 1} grid points exceed "
                              f"MAX_POINTS = {MAX_POINTS}")
        pts = np.linspace(0.0, self.t_max, n + 1)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n_steps(self) -> int:
        return len(self.points) - 1

    def __len__(self) -> int:
        return len(self.points)

    def column(self, values, name: str, dtype=float) -> np.ndarray:
        """values as a read-only array with one entry per grid point; a
        ConfigError names the column when its length differs."""
        arr = np.asarray(values, dtype=dtype)
        if arr.shape != self.points.shape:
            raise ConfigError(f"{name} length does not match grid")
        arr.setflags(write=False)
        return arr


# ---------------------------------------------------------------------------
# Dawson function and its sine-transform form
# ---------------------------------------------------------------------------
#
# dawson(x) = e^{-x^2} int_0^x e^{u^2} du, elementwise, in two forms (within
# 6e-15 relative of scipy's dawsn on [-200, 200] and out to 1e300 in the
# test suite):
#   |x| <= 0.5   Maclaurin series  sum_n (-2)^n x^{2n+1} / (2n+1)!!, to n = 14
#   |x| > 0.5    Rybicki's sampling-theorem comb
#                (1/sqrt(pi)) sum_{n odd} e^{-(x - nh)^2} / n, h = 0.25, over
#                the 30 odd n on each side of the even node n0 nearest x/h;
#                its error is O(exp(-(pi/2h)^2)), and the first term left out
#                is below e^{-(60h)^2} = e^{-225} (G. B. Rybicki, Computers
#                in Physics 3, 85 (1989))
# Both are running sums in order of increasing n (cumsum, not numpy's
# pairwise sum), so each value rounds as an ascending scalar loop over n
# would.

_SERIES_EDGE = 0.5
_SERIES_DIVISORS = np.arange(3.0, 31.0, 2.0)  # 2n + 1 for n = 1 ... 14
_COMB_H = 0.25
_COMB_OFFSETS = np.arange(-59.0, 60.0, 2.0)  # odd n - n0 for the even node n0


def dawson(x):
    """Dawson integral D(x) = e^{-x^2} int_0^x e^{u^2} du, elementwise and odd.

    x must be finite. An array gives an array of its shape, a scalar a
    float.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    series = ax <= _SERIES_EDGE
    val = np.empty_like(ax)
    v = ax[series, None]
    # term_n = term_{n-1} * (-2 x^2) / (2n + 1), term_0 = x
    steps = np.concatenate([v, -2.0 * v * v / _SERIES_DIVISORS], axis=1)
    val[series] = np.cumprod(steps, axis=1).cumsum(axis=1)[:, -1]
    v = ax[~series, None]
    n0 = 2.0 * np.round(v / (2.0 * _COMB_H))
    # x - n h as (x - n0 h) - (n - n0) h: x - n0 h is exact, so each
    # distance is rounded once, even where n = n0 + m is not exact
    offset = v - n0 * _COMB_H - _COMB_OFFSETS * _COMB_H
    comb = np.exp(-(offset ** 2)) / (n0 + _COMB_OFFSETS)
    val[~series] = comb.cumsum(axis=1)[:, -1] / math.sqrt(math.pi)
    out = np.copysign(val, x)
    return out if out.ndim else float(out)


def dawson_sine(z):
    """Sine transform of a unit Gaussian, int_0^inf e^{-t^2} sin(z t) dt.

    Equals dawson(z/2); the identity is verified against direct quadrature
    in the test suite instead of being assumed. Odd in z.
    """
    return dawson(0.5 * np.asarray(z, dtype=float))


# ---------------------------------------------------------------------------
# Composite rules on [0, omega_max]
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


def composite_panels(omega_max: float, max_oscillation: float):
    """Equal panels of [0, omega_max] for a composite rule: at least 16, each
    at most half an oscillation period of the given rate wide (and at most
    0.5), so that a fixed-order rule stays in its rapidly convergent regime.
    An int, or inf where the count overflows a float."""
    h = min(0.5, math.pi / max(max_oscillation, 1.0))
    panels = omega_max / h if h > 0.0 else math.inf
    return max(16, math.ceil(panels)) if panels < math.inf else math.inf


def _composite(omega_max: float, max_oscillation: float, nodes, *weights):
    """A rule on [-1, 1] repeated on composite_panels equal panels of
    [0, omega_max]. Returns the nodes, then each weight set, scaled.
    """
    n_panels = composite_panels(omega_max, max_oscillation)
    edges = np.linspace(0.0, omega_max, n_panels + 1)
    half = 0.5 * np.diff(edges)
    centers = 0.5 * (edges[1:] + edges[:-1])
    x = (centers[:, None] + half[:, None] * nodes[None, :]).ravel()
    return (x, *((half[:, None] * w[None, :]).ravel() for w in weights))


def integrate_semiinf(f, max_oscillation: float) -> float:
    """Integrate f over [0, inf) for integrands with Gaussian decay.

    f must accept an ndarray of abscissae and return the integrand values.
    The range is truncated at OMEGA_TRUNCATION and integrated by a fixed
    composite 8-point Gauss-Legendre rule whose panels resolve oscillations
    up to max_oscillation (the integrand's highest angular frequency).
    """
    nodes, weights = _composite(OMEGA_TRUNCATION, max_oscillation,
                                *np.polynomial.legendre.leggauss(8))
    return float(np.asarray(f(nodes), dtype=float) @ weights)


def composite_gk15_nodes(omega_max: float, max_oscillation: float):
    """Fixed composite Kronrod rule resolving cos/sin factors up to the
    given oscillation rate.

    Returns (nodes, kronrod_weights, gauss_error_weights).
    """
    return _composite(omega_max, max_oscillation,
                      GK15_NODES, GK15_WEIGHTS, _GK15_ERRW)


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


"""Numerical primitives: the Dawson function, a fixed composite Kronrod
rule on [0, omega_max] and cumulative trapezoid integration.

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
# dawson(x) = e^{-x^2} int_0^x e^{u^2} du, elementwise, in three forms (within
# 6e-15 relative of scipy's dawsn on [-200, 200] and out to 1e300 in the
# test suite):
#   |x| <= 0.5   Maclaurin series  sum_n (-2)^n x^{2n+1} / (2n+1)!!, to n = 14
#   |x| > 0.5    Rybicki's sampling-theorem comb
#                (1/sqrt(pi)) sum_{n odd} e^{-(x - nh)^2} / n, h = 0.25, over
#                the 14 odd n on each side of the even node n0 nearest x/h;
#                its error is O(exp(-(pi/2h)^2)), and since |x - n0 h| <= h
#                the first term left out is below e^{-(28h)^2} = e^{-49}
#                (G. B. Rybicki, Computers in Physics 3, 85 (1989))
#   |x| > 1e9    1/(2x): the next term of (1 + 1/(2x^2) + ...)/(2x) is below
#                5e-19 relative, and the comb's node index would overflow
#                near the largest float
# The series and the comb are running sums in order of increasing n (cumsum,
# not numpy's pairwise sum), so each value rounds as an ascending scalar
# loop over n would. Points go through in blocks of _BLOCK, so the
# (points x terms) arrays stay small however long x is.

_SERIES_EDGE = 0.5
_SERIES_DIVISORS = np.arange(3.0, 31.0, 2.0)  # 2n + 1 for n = 1 ... 14
_COMB_H = 0.25
_COMB_OFFSETS = np.arange(-27.0, 28.0, 2.0)  # odd n - n0 for the even node n0
_ASYMPTOTIC_EDGE = 1e9
_BLOCK = 4096


def _dawson_block(ax: np.ndarray) -> np.ndarray:
    """dawson of a 1-D array of finite |x|."""
    val = np.empty_like(ax)
    series = ax <= _SERIES_EDGE
    v = ax[series, None]
    # term_n = term_{n-1} * (-2 x^2) / (2n + 1), term_0 = x
    steps = np.concatenate([v, -2.0 * v * v / _SERIES_DIVISORS], axis=1)
    val[series] = np.cumprod(steps, axis=1).cumsum(axis=1)[:, -1]
    far = ax > _ASYMPTOTIC_EDGE
    val[far] = 0.5 / ax[far]
    comb = ~(series | far)
    v = ax[comb, None]
    n0 = 2.0 * np.round(v / (2.0 * _COMB_H))
    # x - n h as (x - n0 h) - (n - n0) h: x - n0 h is exact, so each
    # distance is rounded once, even where n = n0 + m is not exact
    offset = v - n0 * _COMB_H - _COMB_OFFSETS * _COMB_H
    terms = np.exp(-(offset ** 2)) / (n0 + _COMB_OFFSETS)
    val[comb] = terms.cumsum(axis=1)[:, -1] / math.sqrt(math.pi)
    return val


def dawson(x):
    """Dawson integral D(x) = e^{-x^2} int_0^x e^{u^2} du, elementwise and odd.

    x must be finite. An array gives an array of its shape, a scalar a
    float.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for i in range(0, x.size, _BLOCK):
        flat_out[i:i + _BLOCK] = _dawson_block(np.abs(flat_x[i:i + _BLOCK]))
    np.copysign(out, x, out=out)
    return out if out.ndim else float(out)


def dawson_sine(z):
    """Sine transform of a unit Gaussian, int_0^inf e^{-t^2} sin(z t) dt.

    Equals dawson(z/2); the identity is verified against direct quadrature
    in the test suite instead of being assumed. Odd in z.
    """
    return dawson(0.5 * np.asarray(z, dtype=float))


# ---------------------------------------------------------------------------
# Composite Kronrod rule on [0, omega_max]
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


def composite_gk15_nodes(omega_max: float, max_oscillation: float):
    """The 15-point Kronrod rule on equal panels of [0, omega_max]: at least
    16, each at most half an oscillation period of the given rate wide (and
    at most 0.5), so that the rule stays in its rapidly convergent regime.

    Returns (nodes, weights).
    """
    h = min(0.5, math.pi / max(max_oscillation, 1.0))
    n_panels = max(16, math.ceil(omega_max / h))
    edges = np.linspace(0.0, omega_max, n_panels + 1)
    half = 0.5 * np.diff(edges)
    centers = 0.5 * (edges[1:] + edges[:-1])
    nodes = (centers[:, None] + half[:, None] * GK15_NODES).ravel()
    return nodes, (half[:, None] * GK15_WEIGHTS).ravel()


def integrate_semiinf(f, max_oscillation: float) -> float:
    """Integrate f over [0, inf) for integrands with Gaussian decay.

    f must accept an ndarray of abscissae and return the integrand values.
    The range is truncated at OMEGA_TRUNCATION and integrated by
    composite_gk15_nodes' rule, whose panels resolve oscillations up to
    max_oscillation (the integrand's highest angular frequency).
    """
    nodes, weights = composite_gk15_nodes(OMEGA_TRUNCATION, max_oscillation)
    return float(np.asarray(f(nodes), dtype=float) @ weights)


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


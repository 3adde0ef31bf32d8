"""Time-dependent decoherence rates of the dressed two-site system.

With the kernels K_c, K_s of the bath module, the second-order rates are
single integrals over the elapsed-time variable u = t - tau:

    gamma_pm(t) = 2 Jt^2 int_0^t [ e^{+-K_c(u)} cos(K_s(u)) - 1 ] du

where Jt = J e^{-K_c(0)/2} is the dressed hopping, read off the kernel
table's own first entry, so that a rate table has one K_c(0); the
quadrature route bath.kernel_cos(0) is the independent check of it. The
second-order expansion also yields a Lamb-shift rate
beta(t) = 2 Jt^2 int_0^t e^{K_c(u)} sin(K_s(u)) du, but it multiplies a
commutator with n1(1-n2) + n2(1-n1), which is the identity on the
single-particle sector, so it vanishes and beta(t) is not computed. A
RateTable stores gamma_+- only; the composite rates are derived from them
by their definitions,

    G0 = (2 gamma_+ - gamma_-)/2,  G1 = 2 gamma_+ + gamma_-,  G2 = 4 gamma_+,

and so are their running integrals, which is all the dynamics module
needs. gamma_+ >= gamma_- is typical but not guaranteed once cos(K_s)
changes sign, so it is not asserted here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bath import BathModel, KernelTable, build_kernel_table
from .errors import ConfigError, NumericalError
from .numerics import TimeGrid, cumulative_trapezoid

__all__ = ["RateTable", "build_rate_table", "build_rate_table_from_kernels", "rate_at"]

log = logging.getLogger(__name__)

# the columns rate_at interpolates: the stored gamma_+- and the derived rates
RATE_FIELDS = (
    "gamma_plus", "gamma_minus",
    "cap_gamma0", "cap_gamma1", "cap_gamma2",
    "cum_gamma0", "cum_gamma1", "cum_gamma2",
)


@dataclass(frozen=True)
class RateTable:
    """gamma_+-(t) on a grid; the composite rates G0-G2 and their running
    integrals are computed from them on each access."""

    grid: TimeGrid
    j_tilde: float
    gamma_plus: np.ndarray
    gamma_minus: np.ndarray

    def __post_init__(self):
        for name in ("gamma_plus", "gamma_minus"):
            object.__setattr__(self, name, self.grid.column(getattr(self, name), name))

    @property
    def cap_gamma0(self) -> np.ndarray:
        return 0.5 * (2.0 * self.gamma_plus - self.gamma_minus)

    @property
    def cap_gamma1(self) -> np.ndarray:
        return 2.0 * self.gamma_plus + self.gamma_minus

    @property
    def cap_gamma2(self) -> np.ndarray:
        return 4.0 * self.gamma_plus

    @property
    def cum_gamma0(self) -> np.ndarray:
        return cumulative_trapezoid(self.cap_gamma0, self.grid)

    @property
    def cum_gamma1(self) -> np.ndarray:
        return cumulative_trapezoid(self.cap_gamma1, self.grid)

    @property
    def cum_gamma2(self) -> np.ndarray:
        return cumulative_trapezoid(self.cap_gamma2, self.grid)


def build_rate_table_from_kernels(kernels: KernelTable, j_hop: float) -> RateTable:
    """Rates from an existing kernel table; the dressed hopping
    j_hop * exp(-K_c(0)/2) is read off the same table's k_cos[0]."""
    grid = kernels.grid
    j_tilde = j_hop * float(np.exp(-0.5 * kernels.k_cos[0]))
    try:
        pref = 2.0 * j_tilde**2
    except OverflowError:
        raise NumericalError(f"the rate prefactor 2 j_tilde^2 overflows at "
                             f"j_tilde={j_tilde:.6g}") from None

    cos_ks = np.cos(kernels.k_sin)
    f_plus = np.exp(kernels.k_cos) * cos_ks - 1.0
    f_minus = np.exp(-kernels.k_cos) * cos_ks - 1.0

    gamma_plus = pref * cumulative_trapezoid(f_plus, grid)
    gamma_minus = pref * cumulative_trapezoid(f_minus, grid)

    # soft monitor only: the ordering can flip once cos(K_s) changes sign
    crossings = np.nonzero(gamma_plus < gamma_minus - 1e-12)[0]
    if crossings.size:
        log.debug(
            "gamma_plus < gamma_minus first at t=%g (min gap %g)",
            grid.points[crossings[0]],
            float(np.min(gamma_plus - gamma_minus)),
        )
    return RateTable(grid=grid, j_tilde=j_tilde, gamma_plus=gamma_plus,
                     gamma_minus=gamma_minus)


def build_rate_table(model: BathModel, j_hop: float, grid: TimeGrid) -> RateTable:
    """Full rate table for a continuum bath model: the kernels are tabulated
    once on grid, and the dressed hopping is read off their k_cos[0], which
    is bath.kernel_zero bit for bit. The quadrature route kernel_cos(0) is
    the independent check of K_c(0)."""
    return build_rate_table_from_kernels(build_kernel_table(model, grid), j_hop)


def rate_at(table: RateTable, t, which: str):
    """Linear interpolation of a rate column (RATE_FIELDS) at a time
    (returns a float) or an array of times (returns an array); exact at
    grid points."""
    if which not in RATE_FIELDS:
        raise ConfigError(f"unknown rate selector {which!r}")
    pts = table.grid.points
    t = np.asarray(t, dtype=float)
    slack = 1e-12 * max(1.0, pts[-1])  # t + dt overshoots t_max by round-off
    if t.size and not (t.min() >= -slack and t.max() <= pts[-1] + slack):
        raise ConfigError(
            f"t in [{t.min()}, {t.max()}] outside rate table range [0, {pts[-1]}]")
    out = np.interp(t, pts, getattr(table, which))
    return float(out) if out.ndim == 0 else out

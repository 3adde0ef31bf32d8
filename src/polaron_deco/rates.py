"""Time-dependent decoherence rates of the dressed two-site system.

With the kernels K_c, K_s of the bath module, the second-order rates are
single integrals over the elapsed-time variable u = t - tau:

    gamma_pm(t) = 2 Jt^2 int_0^t [ e^{+-K_c(u)} cos(K_s(u)) - 1 ] du
    beta(t)     = 2 Jt^2 int_0^t   e^{+K_c(u)}  sin(K_s(u))       du

where Jt is the dressed hopping. The composite rates are stored redundantly
as definitions,

    G0 = (2 gamma_+ - gamma_-)/2,  G1 = 2 gamma_+ + gamma_-,  G2 = 4 gamma_+,

together with their running integrals, which is all the dynamics module
needs. gamma_+ >= gamma_- is typical but not guaranteed once cos(K_s)
changes sign, so it is not asserted here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bath import BathModel, KernelTable, build_kernel_table, effective_hopping_ratio
from .errors import ConfigError
from .numerics import QuadratureSpec, TimeGrid, cumulative_trapezoid

__all__ = ["RateTable", "build_rate_table", "build_rate_table_from_kernels", "rate_at"]

log = logging.getLogger(__name__)

RATE_FIELDS = (
    "gamma_plus", "gamma_minus", "beta",
    "cap_gamma0", "cap_gamma1", "cap_gamma2",
    "cum_gamma0", "cum_gamma1", "cum_gamma2",
)


@dataclass(frozen=True)
class RateTable:
    grid: TimeGrid
    j_tilde: float
    gamma_plus: np.ndarray
    gamma_minus: np.ndarray
    beta: np.ndarray
    cap_gamma0: np.ndarray
    cap_gamma1: np.ndarray
    cap_gamma2: np.ndarray
    cum_gamma0: np.ndarray
    cum_gamma1: np.ndarray
    cum_gamma2: np.ndarray

    def __post_init__(self):
        for name in RATE_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.points.shape:
                raise ConfigError(f"{name} length does not match grid")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_csv(self, path):
        """Debug dump of the raw rates and running integrals."""
        from .output import write_csv

        write_csv(path, ["t", "gamma_plus", "gamma_minus", "beta",
                         "cum_gamma0", "cum_gamma1", "cum_gamma2"],
                  [self.grid.points, self.gamma_plus, self.gamma_minus,
                   self.beta, self.cum_gamma0, self.cum_gamma1, self.cum_gamma2])


def build_rate_table_from_kernels(kernels: KernelTable, j_hop: float,
                                  j_tilde: float | None = None) -> RateTable:
    """Rates from an existing kernel table.

    The dressed hopping defaults to j_hop * exp(-K_c(0)/2), i.e. it is read
    off the same kernel table; pass j_tilde to override.
    """
    grid = kernels.grid
    if j_tilde is None:
        j_tilde = j_hop * float(np.exp(-0.5 * kernels.k_cos[0]))
    pref = 2.0 * j_tilde**2

    cos_ks = np.cos(kernels.k_sin)
    f_plus = np.exp(kernels.k_cos) * cos_ks - 1.0
    f_minus = np.exp(-kernels.k_cos) * cos_ks - 1.0
    f_beta = np.exp(kernels.k_cos) * np.sin(kernels.k_sin)

    gamma_plus = pref * cumulative_trapezoid(f_plus, grid)
    gamma_minus = pref * cumulative_trapezoid(f_minus, grid)
    beta = pref * cumulative_trapezoid(f_beta, grid)

    # soft monitor only: the ordering can flip once cos(K_s) changes sign
    crossings = np.nonzero(gamma_plus < gamma_minus - 1e-12)[0]
    if crossings.size:
        log.debug(
            "gamma_plus < gamma_minus first at t=%g (min gap %g)",
            grid.points[crossings[0]],
            float(np.min(gamma_plus - gamma_minus)),
        )

    cap0 = 0.5 * (2.0 * gamma_plus - gamma_minus)
    cap1 = 2.0 * gamma_plus + gamma_minus
    cap2 = 4.0 * gamma_plus

    return RateTable(
        grid=grid,
        j_tilde=j_tilde,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        beta=beta,
        cap_gamma0=cap0,
        cap_gamma1=cap1,
        cap_gamma2=cap2,
        cum_gamma0=cumulative_trapezoid(cap0, grid),
        cum_gamma1=cumulative_trapezoid(cap1, grid),
        cum_gamma2=cumulative_trapezoid(cap2, grid),
    )


def build_rate_table(model: BathModel, j_hop: float, grid: TimeGrid,
                     kernels: KernelTable | None = None,
                     spec: QuadratureSpec | None = None) -> RateTable:
    """Full rate table for a continuum bath model.

    Kernels are tabulated once per (model, grid) and reused; the dressed
    hopping comes from the closed-form ratio so the two routes stay
    independently testable.
    """
    if kernels is None:
        kernels = build_kernel_table(model, grid, spec)
    elif kernels.grid != grid:
        raise ConfigError("kernel table grid does not match rate grid")
    j_tilde = j_hop * effective_hopping_ratio(model)
    return build_rate_table_from_kernels(kernels, j_hop, j_tilde=j_tilde)


def rate_at(table: RateTable, t, which: str):
    """Linear interpolation of a stored rate column at a time (returns a float)
    or an array of times (returns an array); exact at grid points."""
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

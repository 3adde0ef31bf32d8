"""Reduced dynamics in the singlet-triplet basis.

Basis convention: |S> = (|10> - |01>)/sqrt(2), |T> = (|10> + |01>)/sqrt(2).
2x2 matrices are indexed [T, S], so rho_st = <S|rho|T> sits at [1, 0].

Two independent evolution routes are provided and must agree:

* evolve_ode integrates the coupled equations with fixed-step RK4,
      d rho_TT/dt = -G0 (rho_TT - rho_SS)
      d rho_SS/dt = -G0 (rho_SS - rho_TT)
      d rho_TS/dt = -(g_- + 6 g_+)/2 rho_TS - (g_- - 2 g_+)/2 rho_ST
  as a cumulative product of per-step amplification factors (_rk4_run); the
  trace and Hermiticity are structural, not integrated.

* evolve_closed_form evaluates the exact solution of those equations,
      rho_SS(t)  = 1/2 rho_SS(0) [1 + e^{-2 I0}] + 1/2 rho_TT(0) [1 - e^{-2 I0}]
      rho_ST(t)  = 1/2 rho_ST(0) [e^{-I1} + e^{-I2}] + 1/2 rho_TS(0) [e^{-I1} - e^{-I2}]
  with Ik = int_0^t Gk. Note the factor 2 on I0: the population difference
  obeys d(rho_TT - rho_SS)/dt = -2 G0 (rho_TT - rho_SS), so its decay
  exponent is twice the running integral of G0.

The symmetric part of the coherence (Re rho_TS) decays with G1 and the
antisymmetric part (Im rho_TS) with G2; the rate-free beta(t) term enters
only through a commutator with n1(1-n2) + n2(1-n1), which is the identity
on the single-particle sector, so it drops out of these equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, PositivityError
from .numerics import TimeGrid
from .rates import RateTable, rate_at

__all__ = [
    "DensityMatrixST",
    "Trajectory",
    "evolve_ode",
    "evolve_closed_form",
    "trajectory_from_matrices",
]

TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-8
# largest final-state change evolve_ode accepts between steps dt and dt/2
SELF_CHECK_TOL = 1e-8


def _min_eigenvalues(rho_ss, rho_tt, rho_st):
    """Smaller eigenvalue of unit-trace 2x2 states, elementwise; a state is
    positive when it is at least -POSITIVITY_TOL."""
    d = rho_tt - rho_ss
    return 0.5 * (1.0 - np.sqrt(d * d + 4.0 * np.abs(rho_st) ** 2))


@dataclass(frozen=True)
class DensityMatrixST:
    """2x2 Hermitian unit-trace state in the singlet-triplet basis.

    rho_st is <S|rho|T>; <T|rho|S> is its conjugate and is not stored.
    """

    rho_ss: float
    rho_tt: float
    rho_st: complex

    def __post_init__(self):
        if not np.isfinite([self.rho_ss, self.rho_tt, self.rho_st]).all():
            raise ConfigError(f"state must be finite, got {self}")
        if abs(self.rho_ss + self.rho_tt - 1.0) > TRACE_TOL:
            raise ConfigError(
                f"trace must be 1 within {TRACE_TOL}: rho_ss + rho_tt = "
                f"{self.rho_ss + self.rho_tt}"
            )
        for name in ("rho_ss", "rho_tt"):
            v = getattr(self, name)
            if v < -TRACE_TOL or v > 1.0 + TRACE_TOL:
                raise ConfigError(f"{name}={v} outside [0, 1]")
        if self.min_eigenvalue() < -POSITIVITY_TOL:
            raise ConfigError(
                f"not positive semidefinite: minimum eigenvalue {self.min_eigenvalue()}")

    @classmethod
    def from_parts(cls, rho_ss: float, rho_st: complex) -> "DensityMatrixST":
        return cls(rho_ss=rho_ss, rho_tt=1.0 - rho_ss, rho_st=complex(rho_st))

    @classmethod
    def maximally_mixed(cls) -> "DensityMatrixST":
        return cls(rho_ss=0.5, rho_tt=0.5, rho_st=0.0)

    def min_eigenvalue(self) -> float:
        return float(_min_eigenvalues(self.rho_ss, self.rho_tt, self.rho_st))

    def matrix(self) -> np.ndarray:
        """Dense [T, S]-ordered matrix."""
        return np.array(
            [[self.rho_tt, np.conj(self.rho_st)], [self.rho_st, self.rho_ss]],
            dtype=complex,
        )


@dataclass(frozen=True)
class Trajectory:
    """States and observables along a time grid.

    coherence holds C(t) = |rho_st(t)| / |rho_st(0)| when the initial
    coherence is nonzero (coherence_normalized True); otherwise the raw
    |rho_st(t)| with the flag set False. pop_diff is
    |rho_tt - rho_ss| / (rho_tt(0) + rho_ss(0)).

    Building one checks every state: a non-finite entry raises
    NumericalError, and a trace off by more than TRACE_TOL or an eigenvalue
    below -POSITIVITY_TOL raises PositivityError.
    """

    grid: TimeGrid
    rho_ss: np.ndarray
    rho_tt: np.ndarray
    rho_st: np.ndarray
    coherence: np.ndarray = field(init=False, repr=False, compare=False)
    pop_diff: np.ndarray = field(init=False, repr=False, compare=False)
    coherence_normalized: bool = field(init=False, compare=False)

    def __post_init__(self):
        for name, kind in (("rho_ss", float), ("rho_tt", float), ("rho_st", complex)):
            object.__setattr__(self, name, self.grid.column(getattr(self, name), name, kind))
        finite = np.isfinite(self.rho_ss) & np.isfinite(self.rho_tt) & np.isfinite(self.rho_st)
        if not finite.all():
            raise NumericalError(
                f"non-finite state first at t={self.grid.points[np.argmin(finite)]:.6g}")
        if self.trace_error() > TRACE_TOL:
            raise PositivityError(f"trace error {self.trace_error():.3e} > {TRACE_TOL}")
        mins = self.min_eigenvalues()
        bad = np.nonzero(mins < -POSITIVITY_TOL)[0]
        if bad.size:
            t_first = float(self.grid.points[bad[0]])
            raise PositivityError(
                f"negative eigenvalue {mins[bad[0]]:.3e} first at t={t_first:.6g}",
                t_first=t_first,
            )
        c0 = abs(self.rho_st[0])
        normalized = c0 > 0.0
        coh = np.abs(self.rho_st) / c0 if normalized else np.abs(self.rho_st)
        denom = self.rho_tt[0] + self.rho_ss[0]
        pd = np.abs(self.rho_tt - self.rho_ss) / denom
        coh.setflags(write=False)
        pd.setflags(write=False)
        object.__setattr__(self, "coherence", coh)
        object.__setattr__(self, "pop_diff", pd)
        object.__setattr__(self, "coherence_normalized", normalized)

    def trace_error(self) -> float:
        return float(np.max(np.abs(self.rho_ss + self.rho_tt - 1.0)))

    def min_eigenvalues(self) -> np.ndarray:
        return _min_eigenvalues(self.rho_ss, self.rho_tt, self.rho_st)

    def table(self):
        """(header, columns, comments) of the trajectory's CSV."""
        return (["t", "rho_ss", "rho_tt", "re_rho_st", "im_rho_st", "C", "P_D"],
                [self.grid.points, self.rho_ss, self.rho_tt,
                 self.rho_st.real, self.rho_st.imag, self.coherence, self.pop_diff],
                ())

    def to_csv(self, path):
        from .output import write_csv

        write_csv(path, *self.table())


def trajectory_from_matrices(grid: TimeGrid, matrices: np.ndarray) -> Trajectory:
    """Wrap an array of [T, S]-ordered 2x2 matrices as a checked Trajectory."""
    matrices = np.asarray(matrices, dtype=complex)
    return Trajectory(grid=grid, rho_ss=matrices[:, 1, 1].real,
                      rho_tt=matrices[:, 0, 0].real, rho_st=matrices[:, 1, 0])


def _closed_form_arrays(rho0: DensityMatrixST, rates: RateTable):
    e0 = np.exp(-2.0 * rates.cum_gamma0)
    e1 = np.exp(-rates.cum_gamma1)
    e2 = np.exp(-rates.cum_gamma2)
    rho_ss = 0.5 * rho0.rho_ss * (1.0 + e0) + 0.5 * rho0.rho_tt * (1.0 - e0)
    rho_tt = 1.0 - rho_ss
    rts0 = np.conj(rho0.rho_st)
    rho_st = 0.5 * rho0.rho_st * (e1 + e2) + 0.5 * rts0 * (e1 - e2)
    return rho_ss, rho_tt, rho_st


def evolve_closed_form(rho0: DensityMatrixST, rates: RateTable) -> Trajectory:
    """Exact solution on the rate grid, from the running integrals of G0-G2."""
    rho_ss, rho_tt, rho_st = _closed_form_arrays(rho0, rates)
    return Trajectory(grid=rates.grid, rho_ss=rho_ss, rho_tt=rho_tt, rho_st=rho_st)


def _rk4_run(rho0: DensityMatrixST, rates: RateTable, refine: int = 1):
    """RK4 at spacing h = dt/refine; returns (rho_SS, Re rho_TS, Im rho_TS).

    z = 2 rho_SS - 1, Re rho_TS and Im rho_TS each obey y' = -g(t) y, with
    g = 2 G0, G1 and G2. One RK4 step multiplies y by the amplification factor
    R = 1 - (a+4b+c)/6 + (ab+b^2+bc)/6 - (ab^2+b^2c)/12 + ab^2c/24, where
    a, b, c are h*g at the start, middle and end of the step, so the states
    on the grid are y0 times a cumulative product of R.
    """
    h = rates.grid.dt / refine
    start = (rates.grid.points[:-1, None] + h * np.arange(refine)).ravel()
    a, b, c = (h * np.stack([2.0 * rate_at(rates, t, "cap_gamma0"),
                             rate_at(rates, t, "cap_gamma1"),
                             rate_at(rates, t, "cap_gamma2")])
               for t in (start, start + 0.5 * h, start + h))
    amp = (1.0 - (a + 4.0 * b + c) / 6.0 + b * (a + b + c) / 6.0
           - b * b * (a + c) / 12.0 + a * b * b * c / 24.0)
    y0 = np.array([[2.0 * rho0.rho_ss - 1.0], [rho0.rho_st.real], [-rho0.rho_st.imag]])
    y = np.hstack([y0, y0 * np.cumprod(amp, axis=1)[:, refine - 1::refine]])
    return np.column_stack([0.5 * (1.0 + y[0]), y[1], y[2]])


def evolve_ode(rho0: DensityMatrixST, rates: RateTable) -> Trajectory:
    """RK4 integration of the rate equations on the rate grid.

    Rates at half steps are linearly interpolated from the table. Every run
    performs a step-halving self check: the final state is recomputed at
    dt/2 and the difference must stay below SELF_CHECK_TOL (RK4 global
    error scales as dt^4, so a failure flags an inadequate grid).
    """
    out = _rk4_run(rho0, rates, refine=1)
    fine_end = _rk4_run(rho0, rates, refine=2)[-1]
    drift = float(np.max(np.abs(out[-1] - fine_end)))
    if not np.isfinite(drift) or drift > SELF_CHECK_TOL:
        raise NumericalError(
            f"step-halving self check failed: dt vs dt/2 differ by {drift:.3e} "
            f"(tolerance {SELF_CHECK_TOL:.1e}); refine the grid"
        )
    # rho_TS = x + i y, stored amplitude is its conjugate rho_ST
    rho_st = out[:, 1] - 1j * out[:, 2]
    return Trajectory(grid=rates.grid, rho_ss=out[:, 0], rho_tt=1.0 - out[:, 0],
                      rho_st=rho_st)


"""Bang-bang protection: swap the sites faster than the bath can look.

Each cycle evolves for delta_t, swaps the two sites (Pi = a1+ a2 + a2+ a1,
an instantaneous pi pulse), evolves again and swaps back, so the part of the
coupling that distinguishes the sites averages away. The residual error per
cycle is third order in delta_t; over the fixed total time T = 2 N delta_t
the trace distance to the initial state should therefore shrink like
delta_t^2 as pulses are packed more densely.

There is a catch worth seeing: the site-symmetric half of the coupling,
proportional to g_1 + g_2, survives the pulses. It cannot decohere the qubit
by itself, but it displaces the bath, and the displaced background turns the
leading error coherent, degrading the scaling toward delta_t^1. The default
bath (modes at omega = 1 and 3 with scattering phase s = pi) has
omega * s = pi mod 2pi for both modes, so that symmetric coupling cancels
identically and the clean quadratic scaling is visible.
"""

import os

import numpy as np

from polaron_deco import DensityMatrixST, PulseSchedule, run_bangbang
from polaron_deco.oracle import ohmic_mode_config
from polaron_deco.output import ensure_dir, write_csv, write_svg

out_dir = ensure_dir(os.path.join(os.path.dirname(__file__), "out",
                                  "04_pulse_protection"))

rho0 = DensityMatrixST.from_parts(2.0 / 3.0, np.sqrt(2.0) / 3.0)
schedules = [PulseSchedule(total_time=4.0, cycles=n) for n in (4, 8, 16, 32, 64)]

cfg = ohmic_mode_config()  # s = pi: symmetric coupling cancels
report = run_bangbang(cfg, rho0, schedules)
write_csv(os.path.join(out_dir, "scaling.csv"), *report.table())

print("default bath (omega*s = pi mod 2pi for every mode)")
print(f"{'N':>4} {'delta_t':>9} {'D pulsed':>11} {'D free':>9}")
for row in sorted(report.results, key=lambda r: r.n_cycles):
    print(f"{row.n_cycles:>4} {row.delta_t:>9.5f} {row.distance_pulsed:>11.3e} "
          f"{row.distance_free:>9.4f}")
print(f"fitted scaling exponent: {report.fitted_slope:.2f} (2 expected)\n")

# same bath geometry but s = 1: the surviving collective displacement
# makes the leading pulsed error coherent and flattens the slope
cfg_slow = ohmic_mode_config(s=1.0)
report_slow = run_bangbang(cfg_slow, rho0, schedules)
print(f"s = 1 bath: fitted exponent drops to {report_slow.fitted_slope:.2f}")

write_svg(os.path.join(out_dir, "scaling.svg"),
          [r.delta_t for r in report.results],
          {"s=pi pulsed": [r.distance_pulsed for r in report.results],
           "s=1 pulsed": [r.distance_pulsed for r in report_slow.results],
           "s=pi free": [r.distance_free for r in report.results]},
          title="protection error vs pulse spacing", x_label="delta_t",
          y_label="trace distance", log_x=True, log_y=True)
print(f"outputs in {out_dir}")

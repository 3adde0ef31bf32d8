"""Brute force against the rate equation, on the same discrete bath.

A couple of truncated bosonic modes are small enough to propagate exactly
(a Chebyshev series on the truncated space), which gives a no-approximation
reference for the reduced dynamics. Feeding the very same mode set into the
rate-equation kernels (a sum replaces the continuum integral) removes
discretization from the comparison. The residual that remains is not mainly
the time-local / weak-dressing approximation: it is dominated by the exact
run starting in the bare bath vacuum and being reported in the lab frame
(the rate equation assumes a factorized polaron-frame state), and, at s = 1,
by a phase of the dressed hopping that the rate equation does not have
(LangFirsovReport.hop_phase).

The rate treatment is trustworthy when the dressed hopping is small against
the lowest bath frequency; the script prints that ratio next to the RMS
coherence mismatch, then shows how the agreement degrades as the coupling
grows out of the regime.
"""

import os

import numpy as np

from polaron_deco import DensityMatrixST, TimeGrid, compare_with_master_equation
from polaron_deco.oracle import ohmic_mode_config
from polaron_deco.output import ensure_dir, write_csv, write_svg

out_dir = ensure_dir(os.path.join(os.path.dirname(__file__), "out",
                                  "03_exact_vs_rate_equation"))

grid = TimeGrid(t_max=10.0, dt=0.0125)
rho0 = DensityMatrixST.from_parts(2.0 / 3.0, np.sqrt(2.0) / 3.0)

print(f"{'coupling':>9} {'Jt/dE_B':>9} {'rms dC':>9}")
reference = None
for lam in (0.05, 0.1, 0.2, 0.5, 1.0):
    cfg = ohmic_mode_config(n_modes=2, n_max=5, coupling=lam, s=1.0, j_hop=0.1)
    comp = compare_with_master_equation(cfg, rho0, grid)
    print(f"{lam:>9g} {comp.adiabaticity_ratio:>9.4f} {comp.rms_coherence_diff:>9.4f}")
    if lam == 0.1:
        reference = comp

write_csv(os.path.join(out_dir, "compare.csv"),
          ["t", "C_exact", "C_master"],
          [grid.points, reference.exact.coherence, reference.master.coherence])
write_svg(os.path.join(out_dir, "compare.svg"), grid.points,
          {"exact": reference.exact.coherence, "rate eq": reference.master.coherence},
          title="exact vs rate equation (coupling 0.1)", x_label="t", y_label="C(t)")

# the exact curve wiggles because the lab-frame state carries the boson
# dressing; the rate equation lives in the dressed frame and cannot see it
print(f"\nexact C dips to {np.min(reference.exact.coherence):.4f}, "
      f"rate equation stays above {np.min(reference.master.coherence):.4f}")
print(f"outputs in {out_dir}")

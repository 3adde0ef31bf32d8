"""Numerical verification of the algebra the rate pipeline rests on.

Three statements are checked by direct computation rather than trusted:

1. The displacement e^-S turns each site's bath vacuum into a product of
   coherent states, and the transform e^S H e^-S turns the bare hopping
   into J exp(-sum |alpha_k|^2 / 2) (reported with its phase).
2. The tau = 0 correlation kernel from quadrature coincides with its
   Dawson-function closed form (two fully independent evaluation routes).
3. The would-be energy-shift term of the rate equation multiplies
   n1(1-n2) + n2(1-n1), which is the identity on the one-particle states,
   so its commutator with any state vanishes and it drops out of the
   dynamics.
"""

import numpy as np

from polaron_deco import (
    BathModel,
    DensityMatrixST,
    TruncatedBathConfig,
    kernel_cos,
    lang_firsov_check,
)

# 1. displacement transform, one mode with alpha = 0.5
cfg = TruncatedBathConfig(mode_freqs=(1.0,), g_site1=(0.5,), g_site2=(0.0,),
                          n_max=12, j_hop=1.0, epsilon_onsite=0.0)
report = lang_firsov_check(cfg)
print("displacement transform (single mode, alpha = 0.5, n_max = 12)")
print(f"  e^-S|p,vac> vs coherent states     : {report.displaced_vacuum_dev:.2e}")
print(f"  dressed hopping |<1,vac|H'|2,vac>|  : {report.hop_measured:.10f}")
print(f"  its phase arg <1,vac|H'|2,vac>      : {report.hop_phase:+.2e} rad")
print(f"  expected J exp(-|alpha|^2/2)        : {report.hop_expected:.10f}")
print(f"  Fock-truncation tail estimate       : {report.truncation_tail:.1e}")

# 2. kernel zero, quadrature route vs special-function route
print("\nkernel normalization, quadrature vs Dawson closed form")
for lam, s in ((0.1, 0.1), (1.0, 1.0), (5.0, 100.0)):
    model = BathModel(lambda_g=lam, s=s)
    a = kernel_cos(0.0, model)
    b = model.kernel_zero()
    print(f"  lam={lam:<4g} s={s:<6g}: {a:.12f} vs {b:.12f}  (diff {abs(a-b):.1e})")

# 3. the inert energy-shift term, on the one-particle states |10>, |01>:
# n1 -> diag(1, 0), n2 -> diag(0, 1)
n1, n2, eye = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)
op = n1 @ (eye - n2) + n2 @ (eye - n1)
states = [DensityMatrixST.from_parts(2.0 / 3.0, np.sqrt(2.0) / 3.0).matrix(),
          DensityMatrixST.maximally_mixed().matrix()]
rng = np.random.default_rng(11)
for _ in range(32):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    states.append(rho / np.trace(rho).real)
identity_dev = float(np.max(np.abs(op - eye)))
worst = max(float(np.max(np.abs(op @ rho - rho @ op))) for rho in states)
print("\nenergy-shift operator on the one-particle sector")
print(f"  matrix:\n{np.array_str(op, precision=3)}")
print(f"  deviation from identity  : {identity_dev:.1e}")
print(f"  worst commutator entry   : {worst:.1e}")
print(f"  term drops out of the dynamics: {identity_dev < 1e-15 and worst < 1e-15}")

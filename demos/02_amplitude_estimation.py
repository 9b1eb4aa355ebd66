"""Amplitude estimation: outcome law, exact phases, and the QPE cross-check.

Amplitude estimation runs phase estimation on the Grover operator of a state
preparer.  The t-qubit register returns y, and sin^2(pi*y/2^t) estimates the
good-branch probability a with angle error at most pi/2^t in at least
8/pi^2 ~ 81% of runs.  When the angle sits exactly on the grid (a = 0, 1/2, 1)
the estimate is exact every single time.
"""

import math

import numpy as np

from qlof import amplitude_estimate, amplitude_estimate_via_qpe
from qlof.qsim import StateVector, ae_mixture, grover_operator, phase_distribution

rng = np.random.default_rng(0)

# Exact-phase certainties.
for a in (0.0, 0.5, 1.0):
    est = amplitude_estimate(a, t=4, rng=rng)
    print(f"a = {a}: estimate {est.a_hat} (exact)")

# Generic amplitude: the estimate sits on the sin^2 grid near the truth.
a = 0.37
theta = math.asin(math.sqrt(a))
ests = [amplitude_estimate(a, t=6, rng=rng).a_hat for _ in range(8)]
print(f"\na = {a}: eight draws at t=6 ->", np.round(ests, 4))

# Calibration: fraction of draws within the angle bound, per precision.
print("\n t   bound=pi/2^t   fraction within bound (200 random amplitudes)")
for t in (4, 6, 8):
    hits = 0
    for aa in rng.random(200):
        th = math.asin(math.sqrt(aa))
        est = amplitude_estimate(float(aa), t, rng)
        hits += abs(est.theta_hat - th) <= math.pi / 2**t
    print(f" {t}   {math.pi / 2**t:.5f}        {hits / 200:.3f}  (floor 8/pi^2 = 0.811)")

# The sampling law equals full statevector phase estimation on the Grover
# operator, bin for bin.
sv = StateVector([("q", 1)])
th = math.asin(math.sqrt(0.37))
sv.amps = np.array([math.sin(th), math.cos(th)], dtype=complex)
op = grover_operator(sv, ("q", 0))
law = ae_mixture(op.theta, t=5)
qpe = phase_distribution(op.matrix, op.psi, t=5)
print(f"\nmax |law - statevector QPE| over all bins: {np.abs(law - qpe).max():.2e}")
est = amplitude_estimate_via_qpe(sv, ("q", 0), t=5, rng=rng)
print(f"one full-QPE estimate of a = 0.37: {est.a_hat:.4f}")

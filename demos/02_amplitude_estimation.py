"""Amplitude estimation: outcome law, exact phases, and calibration.

Amplitude estimation runs phase estimation on the Grover operator of a state
preparer.  The t-qubit register returns y, and sin^2(pi*y/2^t) estimates the
good-branch probability a with angle error at most pi/2^t in at least
8/pi^2 ~ 81% of runs.  When the angle sits exactly on the grid (a = 0, 1/2, 1)
the estimate is exact every single time.  The tests check the sampled law
against statevector phase estimation, bin for bin (``tests/reference.py``).
"""

import math

import numpy as np

from qlof import amplitude_estimate

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

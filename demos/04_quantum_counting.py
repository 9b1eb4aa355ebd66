"""Quantum counting: how many inputs satisfy a predicate.

Counting is amplitude estimation of the uniform superposition against the
predicate: a = T/m, so the register outcome y gives T_hat = m*sin^2(pi*y/2^t).
When T/m lands on the sin^2 grid the count is exact with certainty; otherwise
the raw estimate lies within the usual phase-estimation tolerance.
"""

import numpy as np

from qlof import quantum_count
from qlof.primitives import counting_tolerance

rng = np.random.default_rng(2)
m = 8

print("true T   estimates over 10 runs (t = 5)")
for true_t in range(m + 1):
    marked = np.arange(m) < true_t
    counts = [quantum_count(marked, 5, rng).count for _ in range(10)]
    print(f"  {true_t}      {counts}")

# Exactly representable fractions are certain: T/m = 1/2 at t >= 2.
runs = [quantum_count(np.arange(m) < 4, 3, rng).count for _ in range(200)]
print(f"\nT = 4 of 8 (a = 1/2, grid-exact): {len(set(runs))} distinct outcome(s) in 200 runs")

# The raw (unrounded) estimate lies within the derived tolerance in at least
# 8/pi^2 of runs; the tail beyond it thins out like phase estimation's.
t = 5
print("\ntrue T   tolerance   fraction within tolerance over 200 runs")
for true_t in (1, 3, 6):
    marked = np.arange(m) < true_t
    hits = sum(
        abs(quantum_count(marked, t, rng).raw - true_t)
        <= counting_tolerance(m, true_t, t)
        for _ in range(200)
    )
    print(f"  {true_t}      {counting_tolerance(m, true_t, t):.3f}       {hits / 200:.3f}")

# Ledger charges: 2^t - 1 predicate applications per estimate.
from qlof import QueryLedger

led = QueryLedger()
quantum_count(np.arange(m) == 0, 6, rng, ledger=led, charge={"pred": 1})
print(f"\none t=6 estimate charged {led.get('pred')} predicate queries (= 2^6 - 1)")

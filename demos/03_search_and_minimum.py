"""Grover search with unknown solution counts and Durr-Hoyer minimum finding.

Both run here in two interchangeable ways: statevector iterations ("exact")
or sampling from the closed-form success law while counting oracle queries
("ledger").  The query ledger shows the sqrt(m) scaling directly.
"""

import math

import numpy as np

from qlof import QueryLedger, grover_search, kth_smallest, quantum_min

rng = np.random.default_rng(1)

# Search for one marked element of 64 without knowing how many are marked.
led = QueryLedger()
found = grover_search(np.arange(64) == 23, rng, ledger=led)
print(f"search 64 elements for {{23}}: found {found} in {led.get('pred')} oracle queries")
print(f"(classical expectation would be ~32 queries; repeated runs stay near sqrt(64) = 8)")

# An empty predicate exhausts the schedule and reports not-found.
led = QueryLedger()
print("\nempty predicate returns:", grover_search(np.zeros(64, dtype=bool), rng, ledger=led))

# Minimum finding: threshold descent under a 22.5*sqrt(m) query budget.
values = rng.random(256)
res = quantum_min(values, rng)
print(
    f"\nminimum of 256 random values: index {res.index} "
    f"(true argmin {int(np.argmin(values))}), {res.queries} value queries"
)

# Median queries across sizes: the exponent hugs 1/2.
print("\n   m   median value queries   22.5*sqrt(m)")
meds = []
sizes = (16, 64, 256, 1024)
for m in sizes:
    qs = []
    for trial in range(9):
        r = np.random.default_rng(100 * m + trial)
        vals = r.random(m)
        qs.append(quantum_min(vals, r).queries)
    meds.append(float(np.median(qs)))
    print(f"{m:>5}   {meds[-1]:>12.0f}           {22.5 * math.sqrt(m):8.0f}")
slope = np.polyfit(np.log(sizes), np.log(meds), 1)[0]
print(f"fitted exponent: {slope:.3f} (claim: 1/2)")

# k-th smallest by k successive minimum searches with exclusion.
vals = np.array([5.0, 1.0, 4.0, 2.0])
res = kth_smallest(vals, 2, rng, boost=3)
print(f"\n2nd smallest of {vals.tolist()}: value {res.value}, indices found {sorted(res.indices)}")

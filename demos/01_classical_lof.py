"""Classical local outlier factor on a tiny line of points.

Three clustered points at 0, 1, 2 and one straggler at 10.  LOF compares each
point's local reachability density with its neighbors' densities: cluster
points score near 1, the straggler scores far above it.
"""

import math

import numpy as np

from qlof import build_table, flag, from_points

ds = from_points([[0.0], [1.0], [2.0], [10.0]])
print(f"dataset: m={ds.m}, n={ds.n}, normalization constant C={ds.c_norm}")

# The library works in normalized distances d / (sqrt(n) * C); this factor
# converts its k-distances and densities back to raw units.
unit = math.sqrt(ds.n) * ds.c_norm

# Full report with the anomaly threshold delta = 1.5.
report = flag(ds, k=2, delta=1.5)

# The k-distance (k = 2) of each point, in raw units.
for i, row in enumerate(build_table(ds, 2).rows):
    print(f"point {i}: k-distance {report.kdist[i] * unit:4.1f}, neighbors {row.neighbors}")

# Densities: the straggler is far less dense than the cluster.
print("\nlocal reachability densities:", np.round(report.lrd / unit, 4))

print("\nindex  lof      flagged")
for row in report.point_dicts():
    print(f"{row['index']:>5}  {row['lof']:<7.4f}  {row['flagged']}")
print(f"\nflagged points: {report.flagged_indices()} (expected: the straggler, index 3)")

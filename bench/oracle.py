"""Brute-force LOF oracle, written apart from ``qlof`` so it can catch a defect there.

Breunig et al. (2000) definitions, vectorised over the full pairwise matrix:
the k-distance of p is the k-th smallest distance from p to another point,
p's neighborhood is every other point within its k-distance (more than k on
ties), reach-dist(p, o) = max(k-distance(o), d(p, o)), lrd(p) is the inverse
mean reach-dist over p's neighborhood, and LOF(p) is the mean of lrd(o)/lrd(p)
over that neighborhood.  LOF is scale-free, so raw Euclidean distances serve.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9  # float summation order differs from qlof's; LOF values agree far closer


def lof(points, k: int) -> np.ndarray:
    x = np.asarray(points, dtype=float)
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(d, np.inf)
    kdist = np.sort(d, axis=1)[:, k - 1]
    nbr = d <= kdist[:, None]
    count = nbr.sum(axis=1)
    reach = np.maximum(kdist[None, :], d)
    lrd = count / np.where(nbr, reach, 0.0).sum(axis=1)
    return np.where(nbr, lrd[None, :], 0.0).sum(axis=1) / count / lrd


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1.0)

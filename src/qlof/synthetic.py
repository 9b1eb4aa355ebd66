"""Reproducible synthetic datasets for tests and scaling sweeps."""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, from_points, raw_distance_matrix


def random_dataset(
    m: int,
    n: int,
    rng: np.random.Generator,
    min_gap_frac: float = 0.05,
) -> Dataset:
    """m points in the unit box with pairwise distances >= min_gap_frac * c_norm.

    The gap guard keeps amplitude-estimation error bounds non-degenerate and
    rules out near-duplicate points.  In one dimension the points are built
    from gaps that each exceed the floor by construction; in higher dimensions
    dart throwing with radius slightly above min_gap_frac suffices because
    c_norm never exceeds the box side.
    """
    if m < 2:
        raise ValueError("need at least two points")
    if n == 1:
        base = min_gap_frac * 1.05
        if (m - 1) * base >= 1.0:
            raise ValueError(f"cannot fit {m} points with gap {base} in the unit interval")
        w = rng.random(m - 1)
        gaps = base + (1.0 - (m - 1) * base) * (w / w.sum())
        pts = np.concatenate([[0.0], np.cumsum(gaps)])[:, None]
        rng.shuffle(pts)
        return from_points(pts)

    radius = min_gap_frac * 1.1
    for _ in range(200):
        pts: list[np.ndarray] = []
        ok = True
        for _ in range(m):
            for _ in range(400):
                cand = rng.random(n)
                if all(np.linalg.norm(cand - p) >= radius for p in pts):
                    pts.append(cand)
                    break
            else:
                ok = False
                break
        if ok:
            return from_points(np.array(pts))
    raise RuntimeError(f"could not place {m} points with gap {radius} in {n}-D")


# Distance between the two cluster centers and the clusters' standard
# deviation, in the same units.
_SEPARATION = 4.0
_SPREAD = 0.6


def gaussian_clusters(
    m: int,
    n: int,
    rng: np.random.Generator,
    contamination: float = 0.1,
) -> Dataset:
    """Two Gaussian clusters plus planted outliers on a distant shell.

    ``contamination`` in [0, 1) is the share of outliers, at least one.
    Kept deliberately mild: cluster spread within ~an order of magnitude of
    the full coordinate range, so normalized distances stay resolvable by the
    amplitude-estimation grid and density ratios stay within a few integer
    bits of fixed point.
    """
    if n < 1:
        raise ValueError(f"need at least one dimension, got {n}")
    if not 0.0 <= contamination < 1.0:
        raise ValueError(f"contamination {contamination} outside [0, 1)")
    n_out = max(1, int(round(contamination * m)))
    n_in = m - n_out
    if n_in < 2:
        raise ValueError("contamination leaves fewer than two cluster points")
    centers = np.zeros((2, n))
    centers[0, 0] = -_SEPARATION / 2.0
    centers[1, 0] = +_SEPARATION / 2.0
    half = n_in // 2
    pts = [
        centers[0] + _SPREAD * rng.standard_normal((half, n)),
        centers[1] + _SPREAD * rng.standard_normal((n_in - half, n)),
    ]
    # Outliers: uniform directions at 1.5-2.5x the cluster separation.
    dirs = rng.standard_normal((n_out, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = _SEPARATION * (1.5 + rng.random(n_out))
    pts.append(dirs * radii[:, None])
    allpts = np.vstack(pts)
    # Exact duplicates would make densities undefined; nudge any collisions.
    for _ in range(16):
        d = raw_distance_matrix(allpts)
        np.fill_diagonal(d, np.inf)
        dup = np.argwhere(d < 1e-9)
        if dup.size == 0:
            break
        for i, _ in dup:
            allpts[i] += 1e-6 * rng.standard_normal(n)
    return from_points(allpts)

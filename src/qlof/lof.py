"""Classical local-outlier-factor reference (Breunig-style definitions).

Direct O(m^2 * n * k) pairwise computation with no spatial index, so the code
is transparently correct and serves as the brute-force oracle for every
quantum-pipeline equivalence test.  Three entry points: :func:`build_table`
(k-distances and neighborhoods), :func:`lof_all` (outlier factors) and
:func:`flag` (densities, outlier factors, flags and the error-budget inputs
in one :class:`LofReport`).

Distance convention: every quantity is computed on the normalized distances
d-bar = d / (sqrt(n) * c_norm) that the quantum pipeline encodes.  LOF values
equal the raw-distance ones (the constant cancels in the density ratios); a
raw k-distance is the normalized one times sqrt(n) * c_norm, a raw local
reachability density the normalized one divided by it.

Tie semantics: the k-distance is the k-th order statistic of the distances to
the other points, and the neighborhood is everything at distance <= k-distance,
so it can exceed k members on ties and duplicates at distance zero count
toward k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DegenerateDataError, normalized_distance_matrix


@dataclass(frozen=True)
class NeighborRow:
    """Per-point neighborhood: k-distance, members, aligned distances, count."""

    kdist: float
    neighbors: list[int]
    dists: list[float]

    @property
    def count(self) -> int:
        return len(self.neighbors)


@dataclass(frozen=True)
class NeighborhoodTable:
    """Neighborhood rows for every point."""

    rows: list[NeighborRow]
    k: int

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def max_count(self) -> int:
        return max(r.count for r in self.rows)


@dataclass(frozen=True)
class LofReport:
    """Outlier factors and flags for a whole dataset.

    ``kdist`` and ``lrd`` are in normalized distance units; ``lof`` is
    unit-free.  ``dist_floor_sq`` is the largest P such that at least half
    of every point's neighbor distances are >= sqrt(P).
    """

    k: int
    delta: float
    kdist: np.ndarray
    counts: np.ndarray
    lrd: np.ndarray
    lof: np.ndarray
    flagged: np.ndarray
    dist_floor_sq: float

    @property
    def n_flagged(self) -> int:
        return int(np.count_nonzero(self.flagged))

    def flagged_indices(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.flagged)[0]]

    def point_dicts(self) -> list[dict]:
        return [
            {
                "index": i,
                "kdist": float(self.kdist[i]),
                "count": int(self.counts[i]),
                "lrd": float(self.lrd[i]),
                "lof": float(self.lof[i]),
                "flagged": bool(self.flagged[i]),
            }
            for i in range(self.lof.size)
        ]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "delta": self.delta,
            "n_flagged": self.n_flagged,
            "points": self.point_dicts(),
        }


def off_diagonal(mat: np.ndarray) -> np.ndarray:
    """Each point's distances to the m-1 others, as the (m, m-1) rows of
    ``mat`` without its diagonal: row i lists the points 0..m-1 but i, in
    order (:func:`row_points`)."""
    m = mat.shape[0]
    return mat[~np.eye(m, dtype=bool)].reshape(m, m - 1)


def row_points(i: int, positions: np.ndarray) -> np.ndarray:
    """The points at the integer ``positions`` of row i of
    :func:`off_diagonal`: position j holds point j + (j >= i)."""
    return positions + (positions >= i)


def build_table(ds: Dataset, k: int, dmat: np.ndarray | None = None) -> NeighborhoodTable:
    """Every point's k-distance and neighborhood: all points within the
    k-distance (>= k members, more on ties).  ``dmat`` is the dataset's
    normalized distance matrix when the caller already holds it."""
    if not 1 <= k <= ds.m - 1:
        raise ValueError(f"k={k} outside [1, m-1={ds.m - 1}]")
    if dmat is None:
        dmat = normalized_distance_matrix(ds)
    dists = off_diagonal(dmat)
    kdist = np.partition(dists, k - 1, axis=1)[:, k - 1]
    within = dists <= kdist[:, None]
    rows = [
        NeighborRow(
            kdist=float(kd),
            neighbors=row_points(i, np.flatnonzero(inside)).tolist(),
            dists=d[inside].tolist(),
        )
        for i, (kd, d, inside) in enumerate(zip(kdist, dists, within))
    ]
    return NeighborhoodTable(rows=rows, k=k)


def _densities(table: NeighborhoodTable) -> tuple[np.ndarray, np.ndarray]:
    """Local reachability density and outlier factor of every point; rejects
    zero mean reachability.

    Sums run in sorted-value order so the result is bitwise independent of
    point numbering (exact permutation equivariance).
    """
    kd = np.array([r.kdist for r in table.rows])
    lrd = np.empty(table.m)
    for i, row in enumerate(table.rows):
        reach = sorted(max(kd[t], d) for t, d in zip(row.neighbors, row.dists))
        mean = sum(reach) / len(reach)
        if mean <= 0.0:
            raise DegenerateDataError(
                f"point {i}: every neighbor is an exact duplicate, "
                "local reachability density is undefined"
            )
        lrd[i] = 1.0 / mean
    lof = np.empty(table.m)
    for i, row in enumerate(table.rows):
        lof[i] = sum(sorted(lrd[t] / lrd[i] for t in row.neighbors)) / row.count
    return lrd, lof


def lof_all(ds: Dataset, k: int) -> np.ndarray:
    """Outlier factor of every point: mean ratio of the neighbors' densities
    to the point's own density."""
    return _densities(build_table(ds, k))[1]


def flag(ds: Dataset, k: int, delta: float, dmat: np.ndarray | None = None) -> LofReport:
    """Full classical run: anomaly iff LOF >= delta.  ``dmat`` as in
    :func:`build_table`."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    table = build_table(ds, k, dmat)
    dens, lofs = _densities(table)
    floor = min(sorted(r.dists, reverse=True)[math.ceil(r.count / 2) - 1] for r in table.rows)
    return LofReport(
        k=k,
        delta=delta,
        kdist=np.array([r.kdist for r in table.rows]),
        counts=np.array([r.count for r in table.rows]),
        lrd=dens,
        lof=lofs,
        flagged=lofs >= delta,
        dist_floor_sq=float(floor) ** 2,
    )

"""Dataset loading, validation, normalization, and the run configuration.

The dataset is an immutable m x n real matrix.  Its global normalization
constant ``c_norm`` is the largest coordinate difference over all point pairs
and coordinates, so every pairwise Euclidean distance divided by
``sqrt(n) * c_norm`` lies in [0, 1] and fits the rotation-angle encoding used
by the quantum pipeline.  The pipeline charges the data-access oracle
|i>|j>|0> -> |i>|j>|x_j^i> through its query ledger; classically it is an
indexed read of ``points``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    """Base class for dataset failures."""


class DataParseError(DataError):
    """Malformed input file; carries row/column location when known."""


class DegenerateDataError(DataError):
    """All points identical (c_norm would be 0) or densities undefined."""


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class Dataset:
    """Immutable point matrix with its normalization constant."""

    points: np.ndarray  # shape (m, n), float64
    c_norm: float

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def summary(self) -> dict:
        return {"m": self.m, "n": self.n, "c_norm": self.c_norm}


def from_points(points: np.ndarray) -> Dataset:
    """Validate a raw matrix and compute c_norm.

    Requires m >= 2, n >= 1, all entries finite, and at least two distinct
    points (otherwise every distance is 0 and no scale exists).
    """
    pts = np.array(points, dtype=float, copy=True)
    if pts.ndim != 2:
        raise DataParseError(f"expected a 2-D point matrix, got ndim={pts.ndim}")
    m, n = pts.shape
    if m < 2:
        raise DataParseError(f"need at least 2 points, got {m}")
    if n < 1:
        raise DataParseError("points must have at least one coordinate")
    if not np.all(np.isfinite(pts)):
        bad = np.argwhere(~np.isfinite(pts))[0]
        raise DataParseError(f"non-finite value at row {bad[0]}, column {bad[1]}")
    # Max |x_j^i - x_j^t| over i, t, j = the largest per-coordinate range.
    c = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    if c <= 0.0:
        raise DegenerateDataError("all points are identical; no distance scale")
    pts.setflags(write=False)
    return Dataset(points=pts, c_norm=c)


def load_csv(path: str) -> Dataset:
    """Load a headerless comma-separated matrix, one point per row.

    UTF-8, '.' decimal separator.  Parse failures report the offending
    row/column (0-based).
    """
    rows: list[list[float]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for r, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                if rows and len(cells) != len(rows[0]):
                    raise DataParseError(
                        f"row {r} has {len(cells)} columns, expected {len(rows[0])}"
                    )
                parsed = []
                for c, cell in enumerate(cells):
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise DataParseError(
                            f"row {r}, column {c}: {cell!r} is not numeric"
                        ) from None
                rows.append(parsed)
    except OSError as exc:
        raise DataParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataParseError(f"{path} contains no data rows")
    return from_points(np.array(rows, dtype=float))


# Difference entries per row block of ``raw_distance_matrix`` (512 kB).
_DIST_BLOCK = 1 << 16


def raw_distance_matrix(ds: Dataset | np.ndarray) -> np.ndarray:
    """All pairwise Euclidean distances of a dataset or an (m, n) point matrix;
    diagonal 0.  Row blocks bound the temporaries; each entry sums the same
    squares as one (m, m, n) difference would, so the bytes are the same."""
    pts = ds.points if isinstance(ds, Dataset) else np.asarray(ds, dtype=float)
    m, n = pts.shape
    out = np.empty((m, m))
    step = max(1, _DIST_BLOCK // (m * n))
    for lo in range(0, m, step):
        diff = pts[lo : lo + step, None, :] - pts[None, :, :]
        diff *= diff
        block = out[lo : lo + step]
        np.sqrt(np.sum(diff, axis=2, out=block), out=block)
    return out


def normalized_distance_matrix(ds: Dataset) -> np.ndarray:
    """d-bar(i, t) = ||x^i - x^t|| / (sqrt(n) * c_norm) for every pair, in [0, 1]."""
    out = raw_distance_matrix(ds)
    out /= math.sqrt(ds.n) * ds.c_norm
    return out


BACKENDS = ("exact", "ledger")

# Largest amplitude-estimation precision register, in qubits.  A draw that
# reaches the last stage of ``primitives.ae_outcomes`` evaluates the law over
# all 2^t outcomes, about 49 bytes each: 49 MiB for one such draw at t = 20,
# and 49 GiB at t = 30.
MAX_AE_QUBITS = 20


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a pipeline run, declared once.

    The CLI derives one ``--flag`` per field (underscores become dashes,
    the type is that of the default) and the manifest's ``config`` block is
    the field dict.  ae_qubits_* are the precision-register sizes of the three
    amplitude estimations (distance, neighbor count, outlier factor), each
    at most ``MAX_AE_QUBITS``; the corresponding angle errors are pi / 2**t.
    ``backend`` selects full statevector state preparation ("exact") or
    analytic outcome-law sampling with query accounting only ("ledger").
    ``min_boost`` is the number of Durr-Hoyer passes per minimum search;
    each pass's query budget (``primitives.BUDGET``) and each
    neighborhood's collection cap (its count estimate plus two) are fixed,
    not knobs.
    """

    k: int = 3
    delta: float = 1.5
    backend: str = "exact"
    ae_qubits_dist: int = 10
    ae_qubits_count: int = 8
    ae_qubits_lof: int = 10
    ae_repeats: int = 5
    fp_width: int = 16
    fp_frac: int = 12
    seed: int = 0
    min_boost: int = 5

    def validate(self, m: int) -> None:
        if not 1 <= self.k <= m - 1:
            raise ConfigError(f"k={self.k} outside [1, m-1={m - 1}]")
        if not math.isfinite(self.delta):
            raise ConfigError("delta must be finite")
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if self.fp_frac >= self.fp_width or self.fp_frac < 1:
            raise ConfigError(
                f"need 1 <= fp_frac < fp_width, got ({self.fp_width}, {self.fp_frac})"
            )
        for name in ("ae_qubits_dist", "ae_qubits_count", "ae_qubits_lof"):
            if not 1 <= getattr(self, name) <= MAX_AE_QUBITS:
                raise ConfigError(f"{name} outside [1, {MAX_AE_QUBITS}]")
        if self.ae_repeats < 1 or self.ae_repeats % 2 == 0:
            raise ConfigError("ae_repeats must be a positive odd integer")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.min_boost < 1:
            raise ConfigError("min_boost must be >= 1")

    @property
    def eps_dist(self) -> float:
        return math.pi / (1 << self.ae_qubits_dist)

    @property
    def eps_lof(self) -> float:
        return math.pi / (1 << self.ae_qubits_lof)

    def eps_count(self, domain: int) -> float:
        """Worst-case neighbor-count error over a domain of that size."""
        t = self.ae_qubits_count
        return math.pi * domain / (1 << t) + (math.pi**2) * domain / (1 << (2 * t))

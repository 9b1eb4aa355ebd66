"""The three-step quantum LOF pipeline with per-stage error bookkeeping.

Step 1 estimates all pairwise normalized distances by amplitude estimation,
finds each point's k-distance by Durr-Hoyer minimum search, counts and then
collects the k-distance neighborhood by quantum counting and Grover search.
Step 2 computes inverse local reachability densities entirely in reversible
fixed-point arithmetic (max / multiply-accumulate / divide).  Step 3 finds
the largest density ratio E by Durr-Hoyer maximum search, turns the ratios
over E into rotation amplitudes, amplitude-estimates each point's outlier
factor, and Grover-searches the flagged indices.

Backends: "exact" prepares real statevectors for every rotation and runs
statevector Grover iterations; "ledger" computes the same amplitudes
classically and samples outcomes from the identical closed-form laws.  Both
charge the query ledger under the parallel-circuit convention: step-1 work is
charged per point, step-2 arithmetic and the step-3 amplitude estimation once
per run (they act on the index superposition), step-3 Grover per iteration.

Within one run every pairwise distance estimate is sampled once (median of
``ae_repeats`` draws) and frozen; minimum search, counting, and collection
query the frozen values.  This models the deterministic register content the
coherent circuit would carry and keeps all threshold predicates consistent.

Random streams: each stochastic stage -- distances, k-distance, counting,
collection, outlier factors, flagging, ratio maximum -- draws from one
generator of its own, keyed by (seed, stage).  Distances, counting and
outlier factors are each one :func:`amplitude_estimate` call,
``ae_repeats`` uniforms per pair in upper-triangle row order or per point in
point order, each uniform mapped to one outcome by the staged-window
sampler :func:`~qlof.primitives.ae_outcomes`.  The k-distance stage is one
:func:`kth_smallest` call over every search row, drawing point by point; the
ratio maximum is one :func:`quantum_min` call, the k = 1 case of
:func:`kth_smallest`.  Collection draws across points on both backends:
each of its invocations is one search over every point still collecting, in
point order (:func:`grover_search`), one block of uniforms per point on the
ledger backend; flagging is one such search per invocation over the outlier
factors.  The exact backend's statevector searches draw round by round,
point after point within an invocation; its Durr-Hoyer searches draw from
the closed form, as the ledger's do.
So a stage's draws do not depend on how another stage uses its stream.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import (
    ConfigError,
    Dataset,
    DegenerateDataError,
    RunConfig,
    normalized_distance_matrix,
)
from .fixedpoint import FixedPoint, encode, q_div, q_max, q_mul_add, zero
from .ledger import QueryLedger
from .lof import (
    NeighborhoodTable,
    NeighborRow,
    flag as classical_flag,
    off_diagonal,
    row_points,
)
from .primitives import (
    CountEstimate,
    ae_queries,
    amplitude_estimate,
    grover_collect,
    kth_smallest,
    quantum_count,
    quantum_min,
)
from .qsim import StateVector, controlled_value_rotation, prepare_uniform


class RatioBoundError(Exception):
    """A density ratio exceeded the rotation ceiling E: its search missed."""


@dataclass(frozen=True)
class ErrorBudget:
    """Derived per-point error bound for the estimated outlier factors.

    total_bound = ratio_bound * eps_lof + 8 * eps_dist / dist_floor_sq, where
    ratio_bound is the ceiling E applied in the step-3 rotation, eps_* are the
    amplitude-estimation angle errors pi/2^t, and dist_floor_sq is the largest
    P such that at least half of every point's neighbor distances are at least
    sqrt(P) -- measured on the dataset, not assumed.  E is the largest of the
    run's own fixed-point density ratios (:meth:`QuantumLofPipeline.ratio_ceiling`).
    eps_count bounds only the neighbor-count estimate and does not enter the chain.
    """

    eps_dist: float
    eps_count: float
    eps_lof: float
    ratio_bound: float
    dist_floor_sq: float
    total_bound: float
    vacuous: bool

    def as_dict(self) -> dict:
        finite = math.isfinite(self.total_bound)
        return {**asdict(self), "total_bound": self.total_bound if finite else None}


# Stream tags: every stochastic stage draws from one generator of its own.
_STREAM_DIST = 0
_STREAM_KDIST = 1
_STREAM_COUNT = 2
_STREAM_COLLECT = 3
_STREAM_LOF = 4
_STREAM_FLAG = 5
_STREAM_MAX_RATIO = 6
_STREAMS = range(7)


class QuantumLofPipeline:
    """One dataset + one configuration, exact or ledger backend."""

    def __init__(
        self,
        ds: Dataset,
        config: RunConfig,
        ledger: QueryLedger | None = None,
    ) -> None:
        config.validate(ds.m)
        self.ds = ds
        self.config = config
        self.ledger = ledger if ledger is not None else QueryLedger()
        self.warnings: list[str] = []
        self._dist_hat: np.ndarray | None = None
        # One generator per stage, consumed in the order the stage runs.
        self._rngs = [self._rng(stream) for stream in _STREAMS]
        # The normalized distances and the classical reference, computed once:
        # the ledger backend's step-1 amplitudes, the comparison target and
        # the source of the error budget's distance floor.
        self._dmat = normalized_distance_matrix(ds)
        self._classical = classical_flag(ds, config.k, config.delta, self._dmat)
        # Per coherent invocation of the step-1 distance estimator: one
        # preparation plus two per Grover power; each preparation touches the
        # data oracle four times (two loads, two uncomputes) and the
        # multiply-adder twice (compute and uncompute the difference).
        # The search stages charge it with each query of their predicate.
        a1 = ae_queries(config.ae_qubits_dist, 1)
        self._dist_eval_cost = {
            "step1.a_dist": a1,
            "step1.o_x": 4 * a1,
            "step1.qma": 2 * a1,
            "step1.rot": a1,
        }
        self._query_cost = {
            query: {**self._dist_eval_cost, query: 1}
            for query in ("step1.value_query", "step1.count_pred", "step1.pred_query")
        }

    # ------------------------------------------------------------------
    # Step 1: distances, k-distance, neighborhood
    # ------------------------------------------------------------------

    def _rng(self, stream: int) -> np.random.Generator:
        """A fresh generator of one stage's stream, keyed by (seed, stream)."""
        entropy = [self.config.seed & 0xFFFFFFFFFFFFFFFF, stream]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def _rotation_probability(
        self, values: np.ndarray | list[float], scale: float, mode: str
    ) -> float:
        """Good-branch probability of the rotation encoding both steps use: a
        uniform superposition over ``values`` rotates an ancilla by each value
        over ``scale`` (:func:`controlled_value_rotation`).  It is the mean of
        (v/scale)^2 in linear mode (step 1) and of v/scale in sqrt mode
        (step 3).  The ledger backend computes step 3's in closed form and
        reads step 1's from the distance matrix (:meth:`_pair_probabilities`).
        """
        if self.config.backend == "exact":
            sv = StateVector([("j", max(1, math.ceil(math.log2(len(values))))), ("anc", 1)])
            prepare_uniform(sv, "j", len(values))
            controlled_value_rotation(sv, "j", "anc", values, scale=scale, mode=mode)
            return sv.probability("anc", 0)
        return float(np.mean(values)) / scale

    def _pair_probabilities(self, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
        """Good-branch probabilities d-bar^2 of the distance rotations of the
        pairs (iu[p], ju[p]): a statevector per pair on the exact backend,
        the squared distance matrix on the ledger backend."""
        if self.config.backend == "exact":
            pts, c_norm = self.ds.points, self.ds.c_norm
            return np.array(
                [
                    self._rotation_probability(pts[i] - pts[j], c_norm, "linear")
                    for i, j in zip(iu, ju)
                ]
            )
        return self._dmat[iu, ju] ** 2

    def distance_estimates(self) -> np.ndarray:
        """All pairwise frozen estimates sin(theta_hat) = sqrt(a_hat), symmetric.

        The m(m-1)/2 pairs i < t are estimated by one
        :func:`amplitude_estimate` call in upper-triangle row order, so every
        estimate is the median of that pair's own ``ae_repeats`` draws from
        the stage generator.  Charges one coherent estimation pass per point
        row (the t-superposition is served by a single pass).
        """
        if self._dist_hat is None:
            m = self.ds.m
            cfg = self.config
            est = amplitude_estimate(
                self._pair_probabilities(*np.triu_indices(m, 1)),
                cfg.ae_qubits_dist,
                self._rngs[_STREAM_DIST],
                repeats=cfg.ae_repeats,
            )
            mat = np.zeros((m, m))
            upper = ~np.tri(m, dtype=bool)  # the pairs i < t, in row order
            mat[upper] = mat.T[upper] = np.sqrt(est.a_hat)
            self.ledger.charge_many(self._dist_eval_cost, m * cfg.ae_repeats)
            self._dist_hat = mat
        return self._dist_hat

    def find_k_distance(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """k-distance of every search row, a point's frozen estimates to the
        other m-1 points (:func:`~qlof.lof.off_diagonal`), by k successive
        minimum searches, in one call, rows in point order; also returns the
        (m, k) row positions found on the way.  One 1-D row is the one-row
        case: a float and a list."""
        cfg = self.config
        res = kth_smallest(
            rows,
            cfg.k,
            self._rngs[_STREAM_KDIST],
            boost=cfg.min_boost,
            ledger=self.ledger,
            charge=self._query_cost["step1.value_query"],
            # The exact backend ranks every round until bench/speed.py takes
            # a sample of its own for an operation shorter than its 0.1 s
            # period: a faster first exact-m16 operation crashes it (ROADMAP
            # item 1).
            rank_once=(cfg.backend == "ledger"),
        )
        return res.value, res.indices

    def count_neighbors(self, rows: np.ndarray, kdist: np.ndarray) -> CountEstimate:
        """Quantum counting of the neighborhood predicate of every search row
        against its own k-distance, in one call, rows in point order."""
        cfg = self.config
        return quantum_count(
            rows <= kdist[:, None],
            cfg.ae_qubits_count,
            self._rngs[_STREAM_COUNT],
            repeats=cfg.ae_repeats,
            ledger=self.ledger,
            charge=self._query_cost["step1.count_pred"],
        )

    def find_neighbors(
        self,
        rows: np.ndarray,
        kdist: np.ndarray,
        expected: list[int],
        seed_found: list[list[int]],
    ) -> tuple[list[list[int]], list[bool]]:
        """Collect every search row's neighborhood by Grover search with
        exclusion, in one call, each row starting from its row positions
        ``seed_found``.

        A row runs until a search confirms saturation; its ``expected``
        count plus two caps its invocations.  Returns (sorted row positions,
        saturation confirmed) per row; one 1-D row with a scalar k-distance
        is the one-row case.
        """
        cfg = self.config
        return grover_collect(
            rows <= np.expand_dims(kdist, -1),
            self._rngs[_STREAM_COLLECT],
            ledger=self.ledger,
            exact=(cfg.backend == "exact"),
            expected=expected,
            seed_found=seed_found,
            charge=self._query_cost["step1.pred_query"],
        )

    def build_neighborhood_table(self) -> NeighborhoodTable:
        """Step 1 end to end for every point: the k-distance searches, then
        one counting call and one collection call over all search rows."""
        eps1 = self.config.eps_dist
        rows = off_diagonal(self.distance_estimates())
        kdist, seeds = self.find_k_distance(rows)
        counts = self.count_neighbors(rows, kdist).count.tolist()
        collected, saturated = self.find_neighbors(
            rows, kdist, expected=counts, seed_found=seeds
        )
        # Membership can flip when a true distance sits within eps_dist of
        # the threshold and the estimate itself is eps_dist off, so the
        # observable symptom spans two grid cells around the threshold.
        kd = kdist[:, None]
        gap = rows - kd  # in place, and freed before the table is built
        np.abs(gap, out=gap)
        near = ((gap <= 2.0 * eps1) & (rows != kd)).any(axis=1).tolist()
        del gap
        table = []
        for i, (row, kd, found, sat, count) in enumerate(
            zip(rows, kdist, collected, saturated, counts)
        ):
            if not sat:
                self.warnings.append(
                    f"point {i}: neighbor collection stopped at its cap without "
                    f"confirming saturation, {len(found)} members found of an "
                    f"estimated {count}"
                )
            if near[i]:
                self.warnings.append(
                    f"point {i}: a distance estimate lies near the k-distance "
                    f"threshold; membership may differ from the classical "
                    f"neighborhood"
                )
            neighbors = row_points(i, np.array(found, dtype=np.int64)).tolist()
            table.append(NeighborRow(float(kd), neighbors, row[found].tolist()))
        return NeighborhoodTable(rows=table, k=self.config.k)

    # ------------------------------------------------------------------
    # Step 2: densities in reversible fixed point
    # ------------------------------------------------------------------

    def compute_lrd_all(self, table: NeighborhoodTable) -> list[FixedPoint]:
        """Inverse densities [lrd-bar]^-1 for every point, fixed-point exact.

        Per point: reach distances by the max gate on (neighbor k-distance,
        pair distance), summed exactly by widening multiply-accumulate, then
        divided by the neighbor count.  Deviation from the real-valued oracle
        is bounded by count * 2^-frac.
        """
        w, f = self.config.fp_width, self.config.fp_frac
        one = encode(1.0, w, f)
        kd_enc = [encode(row.kdist, w, f) for row in table.rows]
        out: list[FixedPoint] = []
        for i, row in enumerate(table.rows):
            acc = zero(2 * w, 2 * f)
            for t, d in zip(row.neighbors, row.dists):
                reach = q_max(kd_enc[t], encode(d, w, f))
                acc = q_mul_add(reach, one, acc)
            inv = q_div(acc, encode(float(row.count), 2 * w, 2 * f), width=w, frac=f)
            if inv.bits == 0:
                # The classical side accepted the data, so the estimates rounded
                # the k-distance to zero: a nonzero one, >= sin(pi/2^t_dist), is
                # several units of any fp_frac >= t_dist, so fp_frac cannot help.
                raise DegenerateDataError(
                    f"point {i}: the distance estimates round its k-distance to "
                    "zero, so its density is undefined; raise --ae-qubits-dist"
                )
            out.append(inv)
        # Parallel-circuit convention: the arithmetic runs once over the index
        # superposition; the factor 2 covers the per-neighbor recomputation.
        maxn = table.max_count
        self.ledger.charge_many(
            {
                "step2.oracle_u": 2,
                "step2.oracle_v": 2 * maxn,
                "step2.oracle_g": 1,
                "step2.oracle_w": 2,
                "step2.qmax": 2 * maxn,
                "step2.qma": 2 * maxn,
                "step2.qdiv": 2,
            }
        )
        return out

    # ------------------------------------------------------------------
    # Step 3: outlier factors and flagging
    # ------------------------------------------------------------------

    def density_ratios(self, inv_lrd: list[FixedPoint], table: NeighborhoodTable) -> list:
        """rho(i, t) = [lrd-bar(i)]^-1 / [lrd-bar(t)]^-1 by fixed-point division,
        one list per point i over its neighbors t: step 3's ratio register."""
        # One division per neighbor slot over the index superposition.
        self.ledger.charge("step3.qdiv", table.max_count)
        return [[q_div(inv_lrd[i], inv_lrd[t]).value for t in row.neighbors]
                for i, row in enumerate(table.rows)]

    def ratio_ceiling(self, rhos: list) -> float:
        """The rotation ceiling E: the largest ratio, by one minimum search on
        -rho in point, then neighbor order, boosted ``min_boost`` times.  A
        miss (probability <= 2^-min_boost) makes :meth:`compute_lof_all` raise."""
        cfg = self.config
        return -quantum_min(
            -np.concatenate(rhos), self._rngs[_STREAM_MAX_RATIO], boost=cfg.min_boost,
            ledger=self.ledger, charge={"step3.max_ratio": 1},
        ).value

    def compute_lof_all(self, rhos: list, ratio_bound: float) -> np.ndarray:
        """Amplitude-estimated outlier factor per point: E * sin^2(alpha_hat).

        Point i's rotation averages rho/E over its ratios ``rhos[i]``
        (:meth:`density_ratios`), so no ratio may exceed the ceiling E.  The
        ratios are checked before one :func:`amplitude_estimate` call
        estimates all points, in point order.
        """
        cfg = self.config
        worst = max(map(max, rhos))
        if worst > ratio_bound:
            raise RatioBoundError(
                f"density ratio {worst} exceeds the rotation ceiling {ratio_bound}"
            )
        est = amplitude_estimate(
            [self._rotation_probability(row, ratio_bound, "sqrt") for row in rhos],
            cfg.ae_qubits_lof,
            self._rngs[_STREAM_LOF],
            repeats=cfg.ae_repeats,
        )
        # One amplitude estimation over the index superposition.
        self.ledger.charge(
            "step3.a_lof", cfg.ae_repeats * ae_queries(cfg.ae_qubits_lof, 1)
        )
        return ratio_bound * est.a_hat

    def flag_anomalies(
        self, lof_hat: np.ndarray, delta: float, total_bound: float
    ) -> tuple[list[int], int, bool]:
        """Grover search for all indices with estimated LOF >= delta.

        Returns (flagged indices, their number T, near-threshold warning when
        some estimate lies within the error budget of delta).
        """
        if delta <= 0:
            raise ConfigError("delta must be positive")
        flagged, _ = grover_collect(
            lof_hat >= delta,
            self._rngs[_STREAM_FLAG],
            ledger=self.ledger,
            exact=(self.config.backend == "exact"),
            charge={"step3.pred": 1},
        )
        near = math.isfinite(total_bound) and bool(np.any(np.abs(lof_hat - delta) <= total_bound))
        return flagged, len(flagged), near

    # ------------------------------------------------------------------
    # Error budget and the full run
    # ------------------------------------------------------------------

    def error_budget(self, ratio_bound: float) -> ErrorBudget:
        """The per-point bound under the rotation ceiling E (:meth:`ratio_ceiling`)."""
        cfg = self.config
        p = self._classical.dist_floor_sq
        total = ratio_bound * cfg.eps_lof + 8.0 * cfg.eps_dist / p if p > 0 else math.inf
        return ErrorBudget(
            eps_dist=cfg.eps_dist,
            eps_count=cfg.eps_count(self.ds.m - 1),
            eps_lof=cfg.eps_lof,
            ratio_bound=ratio_bound,
            dist_floor_sq=p,
            total_bound=total,
            vacuous=total > float(np.max(self._classical.lof)),
        )

    def run(self) -> dict:
        """Execute the full pipeline and assemble the comparison manifest."""
        cfg = self.config
        table = self.build_neighborhood_table()
        rhos = self.density_ratios(self.compute_lrd_all(table), table)
        ceiling = self.ratio_ceiling(rhos)
        budget = self.error_budget(ceiling)
        lof_hat = self.compute_lof_all(rhos, ceiling)
        flagged_q, t_q, near_q = self.flag_anomalies(lof_hat, cfg.delta, budget.total_bound)

        lof_c = self._classical.lof
        flags_c = set(self._classical.flagged_indices())
        flags_q = set(flagged_q)
        margin_ok = bool(np.min(np.abs(lof_c - cfg.delta)) > budget.total_bound)
        bound = budget.as_dict()["total_bound"]
        points = []
        for i in range(self.ds.m):
            err = abs(float(lof_hat[i]) - float(lof_c[i]))
            points.append(
                {
                    "index": i,
                    "lof_classical": float(lof_c[i]),
                    "lof_quantum": float(lof_hat[i]),
                    "abs_error": err,
                    "bound": bound,
                    "within_bound": bool(err <= budget.total_bound),
                    "flagged_classical": bool(i in flags_c),
                    "flagged_quantum": bool(i in flags_q),
                }
            )
        return {
            "schema": 1,
            "mode": "compare",
            "config": asdict(cfg),
            "dataset": self.ds.summary(),
            "error_budget": budget.as_dict(),
            "points": points,
            "flagged_classical": sorted(flags_c),
            "flagged_quantum": sorted(flags_q),
            "n_flagged_quantum": t_q,
            "flags_match": bool(flags_c == flags_q),
            "delta_margin_ok": margin_ok,
            "near_threshold_delta": bool(near_q or not margin_ok),
            "warnings": list(self.warnings),
            "ledger": self.ledger.as_dict(),
            "ledger_step_totals": {
                step: self.ledger.total(step + ".") for step in ("step1", "step2", "step3")
            },
        }

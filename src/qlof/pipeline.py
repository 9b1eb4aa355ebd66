"""The three-step quantum LOF pipeline with per-stage error bookkeeping.

Step 1 estimates all pairwise normalized distances by amplitude estimation,
finds each point's k-distance by Durr-Hoyer minimum search, counts and then
collects the k-distance neighborhood by quantum counting and Grover search.
Step 2 computes inverse local reachability densities entirely in reversible
fixed-point arithmetic (max / multiply-accumulate / divide).  Step 3 turns
density ratios into rotation amplitudes, amplitude-estimates each point's
outlier factor, and Grover-searches the flagged indices.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ConfigError, Dataset, DegenerateDataError, RunConfig
from .fixedpoint import FixedPoint, encode, q_div, q_max, q_mul_add, zero
from .ledger import QueryLedger
from .lof import NeighborhoodTable, NeighborRow, flag as classical_flag
from .primitives import (
    CountEstimate,
    ae_outcomes,
    ae_queries,
    amplitude_angle,
    amplitude_estimate,
    folded_median,
    grover_collect,
    kth_smallest,
    quantum_count,
)
from .qsim import StateVector, controlled_value_rotation, prepare_uniform


class RatioBoundError(Exception):
    """A density ratio exceeded the rotation ceiling E."""


@dataclass(frozen=True)
class ErrorBudget:
    """Derived per-point error bound for the estimated outlier factors.

    total_bound = ratio_bound * eps_lof + 8 * eps_dist / dist_floor_sq, where
    ratio_bound is the ceiling E applied in the step-3 rotation, eps_* are the
    amplitude-estimation angle errors pi/2^t, and dist_floor_sq is the largest
    P such that at least half of every point's neighbor distances are at least
    sqrt(P) -- measured on the dataset, not assumed.  eps_count bounds only the
    neighbor-count estimate and does not enter the chain.
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
        return {
            "eps_dist": self.eps_dist,
            "eps_count": self.eps_count,
            "eps_lof": self.eps_lof,
            "ratio_bound": self.ratio_bound,
            "dist_floor_sq": self.dist_floor_sq,
            "total_bound": self.total_bound if finite else None,
            "vacuous": self.vacuous,
        }


# Seed-stream tags; every stochastic stage draws from its own child generator.
_STREAM_DIST = 0
_STREAM_KDIST = 1
_STREAM_COUNT = 2
_STREAM_COLLECT = 3
_STREAM_LOF = 4
_STREAM_FLAG = 5

# Step-1 pairs per sampler call.  Larger blocks buy no speed but hold larger
# (block, 2^t) law arrays: whole 255-pair rows raised the peak RSS of one
# m = 256, t = 10 run by about 5 MB (8%).
_DIST_BLOCK = 16


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
        # The classical reference, computed once: the comparison target and
        # the source of the ratio ceiling and the distance floor.
        self._classical = classical_flag(ds, config.k, config.delta)
        # Per coherent invocation of the step-1 distance estimator: one
        # preparation plus two per Grover power; each preparation touches the
        # data oracle four times (two loads, two uncomputes) and the
        # multiply-adder twice (compute and uncompute the difference).
        a1 = ae_queries(config.ae_qubits_dist, 1)
        self._dist_eval_cost = {
            "step1.a_dist": a1,
            "step1.o_x": 4 * a1,
            "step1.qma": 2 * a1,
            "step1.rot": a1,
        }

    # ------------------------------------------------------------------
    # Step 1: distances, k-distance, neighborhood
    # ------------------------------------------------------------------

    def _rng(self, stream: int, *key: int) -> np.random.Generator:
        entropy = [self.config.seed & 0xFFFFFFFFFFFFFFFF, stream, *key]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def _pair_amplitude(self, i: int, t: int) -> float:
        """Good-branch probability of the distance rotation: d-bar(i,t)^2."""
        if self.config.backend == "exact":
            diffs = self.ds.points[i] - self.ds.points[t]
            jbits = max(1, math.ceil(math.log2(self.ds.n)))
            sv = StateVector([("j", jbits), ("anc", 1)])
            prepare_uniform(sv, "j", self.ds.n)
            controlled_value_rotation(
                sv,
                "j",
                "anc",
                scale=self.ds.c_norm,
                decode=lambda jv: float(diffs[jv]),
                mode="linear",
            )
            return sv.probability("anc", 0)
        d = float(np.linalg.norm(self.ds.points[i] - self.ds.points[t]))
        return (d / (math.sqrt(self.ds.n) * self.ds.c_norm)) ** 2

    def estimate_distance(self, i: int, t: int) -> float:
        """Frozen step-1 estimate of the normalized distance d-bar(i, t).

        Median of ``ae_repeats`` amplitude-estimation draws of the rotation
        angle, mapped through sin.  Symmetric and deterministic per run.
        """
        if i == t:
            raise ValueError("distance estimation requires two distinct points")
        return float(self.distance_estimates()[i, t])

    def distance_estimates(self) -> np.ndarray:
        """All pairwise frozen estimates sin(theta_hat(i, t)), symmetric.

        Row i's pairs (i, t > i) are sampled in blocks of up to
        ``_DIST_BLOCK`` columns by one :func:`ae_outcomes` call over their
        angles.  Each pair keeps its own seed stream for its ``ae_repeats``
        uniforms, so every estimate equals the median of that pair's own
        amplitude-estimation draws.  Charges one coherent estimation pass per
        point row (the t-superposition is served by a single pass).
        """
        if self._dist_hat is None:
            m = self.ds.m
            cfg = self.config
            tq, reps = cfg.ae_qubits_dist, cfg.ae_repeats
            n = 1 << tq
            sin_hat = np.array([math.sin(math.pi * y / n) for y in range(n // 2 + 1)])
            mat = np.zeros((m, m))
            for i in range(m):
                for lo in range(i + 1, m, _DIST_BLOCK):
                    hi = min(lo + _DIST_BLOCK, m)
                    block = range(lo, hi)
                    thetas = [amplitude_angle(self._pair_amplitude(i, t)) for t in block]
                    u = np.array([self._rng(_STREAM_DIST, i, t).random(reps) for t in block])
                    est = sin_hat[folded_median(ae_outcomes(thetas, tq, u), tq)]
                    mat[i, lo:hi] = mat[lo:hi, i] = est
            self.ledger.charge_many(self._dist_eval_cost, m * reps)
            self._dist_hat = mat
        return self._dist_hat

    def _others(self, i: int) -> np.ndarray:
        """Frozen estimates from point i to its m-1 candidates.  Candidate j
        is point j + (j >= i): the search domain skips i itself."""
        return np.delete(self.distance_estimates()[i], i)

    def find_k_distance(self, i: int) -> tuple[float, list[int]]:
        """k-distance of point i over the frozen estimates, by k successive
        minimum searches; also returns the k indices found on the way."""
        cfg = self.config
        res = kth_smallest(
            self._others(i),
            cfg.k,
            self._rng(_STREAM_KDIST, i),
            budget_multiplier=cfg.budget_multiplier,
            boost=cfg.min_boost,
            ledger=self.ledger,
            exact=False,
            charge={**self._dist_eval_cost, "step1.value_query": 1},
        )
        return res.value, [j + (j >= i) for j in res.indices]

    def count_neighbors(self, i: int, kdist: float) -> CountEstimate:
        """Quantum counting of the neighborhood predicate for point i."""
        cfg = self.config
        return quantum_count(
            self._others(i) <= kdist,
            cfg.ae_qubits_count,
            self._rng(_STREAM_COUNT, i),
            repeats=cfg.ae_repeats,
            ledger=self.ledger,
            charge={**self._dist_eval_cost, "step1.count_pred": 1},
        )

    def find_neighbors(
        self,
        i: int,
        kdist: float,
        expected: int | None = None,
        seed_found: list[int] | None = None,
    ) -> tuple[list[int], bool]:
        """Collect the neighborhood by Grover search with exclusion.

        Runs until a search confirms saturation; ``expected`` plus a margin
        (and the configured shot budget) caps the invocations.  Returns
        (sorted neighbor indices, saturation confirmed).
        """
        cfg = self.config
        seeds = [t - (t > i) for t in seed_found] if seed_found else None
        found, saturated = grover_collect(
            self._others(i) <= kdist,
            self._rng(_STREAM_COLLECT, i),
            ledger=self.ledger,
            exact=(cfg.backend == "exact"),
            expected=expected,
            margin=2,
            seed_found=seeds,
            max_invocations=cfg.shots,
            charge={**self._dist_eval_cost, "step1.pred_query": 1},
        )
        return [j + (j >= i) for j in found], saturated

    def build_neighborhood_table(self) -> NeighborhoodTable:
        """Step 1 end to end for every point."""
        eps1 = self.config.eps_dist
        dist = self.distance_estimates()
        rows = []
        for i in range(self.ds.m):
            kdist, seeds = self.find_k_distance(i)
            count = self.count_neighbors(i, kdist)
            neighbors, saturated = self.find_neighbors(
                i, kdist, expected=count.count, seed_found=seeds
            )
            if not saturated and len(neighbors) < count.count:
                self.warnings.append(
                    f"point {i}: neighbor collection hit the cap at "
                    f"{len(neighbors)} of an estimated {count.count}"
                )
            # Membership can flip when a true distance sits within eps_dist of
            # the threshold and the estimate itself is eps_dist off, so the
            # observable symptom spans two grid cells around the threshold.
            others = self._others(i)
            if np.any((np.abs(others - kdist) <= 2.0 * eps1) & (others != kdist)):
                self.warnings.append(
                    f"point {i}: a distance estimate lies near the k-distance "
                    f"threshold; membership may differ from the classical "
                    f"neighborhood"
                )
            rows.append(
                NeighborRow(
                    kdist=float(kdist),
                    neighbors=neighbors,
                    dists=[float(dist[i, t]) for t in neighbors],
                )
            )
        return NeighborhoodTable(rows=rows, k=self.config.k, normalized=True)

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
                raise DegenerateDataError(
                    f"point {i}: mean reachability distance rounds to zero; "
                    "density is undefined at this precision"
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

    def ratio_bound(self) -> float:
        """Advice input E: classical max density ratio times the safety factor."""
        return self.config.ratio_safety * self._classical.max_density_ratio

    def _lof_amplitude(self, rhos: list[float], bound: float) -> float:
        if self.config.backend == "exact":
            nb = len(rhos)
            jbits = max(1, math.ceil(math.log2(nb))) if nb > 1 else 1
            sv = StateVector([("j", jbits), ("anc", 1)])
            prepare_uniform(sv, "j", nb)
            controlled_value_rotation(
                sv,
                "j",
                "anc",
                scale=bound,
                decode=lambda jv: rhos[jv],
                mode="sqrt",
            )
            return sv.probability("anc", 0)
        return float(np.mean(rhos)) / bound

    def compute_lof_all(
        self,
        inv_lrd: list[FixedPoint],
        table: NeighborhoodTable,
        ratio_bound: float | None = None,
    ) -> np.ndarray:
        """Amplitude-estimated outlier factor per point: E * sin^2(alpha_hat).

        Ratios rho = [lrd-bar(i)]^-1 / [lrd-bar(t)]^-1 come from fixed-point
        division and must not exceed the rotation ceiling E.
        """
        cfg = self.config
        if ratio_bound is None:
            ratio_bound = self.ratio_bound()
        lof_hat = np.empty(table.m)
        for i, row in enumerate(table.rows):
            rhos = []
            for t in row.neighbors:
                rho = q_div(inv_lrd[i], inv_lrd[t])
                if rho.value > ratio_bound * (1.0 + 1e-12):
                    raise RatioBoundError(
                        f"density ratio {rho.value} for pair ({i}, {t}) exceeds "
                        f"the rotation ceiling {ratio_bound}"
                    )
                rhos.append(rho.value)
            est = amplitude_estimate(
                self._lof_amplitude(rhos, ratio_bound),
                cfg.ae_qubits_lof,
                self._rng(_STREAM_LOF, i),
                repeats=cfg.ae_repeats,
            )
            lof_hat[i] = ratio_bound * est.a_hat
        # One amplitude estimation over the index superposition.
        self.ledger.charge(
            "step3.a_lof", cfg.ae_repeats * ae_queries(cfg.ae_qubits_lof, 1)
        )
        maxn = table.max_count
        self.ledger.charge("step3.qdiv", maxn)
        return lof_hat

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
            self._rng(_STREAM_FLAG),
            ledger=self.ledger,
            exact=(self.config.backend == "exact"),
            charge={"step3.pred": 1},
        )
        near = bool(
            math.isfinite(total_bound)
            and np.any(np.abs(lof_hat - delta) <= total_bound)
        )
        return flagged, len(flagged), near

    # ------------------------------------------------------------------
    # Error budget and the full run
    # ------------------------------------------------------------------

    def error_budget(self) -> ErrorBudget:
        cfg = self.config
        e_used = self.ratio_bound()
        p = self._classical.dist_floor_sq
        if p > 0:
            total = e_used * cfg.eps_lof + 8.0 * cfg.eps_dist / p
        else:
            total = math.inf
        max_lof = float(np.max(self._classical.lof))
        return ErrorBudget(
            eps_dist=cfg.eps_dist,
            eps_count=cfg.eps_count(self.ds.m - 1),
            eps_lof=cfg.eps_lof,
            ratio_bound=e_used,
            dist_floor_sq=p,
            total_bound=total,
            vacuous=not math.isfinite(total) or total > max_lof,
        )

    def run(self) -> dict:
        """Execute the full pipeline and assemble the comparison manifest."""
        cfg = self.config
        table = self.build_neighborhood_table()
        inv_lrd = self.compute_lrd_all(table)
        budget = self.error_budget()
        lof_hat = self.compute_lof_all(inv_lrd, table, budget.ratio_bound)
        flagged_q, t_q, near_q = self.flag_anomalies(lof_hat, cfg.delta, budget.total_bound)

        lof_c = self._classical.lof
        flags_c = set(self._classical.flagged_indices())
        flags_q = set(flagged_q)
        margin_ok = bool(
            math.isfinite(budget.total_bound)
            and np.min(np.abs(lof_c - cfg.delta)) > budget.total_bound
        )
        points = []
        for i in range(self.ds.m):
            err = abs(float(lof_hat[i]) - float(lof_c[i]))
            points.append(
                {
                    "index": i,
                    "lof_classical": float(lof_c[i]),
                    "lof_quantum": float(lof_hat[i]),
                    "abs_error": err,
                    "bound": budget.total_bound if math.isfinite(budget.total_bound) else None,
                    "within_bound": bool(err <= budget.total_bound),
                    "flagged_classical": bool(i in flags_c),
                    "flagged_quantum": bool(i in flags_q),
                }
            )
        return {
            "schema": 1,
            "mode": "compare",
            "config": cfg.as_dict(),
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
                "step1": self.ledger.total("step1."),
                "step2": self.ledger.total("step2."),
                "step3": self.ledger.total("step3."),
            },
        }

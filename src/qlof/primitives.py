"""Quantum subroutines with exact and ledger backends.

Four primitives drive the pipeline:

* :func:`amplitude_estimate` -- phase estimation on a Grover operator; samples
  from the exact outcome law of the prepared amplitude and guarantees
  |theta - theta_hat| <= pi/2^t with probability >= 8/pi^2.
* :func:`grover_search` / :func:`grover_collect` -- search with an unknown
  number of solutions via the exponentially growing iteration schedule
  (Boyer-Brassard-Hoyer-Tapp), and collection of every solution by repeated
  search with exclusion.
* :func:`kth_smallest` / :func:`quantum_min` -- k successive Durr-Hoyer
  minimum searches with exclusion, each under a fixed ``BUDGET * sqrt(m)``
  query budget, for the k-th order statistic; minimum finding is the k = 1
  case.
* :func:`quantum_count` -- amplitude estimation of a membership predicate,
  returning m * sin^2(pi*y/2^t).

:func:`amplitude_estimate` is the one entry point of amplitude estimation,
for one amplitude or an array.  It samples block by block through
:func:`ae_outcomes`, which inverts each draw's uniform in stages of widening
windows around the outcome law's peak: the peak's two outcomes place most
draws, each later stage takes only the draws left over, and only the rare
draw past a 512-outcome window touches the whole 2^t-outcome law, so the
cost hardly grows with t.

The search primitives take the oracle's truth table as an array: a boolean
``marked`` mask for predicates, a float ``values`` array for value oracles;
the domain size m is the array's size.  Search, collection, counting and
the k-th smallest also take a 2-D array, one domain per row, and a 1-D
array is the one-row case.  A primitive given a ``ledger`` charges it once
per call: every counter of ``charge`` times the call's total number of
oracle queries.

The exact backend runs real statevector Grover iterations; the ledger backend
samples outcomes from the identical closed-form success law while charging the
same oracle queries.  A ledger search is sampled whole: with nothing found
its schedule is fixed, so one block of uniforms per row decides every
round (:func:`_search_block`).  On both backends collection searches all
its rows in lockstep, one call per invocation, so only :func:`grover_search`
depends on the backend.  Durr-Hoyer minimum finding draws its measurements
round by round (:func:`_grover_outcome_law`), because its schedule restarts
at each improvement; it does so from the closed form on both backends, and
ranks each threshold once (or, with ``rank_once`` false, in every round).
A 2-D :func:`kth_smallest` runs its rows one after another on one
generator, as a loop of 1-D calls would, and sorts each exclusion's masked
row afresh.
Simulation bookkeeping (evaluating the predicate to learn the ground truth)
is never charged; only queries made by the algorithm's control flow are.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .ledger import QueryLedger
from .qsim import ae_distribution

GROWTH = 6.0 / 5.0  # BBHT schedule factor
EXTRA_ROUNDS = 60  # rounds allowed after the schedule saturates at sqrt(m)
BUDGET = 22.5  # Durr-Hoyer queries per search, in units of sqrt(m)


@dataclass(frozen=True)
class AmplitudeEstimate:
    """Result of amplitude estimation (possibly a median of repeats)."""

    theta_hat: float | np.ndarray
    a_hat: float | np.ndarray
    queries: int  # state-preparer applications charged per amplitude


@dataclass(frozen=True)
class CountEstimate:
    """Result of quantum counting: rounded count plus the raw estimate."""

    count: int | np.ndarray
    raw: float | np.ndarray
    queries: int  # predicate applications per domain


def ae_queries(t: int, repeats: int = 1) -> int:
    """State-preparer applications per estimate: one preparation plus A and
    A-dagger inside each of the 2^t - 1 controlled Grover powers."""
    return repeats * (2 * ((1 << t) - 1) + 1)


# Half-widths h of the nested windows that ``ae_outcomes`` inverts a draw
# over, stage by stage: the 2h outcomes [p - h + 1, p + h] around a kernel's
# peak p, less the previous stage's.  The peak's two outcomes hold at least
# 8/pi^2 of the kernel's mass, and a window of 2h outcomes all but about
# 1/(pi^2 * h) on average over angles; the last stage is the whole row.
_STAGES = (1, 4, 16, 64, 256)


def ae_outcomes(thetas: Sequence[float] | np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
    """Sample amplitude-estimation outcomes for a block of angles.

    Entry (b, r) of the result is the outcome in [0, 2^t) that the uniform
    ``u[b, r]`` draws from the amplitude-estimation outcome law of
    ``thetas[b]``, and depends on that angle and uniform alone.  The law is
    an equal mixture of the Fejer kernels of the Grover eigenbranches at
    +-theta (Brassard-Hoyer-Mosca-Tapp 2002): u >= 1/2 picks the -theta
    branch, and v = 2u - branch then inverts the +theta kernel's CDF in
    stages around its peak p = floor(2^t*theta/pi), one per half-width h of
    ``_STAGES`` below 2^(t-1) and a last one at h = 2^(t-1).  Stage s
    covers the outcomes [p - h_s + 1, p + h_s] less those of stage s - 1,
    in index order; a draw whose v is at or past the stage's mass goes on
    to the next stage at v minus that mass, and the last stage, which holds
    the rest of the row, keeps every draw.  So each outcome belongs to one
    stage, and a stage's kernel is evaluated only for the angles that still
    have a draw in it: for every angle in the first stage, then once per
    draw left over.  A -theta draw maps the outcome y to (2^t - y) mod 2^t.
    """
    n = 1 << t
    theta = np.asarray(thetas, dtype=float)
    u = np.asarray(u, dtype=float)
    minus = u >= 0.5
    v = 2.0 * u - minus
    peak = np.floor(theta * (n / math.pi)).astype(np.int64)
    ys = np.empty(u.shape, dtype=np.int64)
    # One row per angle still in play, holding the flat positions of its
    # draws still to place: (angle, draw) at first, one draw a row after.
    draws = np.arange(u.size).reshape(u.shape)
    inner = 0
    for h in [h for h in _STAGES if 2 * h < n] + [n // 2]:
        offsets = np.concatenate((np.arange(1 - h, 1 - inner), np.arange(inner + 1, h + 1)))
        # (outcome, angle) layout: the cumulative sum runs down columns.
        cdf = ae_distribution(theta, t, peak + offsets[:, None]).cumsum(axis=0)
        k = (cdf[:, :, None] <= v).sum(axis=0)
        if 2 * h == n:
            np.minimum(k, offsets.size - 1, out=k)
        placed = k < offsets.size
        at = np.broadcast_to(peak[:, None], k.shape)[placed]
        ys.flat[draws[placed]] = at + offsets[k[placed]]
        rows, cols = np.nonzero(~placed)
        if rows.size == 0:
            break
        theta, peak = theta[rows], peak[rows]
        v = (v[rows, cols] - cdf[-1, rows])[:, None]
        draws = draws[rows, cols][:, None]
        inner = h
    ys %= n
    return np.where(minus, (n - ys) % n, ys)


def folded_median(ys: np.ndarray, t: int) -> np.ndarray:
    """Median over the last axis of outcomes folded into [0, 2^(t-1)]: the
    grid index y of the median estimated angle theta_hat = pi*y/2^t."""
    n = 1 << t
    return np.sort(np.minimum(ys, n - ys), axis=-1)[..., ys.shape[-1] // 2]


# Amplitudes sampled per ``ae_outcomes`` call.  The estimates do not depend
# on it.  A block's largest transients are its (2, block, repeats) first-stage
# comparison and a few (block, repeats) arrays, 96 kB each at 4096 amplitudes
# and 3 repeats.  At m = 256, t = 10 the step-1 distance call (32,640
# amplitudes, 3 repeats) took a median 44 ms in 1024-amplitude blocks,
# 33 ms in 2048, 28 ms in 4096, 27 ms in 8192 and 29 ms in one block (30
# interleaved runs, one process, 2 cores).
_AE_BLOCK = 4096


def amplitude_estimate(
    a: float | np.ndarray,
    t: int,
    rng: np.random.Generator,
    repeats: int = 1,
) -> AmplitudeEstimate:
    """Estimate theta = arcsin(sqrt(a)) from the exact AE outcome law.

    ``a`` is the good-branch probability of the prepared state (computed from
    a statevector by the exact backend, classically by the ledger backend),
    or an array of them; the estimates then have its shape and equal one
    scalar call per entry in flattened order.  ``repeats`` odd medians boost
    the 8/pi^2 confidence; every repeat costs the full Grover-power
    schedule, reported per amplitude in ``queries``.
    """
    a = np.asarray(a, dtype=float)
    ok = (a >= 0.0) & (a <= 1.0 + 1e-12)
    if not np.all(ok):
        raise ValueError(f"amplitude {a[~ok][0]} outside [0, 1]")
    if t < 1:
        raise ValueError("need at least one precision qubit")
    if repeats < 1 or repeats % 2 == 0:
        raise ValueError("repeats must be a positive odd integer")
    flat = np.arcsin(np.sqrt(np.minimum(a, 1.0))).ravel()
    theta_hat, a_hat = np.empty(flat.size), np.empty(flat.size)
    for lo in range(0, flat.size, _AE_BLOCK):
        hi = min(lo + _AE_BLOCK, flat.size)
        ys = ae_outcomes(flat[lo:hi], t, rng.random((hi - lo, repeats)))
        grid, idx = np.unique(folded_median(ys, t), return_inverse=True)
        angle = math.pi * grid / (1 << t)
        theta_hat[lo:hi] = angle[idx]
        # Python's sine, not numpy's, which rounds a few grid angles' sin^2
        # differently (t >= 12); once per grid angle in the block.
        a_hat[lo:hi] = np.array([math.sin(x) ** 2 for x in angle.tolist()])[idx]
    if a.ndim == 0:  # Python floats for a scalar amplitude
        theta_hat, a_hat = float(theta_hat[0]), float(a_hat[0])
    else:
        theta_hat, a_hat = theta_hat.reshape(a.shape), a_hat.reshape(a.shape)
    return AmplitudeEstimate(theta_hat, a_hat, ae_queries(t, repeats))


# ---------------------------------------------------------------------------
# Grover search, unknown number of solutions
# ---------------------------------------------------------------------------


def _grover_outcome_law(
    order: np.ndarray,
    tcount: int,
    r: int,
    rng: np.random.Generator,
) -> int:
    """Sample the measured index after r Grover iterations (closed form).

    ``order`` lists the domain with its ``tcount`` marked indices first.
    """
    m = order.size
    if tcount == 0:
        return int(rng.integers(m))
    if tcount == m:
        return int(order[rng.integers(m)])
    theta = math.asin(math.sqrt(tcount / m))
    if rng.random() < math.sin((2 * r + 1) * theta) ** 2:
        return int(order[rng.integers(tcount)])
    return int(order[tcount + rng.integers(m - tcount)])


def _grover_outcome_exact(
    marked: np.ndarray,
    m: int,
    r: int,
    rng: np.random.Generator,
) -> int:
    """Run r statevector Grover iterations over a uniform-over-m start state."""
    nq = max(1, math.ceil(math.log2(m)))
    dim = 1 << nq
    psi0 = np.zeros(dim)
    psi0[:m] = 1.0 / math.sqrt(m)
    full_mask = np.zeros(dim, dtype=bool)
    full_mask[:m] = marked
    amps = psi0.astype(np.complex128)
    for _ in range(r):
        amps = np.where(full_mask, -amps, amps)
        amps = 2.0 * psi0 * np.vdot(psi0, amps) - amps
    p = np.abs(amps) ** 2
    return int(rng.choice(dim, p=p / p.sum()))


@functools.lru_cache(maxsize=None)
def _schedule(m: int) -> np.ndarray:
    """Iteration caps ceil(B_j) of a search's rounds over a domain of size m,
    computed once per m and read-only.

    B starts at 1 and grows by ``GROWTH`` each round that finds nothing until
    it saturates at sqrt(m); ``EXTRA_ROUNDS`` more rounds follow.  Round j
    runs r_j iterations, drawn uniformly from [0, ceil(B_j)).
    """
    sqrt_m = math.sqrt(m)
    rounds = math.ceil(math.log(max(sqrt_m, 1.0)) / math.log(GROWTH)) + EXTRA_ROUNDS
    caps, big_m = [], 1.0
    for _ in range(rounds):
        caps.append(math.ceil(big_m))
        big_m = min(GROWTH * big_m, sqrt_m)
    caps = np.array(caps)
    caps.setflags(write=False)
    return caps


def _search_exact(marked: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
    """One search over one domain by statevector Grover iterations, round by
    round.  Returns (found index or -1, queries)."""
    queries = 0
    for cap in _schedule(marked.size).tolist():
        r = int(rng.integers(cap))
        y = _grover_outcome_exact(marked, marked.size, r, rng)
        queries += r + 1
        if marked[y]:
            return y, queries
    return -1, queries


def _search_block(marked: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One search per row of ``marked`` (closed form), every row one block.

    With nothing found the schedule is fixed, so row i's search is one
    (R, 2) block of uniforms (u, v): round j runs r_j = floor(u_j * ceil(B_j))
    iterations and measures a marked index when v_j < sin^2((2 r_j + 1) theta),
    sin^2(theta) = T/m.  The first such round ends the search; T = 0 never
    hits and T = m hits in round 0, with no float test.  Then one uniform per
    hit row, in row order, picks a marked index in index order.  Returns
    (found index or -1, queries) per row; a row's queries are the sum of
    r_j + 1 up to its hit, or over the whole schedule.
    """
    n, m = marked.shape
    caps = _schedule(m)
    u = rng.random((n, caps.size, 2))
    r = np.floor(u[..., 0] * caps).astype(np.int64)
    tcount = np.count_nonzero(marked, axis=1)
    hit = np.zeros(r.shape, dtype=bool)
    hit[tcount == m, 0] = True
    part = np.flatnonzero((tcount > 0) & (tcount < m))
    theta = np.arcsin(np.sqrt(tcount[part] / m))
    hit[part] = u[part, :, 1] < np.sin((2 * r[part] + 1) * theta[:, None]) ** 2
    found = hit.any(axis=1)
    last = np.where(found, hit.argmax(axis=1), caps.size - 1)
    queries = np.cumsum(r + 1, axis=1)[np.arange(n), last]
    y = np.full(n, -1, dtype=np.int64)
    rows = np.flatnonzero(found)
    pick = np.floor(rng.random(rows.size) * tcount[rows]).astype(np.int64)
    y[rows] = _nth_marked(marked[rows], tcount[rows], pick)
    return y, queries


def _nth_marked(marked: np.ndarray, tcount: np.ndarray, nth: np.ndarray) -> np.ndarray:
    """Per row of the 2-D ``marked``, which holds ``tcount`` marked entries
    per row, the index of its marked entry of rank ``nth`` (from 0) in index
    order; every row must have more than ``nth`` marked entries.  The rows'
    marked indices are listed row after row, so row j's lie at offsets
    [start_j, start_j + T_j) of that list (a flat scan: a 2-D ``nonzero``
    took 7x longer on 2000 x 4095 masks)."""
    cols = np.flatnonzero(marked) % marked.shape[1]
    return cols[np.cumsum(tcount) - tcount + nth]


def grover_search(
    marked: np.ndarray,
    rng: np.random.Generator,
    ledger: QueryLedger | None = None,
    exact: bool = False,
    charge: Mapping[str, int] = MappingProxyType({"pred": 1}),
) -> int | None | np.ndarray:
    """Find one marked index with the number of marked indices unknown.

    Returns a uniformly random solution (probability >= 1/2 per schedule pass,
    in practice far higher), or None once the schedule has saturated at
    sqrt(m) and ``EXTRA_ROUNDS`` more rounds produced nothing -- the T = 0
    escape.  Each round of r iterations makes r predicate queries plus one
    verification query.  A 2-D ``marked`` holds one domain per row; the
    result is then an array of one index per row, -1 where nothing was
    found, and a 1-D call is the one-row case.  The ledger backend samples
    each row as one block (:func:`_search_block`); the exact backend runs
    statevector rounds row by row.  The ledger is charged once, with the
    queries of every row.
    """
    marked = np.asarray(marked, dtype=bool)
    if marked.ndim not in (1, 2):
        raise ValueError("marked must be one domain or a 2-D array of domains")
    if marked.shape[-1] < 1:
        raise ValueError("domain must contain at least one element")
    rows = marked.reshape(-1, marked.shape[-1])
    if exact:
        out = np.array([_search_exact(row, rng) for row in rows], dtype=np.int64)
        y, queries = out.reshape(-1, 2).T
    else:
        y, queries = _search_block(rows, rng)
    if ledger is not None:
        ledger.charge_many(charge, int(queries.sum()))
    if marked.ndim == 2:
        return y
    return int(y[0]) if y[0] >= 0 else None


def grover_collect(
    marked: np.ndarray,
    rng: np.random.Generator,
    ledger: QueryLedger | None = None,
    exact: bool = False,
    expected: int | Sequence[int] | None = None,
    seed_found: Sequence[int] | Sequence[Sequence[int]] | None = None,
    charge: Mapping[str, int] = MappingProxyType({"pred": 1}),
) -> tuple[list[int], bool] | tuple[list[list[int]], list[bool]]:
    """Collect all marked indices by repeated search with exclusion.

    Stops when a search confirms saturation (finds nothing) or when the
    invocation cap, ``expected`` plus two (the domain size plus two when
    ``expected`` is None), is reached.  Returns (sorted solutions, saturated).
    ``seed_found`` pre-populates with solutions already known classically;
    its entries must be marked indices.

    A 2-D ``marked`` holds one domain per row, ``expected`` and
    ``seed_found`` one entry per row; the result is then one list of
    solutions and one saturation flag per row.  The rows collect in
    lockstep on both backends: each invocation is one :func:`grover_search`
    call over the rows still collecting, searching each row's marked
    indices not yet found.
    """
    marked = np.asarray(marked, dtype=bool)
    rows = marked.reshape(-1, marked.shape[-1])
    n, m = rows.shape
    left = rows.copy()  # the marked indices still to find
    if seed_found is not None:
        for i, seeds in enumerate([seed_found] if marked.ndim == 1 else seed_found):
            left[i, list(seeds)] = False
    cap = m + 2 if expected is None else np.maximum(np.asarray(expected) + 2, 1)
    cap = np.broadcast_to(cap, n)
    saturated = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for inv in range(int(cap.max(initial=0))):
        active = active[cap[active] > inv]
        if active.size == 0:
            break
        y = grover_search(left[active], rng, ledger=ledger, exact=exact, charge=charge)
        hit = y >= 0
        left[active[hit], y[hit]] = False
        saturated[active[~hit]] = True
        active = active[hit]
    solutions = [np.flatnonzero(row).tolist() for row in rows & ~left]
    if marked.ndim == 1:
        return solutions[0], bool(saturated[0])
    return solutions, saturated.tolist()


# ---------------------------------------------------------------------------
# Durr-Hoyer minimum finding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinResult:
    index: int
    value: float
    queries: int


def _dh_single(
    values: np.ndarray,
    order: np.ndarray,
    sorted_vals: np.ndarray,
    rng: np.random.Generator,
    budget: int,
    rank_once: bool = True,
) -> tuple[int, float, int]:
    """One Durr-Hoyer pass: threshold descent until the budget is exhausted.

    The rank T of the threshold, the number of values below it, is computed
    when a round first needs it and again only after an improvement; with
    ``rank_once`` false, in every round.  The draws are the same.
    """
    m = values.size
    best_i = int(rng.integers(m))
    best_v = float(values[best_i])
    queries = 1
    big_m = 1.0
    sqrt_m = math.sqrt(m)
    tcount = -1  # the threshold's rank, once a round needs it
    while queries < budget:
        r = int(rng.integers(math.ceil(big_m)))
        if tcount < 0 or not rank_once:
            tcount = int(np.searchsorted(sorted_vals, best_v, side="left"))
        y = _grover_outcome_law(order, tcount, r, rng)
        queries += r + 1
        v = float(values[y])
        if v < best_v:
            best_i, best_v = y, v
            big_m = 1.0
            tcount = -1
        else:
            # Ties keep the threshold; lowest observed index wins for determinism.
            if v == best_v and y < best_i:
                best_i = y
            big_m = min(GROWTH * big_m, sqrt_m)
    return best_i, best_v, queries


@dataclass(frozen=True)
class KthSmallestResult:
    value: float | np.ndarray
    indices: list[int] | np.ndarray  # the k indices realizing the k smallest values
    queries: int | np.ndarray


def kth_smallest(
    values: np.ndarray,
    k: int,
    rng: np.random.Generator,
    boost: int = 1,
    ledger: QueryLedger | None = None,
    charge: Mapping[str, int] = MappingProxyType({"value_oracle": 1}),
    rank_once: bool = True,
) -> KthSmallestResult:
    """k successive minimum searches, each excluding the indices already found.

    Each search is ``boost`` Durr-Hoyer passes, every pass a threshold
    descent under a fixed budget of ``BUDGET * sqrt(m)`` queries (success
    >= 1/2, empirically much higher), keeping the least (value, index) of
    its passes, which lifts the success floor to 1 - 2^-boost.  The k-th
    search's value is the k-th order statistic; ties beyond the k-th
    rank are resolved downstream by the <=-threshold neighborhood predicate.
    k may equal the domain size (callers that exclude the query point pass
    the m-1 other candidates and k up to m-1).  Each search runs over the
    row with its found indices set to +inf, in that masked row's stable sort
    order, so the found indices come last, in index order.  The values must
    be finite.  ``rank_once`` false ranks each threshold in every round
    instead of once (:func:`_dh_single`), with the same draws.

    A 2-D ``values`` holds one domain per row, searched row after row; the
    result then holds arrays: one value and one query count per row, and an
    (n, k) array of indices.  A 1-D call is the one-row case.  The ledger is
    charged once, with the queries of every row.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2):
        raise ValueError("values must be one domain or a 2-D array of domains")
    m = values.shape[-1]
    if not 1 <= k <= m:
        raise ValueError(f"k={k} outside [1, {m}]")
    if boost < 1:
        raise ValueError("boost must be >= 1")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    rows = values.reshape(-1, m)
    budget = math.ceil(BUDGET * math.sqrt(m))
    found = np.empty((rows.shape[0], k), dtype=np.int64)
    kth = np.empty(rows.shape[0])
    queries = np.zeros(rows.shape[0], dtype=np.int64)
    for n, row in enumerate(rows):
        masked = row.copy()
        for j in range(k):
            order = np.argsort(masked, kind="stable")
            sorted_vals = masked[order]
            best_i, best_v = -1, math.inf
            for _ in range(boost):
                i, v, q = _dh_single(masked, order, sorted_vals, rng, budget, rank_once)
                queries[n] += q
                if (v, i) < (best_v, best_i) or best_i < 0:
                    best_i, best_v = i, v
            found[n, j], kth[n] = best_i, best_v
            masked[best_i] = math.inf
    if ledger is not None:
        ledger.charge_many(charge, int(queries.sum()))
    if values.ndim == 2:
        return KthSmallestResult(value=kth, indices=found, queries=queries)
    return KthSmallestResult(float(kth[0]), found[0].tolist(), int(queries[0]))


def quantum_min(
    values: np.ndarray,
    rng: np.random.Generator,
    boost: int = 1,
    ledger: QueryLedger | None = None,
    charge: Mapping[str, int] = MappingProxyType({"value_oracle": 1}),
) -> MinResult:
    """Find an argmin of the 1-D ``values`` in O(sqrt(m)) value queries: the
    k = 1 case of :func:`kth_smallest`, with the same draws."""
    res = kth_smallest(values, 1, rng, boost=boost, ledger=ledger, charge=charge)
    return MinResult(index=res.indices[0], value=res.value, queries=res.queries)


# ---------------------------------------------------------------------------
# Quantum counting
# ---------------------------------------------------------------------------


def quantum_count(
    marked: np.ndarray,
    t: int,
    rng: np.random.Generator,
    repeats: int = 1,
    ledger: QueryLedger | None = None,
    charge: Mapping[str, int] = MappingProxyType({"count_pred": 1}),
) -> CountEstimate:
    """Estimate the number of marked indices: n_hat = m * sin^2(pi*y/2^t).

    Amplitude estimation of the uniform superposition against the predicate;
    a = T/m exactly, so the exact and ledger backends share one law.  Each
    repeat makes 2^t - 1 predicate applications (one per Grover power).
    A 2-D ``marked`` holds one domain per row; the result is then one call
    per row in order, with arrays for ``count`` and ``raw``.
    """
    marked = np.asarray(marked, dtype=bool)
    m = marked.shape[-1]
    if m < 1:
        raise ValueError("domain must contain at least one element")
    raw = m * amplitude_estimate(np.count_nonzero(marked, axis=-1) / m, t, rng, repeats).a_hat
    queries = repeats * ((1 << t) - 1)
    if ledger is not None:
        ledger.charge_many(charge, queries * (marked.size // m))
    count = np.rint(raw).astype(int) if marked.ndim > 1 else int(round(raw))
    return CountEstimate(count=count, raw=raw, queries=queries)


def counting_tolerance(m: int, true_count: int, t: int) -> float:
    """Error bound on the raw count estimate when the phase lands within one
    grid cell (probability >= 8/pi^2): 2*pi*sqrt(n(m-n))/2^t + pi^2*m/4^t."""
    n = 1 << t
    return (
        2.0 * math.pi * math.sqrt(true_count * (m - true_count)) / n
        + (math.pi**2) * m / (n * n)
    )

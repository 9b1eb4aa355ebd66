"""Quantum subroutines with exact and ledger backends.

Four primitives drive the pipeline:

* :func:`amplitude_estimate` -- phase estimation on a Grover operator; samples
  from the exact outcome law of the prepared amplitude and guarantees
  |theta - theta_hat| <= pi/2^t with probability >= 8/pi^2.
* :func:`grover_search` -- search with an unknown number of solutions via the
  exponentially growing iteration schedule (Boyer-Brassard-Hoyer-Tapp).
* :func:`quantum_min` / :func:`kth_smallest` -- Durr-Hoyer minimum finding
  under a fixed 22.5*sqrt(m) query budget, and k successive minimum searches
  with exclusion for the k-th order statistic.
* :func:`quantum_count` -- amplitude estimation of a membership predicate,
  returning m * sin^2(pi*y/2^t).

Every amplitude-estimation draw goes through :func:`ae_outcomes`, which
samples a block of angles at once; the pipeline's step 1 calls it directly.

The search primitives take the oracle's truth table as an array: a boolean
``marked`` mask for predicates, a float ``values`` array for value oracles;
the domain size m is the array's size.  A primitive given a ``ledger``
charges it once per call: every counter of ``charge`` times the call's
total number of oracle queries.

The exact backend runs real statevector Grover iterations; the ledger backend
samples outcomes from the identical closed-form success law while charging the
same oracle queries.  Simulation bookkeeping (evaluating the predicate to learn
the ground truth) is never charged; only queries made by the algorithm's
control flow are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .ledger import QueryLedger
from .qsim import (
    StateVector,
    ae_distribution,
    ae_mixture,
    phase_estimate,
    prepare_uniform,
    theta_from_outcome,
)

GROWTH = 6.0 / 5.0  # BBHT schedule factor
EXTRA_ROUNDS = 60  # rounds allowed after the schedule saturates at sqrt(m)


@dataclass(frozen=True)
class AmplitudeEstimate:
    """Result of one amplitude estimation (possibly a median of repeats)."""

    theta_hat: float
    a_hat: float
    t: int
    queries: int  # state-preparer applications charged


@dataclass(frozen=True)
class CountEstimate:
    """Result of quantum counting: rounded count plus the raw estimate."""

    count: int
    raw: float
    t: int
    queries: int


def ae_queries(t: int, repeats: int = 1) -> int:
    """State-preparer applications per estimate: one preparation plus A and
    A-dagger inside each of the 2^t - 1 controlled Grover powers."""
    return repeats * (2 * ((1 << t) - 1) + 1)


# A row with a draw this close to a step of the closed-form CDF is redrawn
# from the literal law.  The closed-form and literal samplers disagree only
# on a draw lying between a step of one CDF and the same step of the other,
# so the tolerance must exceed the largest gap between the two CDFs.
#
# Margin, with N = 2^t and delta >= _GRID_TOL the angle's distance to the
# grid pi*y/N.  Roundings of theta/pi, of the phase offsets d, of the
# products and of the tables put an absolute error of at most about 1e-15
# on every sine argument or table sine either law uses (N times that on the
# literal numerator's argument pi*N*d).  The sines they feed are at least
# 2*delta/pi (the numerator's |sin(N*theta)| at least 2*N*delta/pi), so
# every term of either law carries a relative error R <= 1e-14/delta, which
# is 1e-8 at delta = 1e-6.  A CDF value c = A/(A+B) then moves by at most
# c*(1-c)*2R <= R/2 = 5e-9, and each cumulative sum adds N*eps (1e-12 at
# t = 12): a twentieth of the tolerance.  Measured gaps are far smaller:
# below 5e-13 for t <= 12, down to delta = 1e-6.
_STEP_TOL = 1e-7


def amplitude_angle(a: float) -> float:
    """theta = arcsin(sqrt(a)) of a good-branch probability a in [0, 1]."""
    if not 0.0 <= a <= 1.0 + 1e-12:
        raise ValueError(f"amplitude {a} outside [0, 1]")
    return math.asin(min(1.0, math.sqrt(max(a, 0.0))))


def ae_outcomes(thetas: Sequence[float] | np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
    """Sample amplitude-estimation outcomes for a block of angles.

    Row b of the result is what ``Generator.choice(2**t, p=law)`` returns
    when it consumes the uniforms ``u[b]``, law being the literal outcome law
    :func:`~qlof.qsim.ae_mixture` of ``thetas[b]``: the index of the first
    CDF step above each draw.  The CDF comes from the closed-form
    :func:`~qlof.qsim.ae_distribution` of the whole block; a row with a draw
    within ``_STEP_TOL`` of one of its steps is redone on the literal law.
    """
    angles = np.asarray(thetas, dtype=float)
    u = np.asarray(u, dtype=float)
    law = ae_distribution(angles, t)
    cdf = np.zeros((angles.size, law.shape[1] + 1))  # column 0 is the step at 0
    np.cumsum(law, axis=1, out=cdf[:, 1:])
    cdf /= cdf[:, -1:]
    ys = np.array([row.searchsorted(draws, side="right") for row, draws in zip(cdf, u)]) - 1
    rows = np.arange(angles.size)[:, None]
    close = np.minimum(u - cdf[rows, ys], cdf[rows, ys + 1] - u) < _STEP_TOL
    for row in np.flatnonzero(close.any(axis=1)):
        literal = ae_mixture(float(angles[row]), t).cumsum()
        literal /= literal[-1]
        ys[row] = literal.searchsorted(u[row], side="right")
    return ys


def folded_median(ys: np.ndarray, t: int) -> np.ndarray:
    """Median over the last axis of outcomes folded into [0, 2^(t-1)]: the
    grid index of the median estimated angle (see ``theta_from_outcome``)."""
    n = 1 << t
    return np.sort(np.minimum(ys, n - ys), axis=-1)[..., ys.shape[-1] // 2]


def amplitude_estimate(
    a: float,
    t: int,
    rng: np.random.Generator,
    repeats: int = 1,
) -> AmplitudeEstimate:
    """Estimate theta = arcsin(sqrt(a)) from the exact AE outcome law.

    ``a`` is the good-branch probability of the prepared state (computed from
    a statevector by the exact backend, classically by the ledger backend).
    ``repeats`` odd medians boost the 8/pi^2 confidence; every repeat costs
    the full Grover-power schedule, reported in ``queries``.
    """
    theta = amplitude_angle(a)
    if t < 1:
        raise ValueError("need at least one precision qubit")
    if repeats < 1 or repeats % 2 == 0:
        raise ValueError("repeats must be a positive odd integer")
    ys = ae_outcomes([theta], t, rng.random((1, repeats)))
    theta_hat = theta_from_outcome(int(folded_median(ys, t)[0]), t)
    return AmplitudeEstimate(
        theta_hat=theta_hat,
        a_hat=math.sin(theta_hat) ** 2,
        t=t,
        queries=ae_queries(t, repeats),
    )


def amplitude_estimate_via_qpe(
    preparer: Callable[[], StateVector],
    good_flag,
    t: int,
    rng: np.random.Generator,
    repeats: int = 1,
    method: str = "auto",
    ledger: QueryLedger | None = None,
) -> AmplitudeEstimate:
    """Full statevector route: build the Grover operator of the preparer and
    run phase estimation on it.  Distribution-identical to
    :func:`amplitude_estimate`; used to validate the outcome law and in demos.
    """
    from .qsim import grover_operator  # local import keeps module load light

    op = grover_operator(preparer, good_flag)
    ys = phase_estimate(op, t, op.psi, rng, shots=repeats, method=method, ledger=ledger)
    theta_hat = theta_from_outcome(int(folded_median(ys, t)), t)
    return AmplitudeEstimate(
        theta_hat=theta_hat,
        a_hat=math.sin(theta_hat) ** 2,
        t=t,
        queries=ae_queries(t, repeats),
    )


# ---------------------------------------------------------------------------
# Grover search, unknown number of solutions
# ---------------------------------------------------------------------------


def _grover_outcome_law(
    marked: np.ndarray,
    m: int,
    r: int,
    rng: np.random.Generator,
) -> int:
    """Sample the measured index after r Grover iterations (closed form)."""
    idx = np.nonzero(marked)[0]
    tcount = idx.size
    if tcount == 0:
        return int(rng.integers(m))
    if tcount == m:
        return int(idx[rng.integers(tcount)])
    theta = math.asin(math.sqrt(tcount / m))
    p_good = math.sin((2 * r + 1) * theta) ** 2
    if rng.random() < p_good:
        return int(idx[rng.integers(tcount)])
    unmarked = np.nonzero(~marked)[0]
    return int(unmarked[rng.integers(unmarked.size)])


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


def default_cap_rounds(m: int) -> int:
    """Schedule rounds until saturation at sqrt(m), plus a safety tail."""
    return math.ceil(math.log(max(math.sqrt(m), 1.0)) / math.log(GROWTH)) + EXTRA_ROUNDS


def grover_search(
    marked: np.ndarray,
    rng: np.random.Generator,
    ledger: QueryLedger | None = None,
    exact: bool = False,
    cap_rounds: int | None = None,
    charge: Mapping[str, int] = MappingProxyType({"pred": 1}),
) -> int | None:
    """Find one marked index with the number of marked indices unknown.

    Returns a uniformly random solution (probability >= 1/2 per schedule pass,
    in practice far higher), or None once ``cap_rounds`` rounds produced
    nothing -- the T = 0 escape.  Each round of r iterations makes r
    predicate queries plus one verification query.
    """
    marked = np.asarray(marked, dtype=bool)
    m = marked.size
    if m < 1:
        raise ValueError("domain must contain at least one element")
    if cap_rounds is None:
        cap_rounds = default_cap_rounds(m)
    outcome_fn = _grover_outcome_exact if exact else _grover_outcome_law

    found = None
    queries = 0
    big_m = 1.0
    sqrt_m = math.sqrt(m)
    for _ in range(cap_rounds):
        r = int(rng.integers(math.ceil(big_m)))
        y = outcome_fn(marked, m, r, rng)
        queries += r + 1
        if marked[y]:
            found = y
            break
        big_m = min(GROWTH * big_m, sqrt_m)
    if ledger is not None:
        ledger.charge_many(charge, queries)
    return found


def grover_collect(
    marked: np.ndarray,
    rng: np.random.Generator,
    ledger: QueryLedger | None = None,
    exact: bool = False,
    expected: int | None = None,
    margin: int = 2,
    seed_found: Sequence[int] | None = None,
    max_invocations: int | None = None,
    charge: Mapping[str, int] = MappingProxyType({"pred": 1}),
) -> tuple[list[int], bool]:
    """Collect all marked indices by repeated search with exclusion.

    Stops when a search confirms saturation (returns None) or when the
    invocation cap is reached.  Returns (sorted solutions, saturated).
    ``seed_found`` pre-populates with solutions already known classically.
    """
    marked = np.asarray(marked, dtype=bool)
    found = np.zeros(marked.size, dtype=bool)
    if seed_found:
        found[list(seed_found)] = True
    if expected is not None:
        cap = max(expected + margin, 1)
    else:
        cap = marked.size + margin
    if max_invocations is not None:
        cap = min(cap, max_invocations)
    saturated = False
    for _ in range(cap):
        y = grover_search(
            marked & ~found, rng, ledger=ledger, exact=exact, charge=charge
        )
        if y is None:
            saturated = True
            break
        found[y] = True
    return np.flatnonzero(found).tolist(), saturated


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
    exact: bool,
) -> tuple[int, float, int]:
    """One Durr-Hoyer pass: threshold descent until the budget is exhausted."""
    m = values.size
    best_i = int(rng.integers(m))
    best_v = float(values[best_i])
    queries = 1
    big_m = 1.0
    sqrt_m = math.sqrt(m)
    while queries < budget:
        r = int(rng.integers(math.ceil(big_m)))
        tcount = int(np.searchsorted(sorted_vals, best_v, side="left"))
        if exact:
            marked = values < best_v
            y = _grover_outcome_exact(marked, m, r, rng)
        elif tcount == 0:
            y = int(rng.integers(m))
        else:
            theta = math.asin(math.sqrt(tcount / m))
            if rng.random() < math.sin((2 * r + 1) * theta) ** 2:
                y = int(order[rng.integers(tcount)])
            else:
                y = int(order[tcount + rng.integers(m - tcount)])
        queries += r + 1
        v = float(values[y])
        if v < best_v:
            best_i, best_v = y, v
            big_m = 1.0
        else:
            # Ties keep the threshold; lowest observed index wins for determinism.
            if v == best_v and y < best_i:
                best_i = y
            big_m = min(GROWTH * big_m, sqrt_m)
    return best_i, best_v, queries


def quantum_min(
    values: np.ndarray,
    rng: np.random.Generator,
    budget_multiplier: float = 22.5,
    boost: int = 1,
    ledger: QueryLedger | None = None,
    exact: bool = False,
    charge: Mapping[str, int] = MappingProxyType({"value_oracle": 1}),
) -> MinResult:
    """Find an argmin of ``values`` in O(sqrt(m)) value queries.

    Runs the Durr-Hoyer threshold descent for a fixed budget of
    ``budget_multiplier * sqrt(m)`` queries (success >= 1/2 at the canonical
    multiplier, empirically much higher), repeated ``boost`` times keeping the
    best candidate, which lifts the success floor to 1 - 2^-boost.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    if m < 1:
        raise ValueError("domain must contain at least one element")
    if boost < 1:
        raise ValueError("boost must be >= 1")
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    budget = math.ceil(budget_multiplier * math.sqrt(m))

    best_i, best_v, total = -1, math.inf, 0
    for _ in range(boost):
        i, v, q = _dh_single(values, order, sorted_vals, rng, budget, exact)
        total += q
        if (v, i) < (best_v, best_i) or best_i < 0:
            best_i, best_v = i, v
    if ledger is not None:
        ledger.charge_many(charge, total)
    return MinResult(index=best_i, value=best_v, queries=total)


@dataclass(frozen=True)
class KthSmallestResult:
    value: float
    indices: list[int]  # the k indices realizing the k smallest values
    queries: int


def kth_smallest(
    values: np.ndarray,
    k: int,
    rng: np.random.Generator,
    budget_multiplier: float = 22.5,
    boost: int = 1,
    ledger: QueryLedger | None = None,
    exact: bool = False,
    charge: Mapping[str, int] = MappingProxyType({"value_oracle": 1}),
) -> KthSmallestResult:
    """k successive minimum searches, each excluding the indices already found.

    The k-th search's value is the k-th order statistic; ties beyond the k-th
    rank are resolved downstream by the <=-threshold neighborhood predicate.
    k may equal the domain size (callers that exclude the query point pass
    the m-1 other candidates and k up to m-1).
    """
    values = np.asarray(values, dtype=float)
    if not 1 <= k <= values.size:
        raise ValueError(f"k={k} outside [1, {values.size}]")
    excluded = np.zeros(values.size, dtype=bool)
    found: list[int] = []
    total = 0
    value = math.nan
    for _ in range(k):
        res = quantum_min(
            np.where(excluded, math.inf, values),
            rng,
            budget_multiplier=budget_multiplier,
            boost=boost,
            ledger=ledger,
            exact=exact,
            charge=charge,
        )
        found.append(res.index)
        excluded[res.index] = True
        total += res.queries
        value = res.value
    return KthSmallestResult(value=value, indices=found, queries=total)


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
    """
    marked = np.asarray(marked, dtype=bool)
    m = marked.size
    if m < 1:
        raise ValueError("domain must contain at least one element")
    if t < 1:
        raise ValueError("need at least one precision qubit")
    if repeats < 1 or repeats % 2 == 0:
        raise ValueError("repeats must be a positive odd integer")
    theta = math.asin(math.sqrt(np.count_nonzero(marked) / m))
    ys = ae_outcomes([theta], t, rng.random((1, repeats)))
    raw = m * math.sin(theta_from_outcome(int(folded_median(ys, t)[0]), t)) ** 2
    queries = repeats * ((1 << t) - 1)
    if ledger is not None:
        ledger.charge_many(charge, queries)
    return CountEstimate(count=int(round(raw)), raw=raw, t=t, queries=queries)


def counting_tolerance(m: int, true_count: int, t: int) -> float:
    """Error bound on the raw count estimate when the phase lands within one
    grid cell (probability >= 8/pi^2): 2*pi*sqrt(n(m-n))/2^t + pi^2*m/4^t."""
    n = 1 << t
    return (
        2.0 * math.pi * math.sqrt(true_count * (m - true_count)) / n
        + (math.pi**2) * m / (n * n)
    )


def uniform_preparer(m: int, nq: int | None = None) -> Callable[[], StateVector]:
    """State-preparer for the uniform superposition over [0, m)."""
    if nq is None:
        nq = max(1, math.ceil(math.log2(m)))

    def prepare() -> StateVector:
        sv = StateVector([("x", nq)])
        prepare_uniform(sv, "x", m)
        return sv

    return prepare

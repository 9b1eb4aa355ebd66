"""The closed-form Grover measurement law and the statevector backend.

``_grover_outcome_law`` serves the Durr-Hoyer threshold descent and is the
per-round reference of the ledger search.  It must draw exactly what the two
copies it replaced drew, and the exact backend's statevector iterations must
sample the same law.  The ledger backend samples a whole search as one block
of uniforms; its first-hit round and query totals must follow the law of the
per-round loop.  Collection runs in lockstep on both backends, and its
properties are checked on both.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare

from qlof.ledger import QueryLedger
from qlof.primitives import (
    EXTRA_ROUNDS,
    GROWTH,
    _grover_outcome_exact,
    _grover_outcome_law,
    _nth_marked,
    _schedule,
    grover_collect,
    grover_search,
)


def search_law(marked, m, r, rng):
    """Grover search's law as it was written over the marked mask."""
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


def durr_hoyer_law(order, tcount, m, r, rng):
    """The Durr-Hoyer pass's inline law over the values' sort order."""
    if tcount == 0:
        return int(rng.integers(m))
    theta = math.asin(math.sqrt(tcount / m))
    if rng.random() < math.sin((2 * r + 1) * theta) ** 2:
        return int(order[rng.integers(tcount)])
    return int(order[tcount + rng.integers(m - tcount)])


def draws(law, *args, seed, n=20):
    """n successive outcomes of ``law(*args, rng)`` on one seeded stream."""
    rng = np.random.default_rng(seed)
    return [law(*args, rng) for _ in range(n)]


@st.composite
def domains(draw):
    m = draw(st.integers(1, 64))
    return m, draw(st.integers(0, m))


@settings(max_examples=300, deadline=None)
@given(domain=domains(), r=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_merged_law_draws_what_both_old_laws_drew(domain, r, seed):
    m, tcount = domain
    perm = np.random.default_rng(seed).permutation(m)
    marked = np.isin(np.arange(m), perm[:tcount])
    order = np.argsort(~marked, kind="stable")
    assert draws(_grover_outcome_law, order, tcount, r, seed=seed) == draws(
        search_law, marked, m, r, seed=seed
    )
    # The descent never has every index below its threshold: the current
    # best is not below itself.
    if tcount < m:
        assert draws(_grover_outcome_law, perm, tcount, r, seed=seed) == draws(
            durr_hoyer_law, perm, tcount, m, r, seed=seed
        )


def _pooled(counts, expected, floor=5.0):
    """Merge the cells expecting fewer than ``floor`` draws into one cell, so
    the chi-square approximation holds; a merged cell still below the floor
    joins the smallest remaining cell."""
    small = expected < floor
    c, e = list(counts[~small]), list(expected[~small])
    if small.any():
        if expected[small].sum() >= floor:
            c.append(counts[small].sum())
            e.append(expected[small].sum())
        else:
            k = int(np.argmin(e))
            c[k] += counts[small].sum()
            e[k] += expected[small].sum()
    return np.array(c), np.array(e)


def test_exact_and_closed_form_backends_sample_the_same_law():
    n_draws = 2000
    for m in (5, 8, 16):
        for tcount in (0, 1, 3):
            marked = np.arange(m) < tcount
            order = np.argsort(~marked, kind="stable")
            theta = math.asin(math.sqrt(tcount / m))
            for r in (0, 1, 3):
                p_good = math.sin((2 * r + 1) * theta) ** 2
                law = np.where(marked, p_good / max(tcount, 1), (1 - p_good) / (m - tcount))
                rng = np.random.default_rng([m, tcount, r])
                exact = np.bincount(
                    [_grover_outcome_exact(marked, m, r, rng) for _ in range(n_draws)],
                    minlength=m,
                )
                closed = np.bincount(
                    [_grover_outcome_law(order, tcount, r, rng) for _ in range(n_draws)],
                    minlength=m,
                )
                assert exact.size == m  # padding indices are never measured
                for hist in (exact, closed):
                    obs, exp = _pooled(hist, n_draws * law)
                    if obs.size > 1:
                        assert chisquare(obs, exp).pvalue > 1e-3, (m, tcount, r, hist)


class _Measure:
    """Stands in for a generator: keeps the law that a statevector
    measurement samples from."""

    def choice(self, n, p):
        self.p = p
        return 0


@st.composite
def grover_rounds(draw):
    m = draw(st.integers(1, 1024))
    return m, draw(st.integers(0, m)), draw(st.integers(0, math.ceil(math.sqrt(m)) - 1))


@settings(max_examples=200, deadline=None)
@given(case=grover_rounds(), seed=st.integers(0, 2**32 - 1))
def test_statevector_grover_law_is_the_closed_form(case, seed):
    # Boyer-Brassard-Hoyer-Tapp, Lemma 1: from the uniform state, Grover
    # iterations keep the marked amplitudes equal to one another and the
    # unmarked ones too, so the marked mass after r iterations is
    # sin^2((2r + 1) theta) with sin^2(theta) = T/m, whichever T are marked.
    m, tcount, r = case
    marked = np.random.default_rng(seed).permutation(m) < tcount
    measure = _Measure()
    _grover_outcome_exact(marked, m, r, measure)
    p = measure.p
    assert np.all(p[m:] == 0.0)  # the padding of the register stays empty
    for part in (marked, ~marked):
        if part.any():
            assert np.all(p[:m][part] == p[:m][part][0])
    theta = math.asin(math.sqrt(tcount / m))
    assert abs(p[:m][marked].sum() - math.sin((2 * r + 1) * theta) ** 2) <= 1e-12


# ---------------------------------------------------------------------------
# The block-sampled search against the per-round loop
# ---------------------------------------------------------------------------


def schedule_caps(m):
    """ceil(B) of every round of the unknown-T schedule, as the per-round
    loop grows it."""
    sqrt_m = math.sqrt(m)
    caps, big_m = [], 1.0
    for _ in range(math.ceil(math.log(max(sqrt_m, 1.0)) / math.log(GROWTH)) + EXTRA_ROUNDS):
        caps.append(math.ceil(big_m))
        big_m = min(GROWTH * big_m, sqrt_m)
    return np.array(caps)


def test_schedule_is_computed_once_per_domain_size():
    for m in (1, 2, 16, 255, 4096):
        caps = _schedule(m)
        assert _schedule(m) is caps and not caps.flags.writeable
        assert caps.tolist() == schedule_caps(m).tolist()


def test_nth_marked_equals_the_cumulative_sum_pick():
    # The pick the block search made before: the first index at which the
    # row's running count of marked entries exceeds the rank.
    g = np.random.default_rng(17)
    for m in (1, 2, 5, 40, 255):
        marked = g.random((30, m)) < g.random((30, 1))
        marked[0] = False
        marked[0, g.integers(m)] = True  # one marked
        marked[1] = True  # all marked
        marked = marked[marked.any(axis=1)]
        tcount = marked.sum(axis=1)
        for nth in (np.zeros_like(tcount), tcount - 1, g.integers(0, tcount)):
            want = (np.cumsum(marked, axis=1) > nth[:, None]).argmax(axis=1)
            assert _nth_marked(marked, tcount, nth).tolist() == want.tolist()


def per_round_search(marked, rng):
    """The search as a loop of rounds, one closed-form measurement each.
    Returns (first-hit round or -1, queries)."""
    order = np.argsort(~marked, kind="stable")
    tcount = int(np.count_nonzero(marked))
    queries = 0
    for j, cap in enumerate(schedule_caps(marked.size).tolist()):
        r = int(rng.integers(cap))
        y = _grover_outcome_law(order, tcount, r, rng)
        queries += r + 1
        if marked[y]:
            return j, queries
    return -1, queries


def block_search(marked, seed):
    """One ledger search on a fresh generator.  Returns (first-hit round or
    -1, queries); the round is read off the block's iteration draws, replayed
    on a twin generator: the running query sum reaches the charged total
    exactly at the last round run."""
    led = QueryLedger()
    y = grover_search(marked, np.random.default_rng(seed), ledger=led)
    queries = led.get("pred")
    caps = schedule_caps(marked.size)
    u = np.random.default_rng(seed).random((caps.size, 2))
    spent = np.cumsum(np.floor(u[:, 0] * caps) + 1)
    last = int(np.searchsorted(spent, queries))
    assert spent[last] == queries
    assert y is None or marked[y]
    if y is None:
        assert last == caps.size - 1
        return -1, queries
    return last, queries


def _same_law(a, b, floor=10):
    """Chi-square test of two samples of one discrete variable: categories
    with fewer than ``floor`` draws in both samples together are pooled."""
    values, inverse = np.unique(np.concatenate([a, b]), return_inverse=True)
    table = np.zeros((2, values.size))
    np.add.at(table, (np.repeat([0, 1], [len(a), len(b)]), inverse), 1)
    keep = table.sum(axis=0) >= floor
    table = np.column_stack([table[:, keep], table[:, ~keep].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        return 1.0
    return chi2_contingency(table).pvalue


def test_block_search_samples_the_per_round_law():
    n_draws = 1500
    for m, tcount in ((4, 1), (16, 1), (64, 3), (255, 2), (255, 0), (40, 37)):
        marked = np.random.default_rng([m, tcount]).permutation(m) < tcount
        rng = np.random.default_rng([m, tcount, 1])
        loop = np.array([per_round_search(marked, rng) for _ in range(n_draws)])
        block = np.array([block_search(marked, [m, tcount, 2, s]) for s in range(n_draws)])
        assert _same_law(loop[:, 0], block[:, 0]) > 1e-3, (m, tcount, "first-hit round")
        # Queries take many values: compare them in the loop's decile bins.
        edges = np.unique(np.quantile(loop[:, 1], np.linspace(0, 1, 11)[1:-1]))
        binned = [np.searchsorted(edges, q) for q in (loop[:, 1], block[:, 1])]
        assert _same_law(*binned) > 1e-3, (m, tcount, "queries")


@st.composite
def masks_with_seeds(draw):
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 4))
    marked = np.array(draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                    min_size=n, max_size=n)))
    seeds = [[i for i in np.flatnonzero(row) if draw(st.booleans())] for row in marked]
    return marked, seeds


@pytest.mark.parametrize("exact", [False, True], ids=["ledger", "exact"])
@settings(max_examples=100, deadline=None)
@given(case=masks_with_seeds(), seed=st.integers(0, 2**32 - 1))
def test_collect_finds_only_marked_and_keeps_its_seeds(exact, case, seed):
    marked, seeds = case
    found, saturated = grover_collect(
        marked, np.random.default_rng(seed), exact=exact, seed_found=seeds
    )
    assert len(found) == len(saturated) == marked.shape[0]
    for row, got, known in zip(marked, found, seeds):
        assert set(known) <= set(got) <= set(np.flatnonzero(row))
        assert got == sorted(got)


@settings(max_examples=100, deadline=None)
@given(case=masks_with_seeds(), seed=st.integers(0, 2**32 - 1))
def test_row_with_nothing_left_saturates_on_the_full_schedule(case, seed):
    marked, _ = case
    everything = [np.flatnonzero(row).tolist() for row in marked]
    led = QueryLedger()
    found, saturated = grover_collect(
        marked, np.random.default_rng(seed), ledger=led, seed_found=everything
    )
    assert found == everything and all(saturated)
    # One search per row, one block (R, 2) per row, every round run.
    caps = schedule_caps(marked.shape[1])
    u = np.random.default_rng(seed).random((marked.shape[0], caps.size, 2))
    assert led.get("pred") == int((np.floor(u[..., 0] * caps) + 1).sum())


@pytest.mark.parametrize("exact", [False, True], ids=["ledger", "exact"])
@settings(max_examples=150, deadline=None)
@given(case=masks_with_seeds(), seed=st.integers(0, 2**32 - 1))
def test_one_dimensional_call_is_the_one_row_case(exact, case, seed):
    row, known = case[0][0], case[1][0]
    rngs = [np.random.default_rng(seed) for _ in range(4)]
    leds = [QueryLedger() for _ in range(4)]
    y = grover_search(row, rngs[0], ledger=leds[0], exact=exact)
    (y2,) = grover_search(row[None], rngs[1], ledger=leds[1], exact=exact)
    assert (y if y is not None else -1) == y2
    got = grover_collect(
        row, rngs[2], ledger=leds[2], exact=exact, expected=len(known), seed_found=known
    )
    (found,), (sat,) = grover_collect(
        row[None], rngs[3], ledger=leds[3], exact=exact, expected=[len(known)], seed_found=[known]
    )
    assert got == (found, sat)
    assert leds[0].as_dict() == leds[1].as_dict() and leds[2].as_dict() == leds[3].as_dict()
    assert rngs[0].random() == rngs[1].random() and rngs[2].random() == rngs[3].random()

"""The closed-form Grover measurement law and the statevector backend.

``_grover_outcome_law`` serves both Grover search and the Durr-Hoyer
threshold descent.  It must draw exactly what the two copies it replaced drew,
and the exact backend's statevector iterations must sample the same law.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from qlof.primitives import _grover_outcome_exact, _grover_outcome_law


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

"""The block amplitude-estimation sampler against per-draw references.

``ae_outcomes`` must return exactly what ``Generator.choice`` returns on the
literal outcome law for the same uniforms, and the chunked step-1 distance
stage must equal a per-pair ``Generator.choice`` loop over the stage's one
stream, draw for draw, whatever the chunk size.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlof import pipeline, primitives
from qlof.dataset import RunConfig, normalized_distance_matrix
from qlof.pipeline import _STREAM_DIST, QuantumLofPipeline
from qlof.primitives import ae_outcomes, amplitude_estimate
from qlof.qsim import ae_distribution, ae_mixture, pe_kernel, theta_from_outcome
from qlof.synthetic import gaussian_clusters, random_dataset


def literal_law(theta, t):
    """The equal mixture of the two phase-estimation kernels at +-2*theta."""
    n = 1 << t
    ys = np.arange(n)
    omega = theta / math.pi
    p = 0.5 * pe_kernel(omega - ys / n, t) + 0.5 * pe_kernel(-omega - ys / n, t)
    return p / p.sum()


@st.composite
def angle_blocks(draw):
    t = draw(st.integers(1, 12))
    n = 1 << t
    thetas = []
    # Up to 40 angles: enough rows that the sampler's one search over the
    # row-shifted CDFs meets shifts far above the first few.
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.booleans()):
            theta = draw(st.floats(0.0, math.pi / 2))
        else:
            # Grid angles pi*y/2^t (0 and pi/2 among them) and neighbours on
            # both sides of the sampler's grid tolerance.
            theta = math.pi * draw(st.integers(0, n // 2)) / n
            theta += draw(st.sampled_from([0.0, -1e-12, 1e-12, -5e-7, 5e-7, -2e-6, 2e-6]))
        thetas.append(min(max(theta, 0.0), math.pi / 2))
    return thetas, t


@settings(max_examples=300, deadline=None)
@given(
    block=angle_blocks(),
    r=st.sampled_from([1, 3, 5, 7]),
    seed=st.integers(0, 2**32 - 1),
)
# An angle this close to 0 overflows the closed form's 1/sin^2 before its
# row is replaced by the literal law.
@example(block=([1e-158], 1), r=1, seed=0)
def test_ae_outcomes_equal_choice_on_the_literal_law(block, r, seed):
    thetas, t = block
    got = ae_outcomes(thetas, t, np.random.default_rng(seed).random((len(thetas), r)))
    rng = np.random.default_rng(seed)
    want = [rng.choice(1 << t, size=r, p=literal_law(theta, t)) for theta in thetas]
    assert np.array_equal(got, np.array(want))


def test_ae_distribution_rows_match_the_literal_law():
    thetas = np.array([0.0, 1e-7, 0.3, math.pi / 8, math.pi / 8 + 1e-3, 1.2, math.pi / 2])
    for t in (1, 2, 5, 10):
        law = ae_distribution(thetas, t)
        assert law.shape == (thetas.size, 1 << t)
        for theta, row in zip(thetas, law):
            assert np.allclose(row, literal_law(theta, t), rtol=1e-9, atol=1e-15)
            assert np.array_equal(ae_distribution(float(theta), t), row)
    assert np.array_equal(ae_distribution(0.0, 6), ae_mixture(0.0, 6))


def test_amplitude_estimate_of_a_subnormal_amplitude():
    assert amplitude_estimate(1e-310, 6, np.random.default_rng(0)).theta_hat == 0.0


def test_draw_on_a_literal_cdf_step_takes_the_fallback(monkeypatch):
    # Off the grid the closed-form CDF differs from the literal one in the
    # last bits; a draw exactly on a literal step where the closed-form step
    # lies above it would land one outcome early without the fallback row.
    theta, t = 0.4321, 9
    literal = literal_law(theta, t).cumsum()
    literal /= literal[-1]
    closed = ae_distribution(theta, t).cumsum()
    closed /= closed[-1]
    k = int(np.flatnonzero(closed > literal)[0])
    u = np.array([[literal[k]]])
    assert np.searchsorted(closed, u[0, 0], side="right") == k

    calls = []

    def counted(*args):
        calls.append(args)
        return ae_mixture(*args)

    monkeypatch.setattr(primitives, "ae_mixture", counted)
    # Generator.choice returns the first literal step above the draw: k + 1.
    assert ae_outcomes([theta], t, u)[0, 0] == k + 1
    assert calls == [(theta, t)]


def test_draw_next_to_one_stays_in_its_row():
    # 1 - 2^-53 plus a row shift of 1 or more rounds up onto the next row.
    thetas, t = [0.3, 0.7, 1.1], 6
    u = np.full((len(thetas), 2), np.nextafter(1.0, 0.0))
    want = []
    for theta, draws in zip(thetas, u):
        cdf = literal_law(theta, t).cumsum()
        cdf /= cdf[-1]
        want.append(cdf.searchsorted(draws, side="right"))  # as Generator.choice
    assert np.array_equal(ae_outcomes(thetas, t, u), np.array(want))


def _reference_distances(pipe):
    """Step 1 as one amplitude-estimation draw per pair, the pairs in
    upper-triangle row order, all from the stage's one generator."""
    cfg = pipe.config
    m, t = pipe.ds.m, cfg.ae_qubits_dist
    rng = pipe._rng(_STREAM_DIST)
    dmat = normalized_distance_matrix(pipe.ds)
    ref = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            if cfg.backend == "exact":
                a = pipe._pair_probabilities([i], [j])[0]
            else:
                a = dmat[i, j] ** 2
            theta = math.asin(min(1.0, math.sqrt(max(a, 0.0))))
            ys = rng.choice(1 << t, size=cfg.ae_repeats, p=literal_law(theta, t))
            thetas = sorted(theta_from_outcome(int(y), t) for y in ys)
            ref[i, j] = ref[j, i] = math.sin(thetas[cfg.ae_repeats // 2])
    return ref


@pytest.mark.parametrize(
    "backend, make",
    [
        ("ledger", lambda: gaussian_clusters(40, 2, np.random.default_rng(5))),
        ("exact", lambda: random_dataset(12, 3, np.random.default_rng(6))),
    ],
)
def test_distance_estimates_equal_the_per_pair_loop(backend, make):
    for seed in (1, 2):
        pipe = QuantumLofPipeline(make(), RunConfig(k=3, backend=backend, seed=seed))
        assert np.array_equal(pipe.distance_estimates(), _reference_distances(pipe))


def test_distance_estimates_do_not_depend_on_the_chunk_size(monkeypatch):
    # 435 pairs: neither 7 nor the default divides them.
    ds = gaussian_clusters(30, 2, np.random.default_rng(7))
    config = RunConfig(k=3, backend="ledger", ae_repeats=3, seed=4)
    mats = []
    for chunk in (1, 7, pipeline._DIST_CHUNK):
        monkeypatch.setattr(pipeline, "_DIST_CHUNK", chunk)
        mats.append(QuantumLofPipeline(ds, config).distance_estimates())
    assert all(np.array_equal(mats[0], mat) for mat in mats[1:])

"""The staged-window amplitude-estimation sampler against the outcome law.

``ae_outcomes`` must sample the literal outcome law ``ae_mixture`` exactly:
its outcome counts over evenly spaced uniforms must match the law to within
rounding of the count, on and off the outcome grid, and the draws forced
into each of its stages must follow the law restricted to that stage's
outcomes, evaluating the kernel only for the angles with a draw there.  The
step-1 distance stage must equal a per-pair loop of scalar ``ae_outcomes``
calls on the stage's one stream, draw for draw, whatever the estimator's
block size; the counting and step-3 stages must equal per-point loops of
scalar calls on theirs.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import ae_mixture, pe_kernel
from scipy.stats import chisquare

from qlof import primitives
from qlof.dataset import RunConfig, normalized_distance_matrix
from qlof.fixedpoint import q_div
from qlof.ledger import QueryLedger
from qlof.pipeline import _STREAM_COUNT, _STREAM_DIST, _STREAM_LOF, QuantumLofPipeline
from qlof.primitives import ae_outcomes, amplitude_estimate, quantum_count
from qlof.qsim import ae_distribution
from qlof.synthetic import gaussian_clusters, random_dataset

MIDPOINTS = 1 << 18


def literal_law(theta, t):
    """The equal mixture of the two phase-estimation kernels at +-2*theta."""
    n = 1 << t
    ys = np.arange(n)
    omega = theta / math.pi
    p = 0.5 * pe_kernel(omega - ys / n, t) + 0.5 * pe_kernel(-omega - ys / n, t)
    return p / p.sum()


def law_angles(t):
    """0, pi/2, an angle 1e-7 off the grid, one on it, and two generic ones."""
    n = 1 << t
    return [0.0, math.pi / 2, 1e-7, math.pi * max(1, n // 8) / n, 0.4321, 1.2345]


def stages(theta, t):
    """The sampler's stages: each stage's outcomes around the +theta peak,
    unreduced, in the order it inverts them."""
    n = 1 << t
    peak = math.floor(theta * n / math.pi)
    out, inner = [], 0
    for h in [h for h in primitives._STAGES if 2 * h < n] + [n // 2]:
        out.append(peak + np.r_[np.arange(1 - h, 1 - inner), np.arange(inner + 1, h + 1)])
        inner = h
    return out


def midpoint_counts(theta, t, u):
    """Outcome counts of ``ae_outcomes`` over the uniforms ``u``, sampled in
    slices so the tail's (draws, 2^t) table stays small."""
    counts = np.zeros(1 << t, dtype=np.int64)
    for part in np.array_split(u, 16):
        counts += np.bincount(ae_outcomes([theta], t, part[None, :])[0], minlength=1 << t)
    return counts


@pytest.mark.parametrize("t", range(1, 13))
def test_ae_outcomes_match_the_law_on_midpoint_uniforms(t):
    # Outcome y takes the uniforms of at most two intervals, one per branch,
    # of total length p_y, so the 2^18 evenly spaced uniforms (i + 1/2)/2^18
    # put within 2 of 2^18 * p_y draws on it.  t <= 5 has 2W = N: no tail.
    u = (np.arange(MIDPOINTS) + 0.5) / MIDPOINTS
    for theta in law_angles(t):
        counts = midpoint_counts(theta, t, u)
        assert counts.sum() == MIDPOINTS
        assert np.abs(counts - MIDPOINTS * ae_mixture(theta, t)).max() <= 4.0, theta


def test_ae_outcomes_pass_a_chi_square_test_against_the_law():
    for t in range(1, 13):
        rng = np.random.default_rng([11, t])
        for theta in law_angles(t) + [0.05, math.pi / 3]:
            ys = ae_outcomes(np.full(64, theta), t, rng.random((64, 500))).ravel()
            want = ys.size * ae_mixture(theta, t)
            seen = np.bincount(ys, minlength=1 << t)
            # Pool the outcomes expected fewer than 5 times into one bin, and
            # drop a pooled bin of mass 0 (grid angles): no draw may land there.
            big = want >= 5
            f_obs = np.append(seen[big], seen[~big].sum())
            f_exp = np.append(want[big], want[~big].sum())
            assert f_obs[f_exp == 0].sum() == 0, (theta, t)
            f_obs, f_exp = f_obs[f_exp > 0], f_exp[f_exp > 0]
            if f_exp.size == 1:  # the law has one outcome
                assert f_obs[0] == ys.size, (theta, t)
            else:
                assert chisquare(f_obs, f_exp).pvalue > 1e-3, (theta, t)


def test_ae_distribution_rows_match_the_literal_law():
    thetas = np.array([0.0, 1e-7, 0.3, math.pi / 8, math.pi / 8 + 1e-3, 1.2, math.pi / 2])
    for t in (1, 2, 5, 10):
        n = 1 << t
        ys = np.arange(n)
        plus = ae_distribution(thetas[:, None], t, ys)
        minus = ae_distribution(-thetas[:, None], t, ys)
        assert plus.shape == (thetas.size, n)
        # The -theta branch is the +theta branch reflected: y -> N - y.
        assert np.allclose(minus, plus[:, (n - ys) % n], rtol=1e-9, atol=1e-15)
        for theta, p in zip(thetas, plus):
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            # The two evaluations round the phase error differently: about
            # N * 2^-53 relative on pe_kernel's numerator argument.
            assert np.allclose(ae_mixture(theta, t), literal_law(theta, t), rtol=1e-9, atol=1e-15)


def test_amplitude_estimate_of_a_subnormal_amplitude():
    assert amplitude_estimate(1e-310, 6, np.random.default_rng(0)).theta_hat == 0.0


STAGE_ANGLES = pytest.mark.parametrize(
    "theta, t", [(0.4321, 9), (1.2345, 12), (0.05, 7), (0.3, 3), (1.0, 2)]
)


def test_stages_cover_every_outcome_once():
    for t in range(1, 13):
        for theta in law_angles(t):
            cover = np.concatenate(stages(theta, t)) % (1 << t)
            assert np.array_equal(np.sort(cover), np.arange(1 << t))


@STAGE_ANGLES
def test_draws_forced_into_each_stage_follow_its_law(theta, t):
    # Uniforms whose v lies past the mass of the stages before s and within
    # stage s's, on either branch, must land on stage s's outcomes and follow
    # the kernel restricted to them (reflected for the -theta branch).
    n = 1 << t
    kernel = pe_kernel(theta / math.pi - np.arange(n) / n, t)
    draws = 1 << 12
    before = 0.0
    for outcomes in stages(theta, t):
        law = np.zeros(n)
        law[outcomes % n] = kernel[outcomes % n]
        mass = law.sum()
        v = before + mass * (np.arange(draws) + 0.5) / draws
        for branch in (0, 1):
            u = np.array_split((v + branch) / 2.0, 8)
            ys = np.concatenate([ae_outcomes([theta], t, part[None, :])[0] for part in u])
            if branch:
                ys = (n - ys) % n
            counts = np.bincount(ys, minlength=n)
            assert counts[law == 0.0].sum() == 0, (outcomes, branch)
            assert np.abs(counts - draws * law / mass).max() <= 4.0, (outcomes, branch)
        before += mass


@STAGE_ANGLES
def test_a_stage_evaluates_only_the_angles_with_a_draw_in_it(theta, t, monkeypatch):
    # Five angles with three draws each, all placed by the first stage but
    # one draw of the middle angle, forced into stage s: the kernel is then
    # evaluated for every angle in the first stage and for that one draw in
    # each stage up to s, over that stage's outcomes.
    n = 1 << t
    kernel = pe_kernel(theta / math.pi - np.arange(n) / n, t)
    thetas = [0.11, 0.52, theta, 0.93, 1.34]
    calls = []

    def counted(theta_, t_, ys):
        calls.append(np.shape(ys))
        return ae_distribution(theta_, t_, ys)

    monkeypatch.setattr(primitives, "ae_distribution", counted)
    layout = stages(theta, t)
    before = 0.0
    for s, outcomes in enumerate(layout):
        mass = kernel[outcomes % n].sum()
        u = np.zeros((5, 3))
        u[2, 1] = (before + 0.5 * mass) / 2.0  # the +theta branch
        calls.clear()
        ys = ae_outcomes(thetas, t, u)
        assert ys[2, 1] in outcomes % n
        assert calls == [(2, 5)] + [(o.size, 1) for o in layout[1 : s + 1]]
        before += mass


def test_draw_next_to_one_stays_in_its_row():
    # u = 0 and u = 1 - 2^-53 (the last uniform: the -theta branch's v next
    # to one, past the window unless it holds every outcome) give outcomes in
    # [0, 2^t), whatever the angle.
    u = np.array([[0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(1.0, 0.0)]])
    for t in range(1, 13):
        for theta in law_angles(t):
            ys = ae_outcomes([theta], t, u)
            assert ys.shape == u.shape
            assert ((ys >= 0) & (ys < 1 << t)).all(), (theta, t, ys)


UNIFORMS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, float(np.nextafter(0.5, 0.0)), 0.5, float(np.nextafter(1.0, 0.0))]),
)


@st.composite
def sampler_inputs(draw):
    """A precision t, a block of angles and each angle's uniforms."""
    t = draw(st.integers(1, 12))
    n = 1 << t
    thetas = []
    for _ in range(draw(st.integers(1, 20))):
        if draw(st.booleans()):
            theta = draw(st.floats(0.0, math.pi / 2))
        else:
            # Grid angles pi*y/2^t (0 and pi/2 among them) and their neighbours.
            theta = math.pi * draw(st.integers(0, n // 2)) / n
            theta += draw(st.sampled_from([0.0, -1e-12, 1e-12, -5e-7, 5e-7]))
        thetas.append(min(max(theta, 0.0), math.pi / 2))
    r = draw(st.integers(1, 5))
    u = [[draw(UNIFORMS) for _ in range(r)] for _ in thetas]
    return thetas, t, np.array(u)


@settings(max_examples=200, deadline=None)
@given(inputs=sampler_inputs())
@example(inputs=([1e-158], 1, np.array([[0.25]])))
def test_outcomes_are_in_range_and_a_function_of_angle_and_uniform(inputs):
    thetas, t, u = inputs
    ys = ae_outcomes(thetas, t, u)
    assert ys.shape == u.shape
    assert ((ys >= 0) & (ys < 1 << t)).all()
    for b, theta in enumerate(thetas):
        for r, x in enumerate(u[b]):
            assert ys[b, r] == ae_outcomes([theta], t, [[x]])[0, 0]


def _reference_distances(pipe):
    """Step 1 as one scalar ``ae_outcomes`` call per pair, the pairs in
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
            ys = ae_outcomes([theta], t, rng.random((1, cfg.ae_repeats)))[0].tolist()
            thetas = sorted(math.pi * min(y, (1 << t) - y) / (1 << t) for y in ys)
            ref[i, j] = ref[j, i] = math.sin(thetas[cfg.ae_repeats // 2])
    return ref


STAGE_CASES = pytest.mark.parametrize(
    "backend, make",
    [
        ("ledger", lambda: gaussian_clusters(40, 2, np.random.default_rng(5))),
        ("exact", lambda: random_dataset(12, 3, np.random.default_rng(6))),
    ],
)


@STAGE_CASES
def test_distance_estimates_equal_the_per_pair_loop(backend, make):
    for seed in (1, 2):
        pipe = QuantumLofPipeline(make(), RunConfig(k=3, backend=backend, seed=seed))
        assert np.array_equal(pipe.distance_estimates(), _reference_distances(pipe))


@STAGE_CASES
def test_count_stage_equals_the_per_point_loop(backend, make):
    # The reference counts each point's candidates, its distance row without
    # its own entry, by one scalar call per point on the stage's stream.
    for seed in (1, 2):
        pipe = QuantumLofPipeline(make(), RunConfig(k=3, backend=backend, seed=seed))
        cfg = pipe.config
        others = [np.delete(row, i) for i, row in enumerate(pipe.distance_estimates())]
        kdist = np.array([pipe.find_k_distance(row)[0] for row in others])
        before = dict(pipe.ledger.counts)
        est = pipe.count_neighbors(np.array(others), kdist)
        charged = {k: v - before.get(k, 0) for k, v in pipe.ledger.counts.items()}
        rng, ledger = pipe._rng(_STREAM_COUNT), QueryLedger()
        ref = [
            quantum_count(
                row <= kd,
                cfg.ae_qubits_count,
                rng,
                repeats=cfg.ae_repeats,
                ledger=ledger,
                charge=pipe._query_cost["step1.count_pred"],
            )
            for row, kd in zip(others, kdist)
        ]
        assert est.count.tolist() == [r.count for r in ref]
        assert est.raw.tolist() == [r.raw for r in ref]
        assert {k: v for k, v in charged.items() if v} == ledger.as_dict()


@STAGE_CASES
def test_lof_stage_equals_the_per_point_loop(backend, make):
    for seed in (1, 2):
        pipe = QuantumLofPipeline(make(), RunConfig(k=3, backend=backend, seed=seed))
        cfg = pipe.config
        table = pipe.build_neighborhood_table()
        inv_lrd = pipe.compute_lrd_all(table)
        rhos = pipe.density_ratios(inv_lrd, table)
        bound = pipe.ratio_ceiling(rhos)
        lof_hat = pipe.compute_lof_all(rhos, bound)
        rng = pipe._rng(_STREAM_LOF)
        ref = []
        for i, row in enumerate(table.rows):
            ratios = [q_div(inv_lrd[i], inv_lrd[t]).value for t in row.neighbors]
            a = pipe._rotation_probability(ratios, bound, "sqrt")
            est = amplitude_estimate(a, cfg.ae_qubits_lof, rng, repeats=cfg.ae_repeats)
            ref.append(bound * est.a_hat)
        assert lof_hat.tolist() == ref


def test_distance_estimates_do_not_depend_on_the_chunk_size(monkeypatch):
    # 435 pairs: none of 7, 16 and the default divides them.
    ds = gaussian_clusters(30, 2, np.random.default_rng(7))
    config = RunConfig(k=3, backend="ledger", ae_repeats=3, seed=4)
    mats = []
    for block in (1, 7, 16, primitives._AE_BLOCK):
        monkeypatch.setattr(primitives, "_AE_BLOCK", block)
        mats.append(QuantumLofPipeline(ds, config).distance_estimates())
    assert all(np.array_equal(mats[0], mat) for mat in mats[1:])

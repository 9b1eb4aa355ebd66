import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlof import dataset, lof
from qlof.dataset import RunConfig, from_points
from qlof.ledger import QueryLedger
from qlof.lof import build_table, off_diagonal, row_points
from qlof.pipeline import QuantumLofPipeline, RatioBoundError
from qlof.qsim import StateVector
from qlof.synthetic import random_dataset

TOY = from_points([[0.0], [1.0], [2.0], [10.0]])
GRID3 = from_points([[0.0], [1.0], [2.0]])


def cfg(**kw):
    base = dict(k=2, delta=1.5, seed=11, backend="exact")
    base.update(kw)
    return RunConfig(**base)


def test_estimate_distance_certainties():
    ds = from_points([[0.0], [0.0], [2.0]])
    dist = QuantumLofPipeline(ds, cfg(k=2, seed=3)).distance_estimates()
    assert dist[0, 1] == 0.0  # a = 0 is exact in AE
    assert dist[0, 2] == 1.0  # the pair attaining c_norm
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diag(dist) == 0.0)


def test_estimate_distance_error_contract():
    # d-bar(0, 1) = 1/2 on [0, 1, 2]: a = 1/4, theta = pi/6, generic phase.
    bound = math.pi / 256
    hits = 0
    trials = 120
    for s in range(trials):
        pipe = QuantumLofPipeline(
            GRID3, cfg(k=1, seed=s, ae_qubits_dist=8, ae_repeats=1)
        )
        hits += abs(pipe.distance_estimates()[0, 1] - 0.5) <= bound + 1e-12
    sigma = math.sqrt(0.81 * 0.19 / trials)
    assert hits / trials >= 8 / math.pi**2 - 3 * sigma


def test_backends_compute_identical_pair_amplitudes():
    rng = np.random.default_rng(55)
    ds = random_dataset(6, 3, rng)
    exact = QuantumLofPipeline(ds, cfg(k=2, backend="exact"))
    ledger = QuantumLofPipeline(ds, cfg(k=2, backend="ledger"))
    # Step 1: a statevector per pair against the squared distance matrix.
    iu, ju = np.triu_indices(ds.m, 1)
    assert np.allclose(
        exact._pair_probabilities(iu, ju), ledger._pair_probabilities(iu, ju), rtol=0, atol=1e-12
    )
    # Step 3: square-root rotations by density ratios up to the ceiling.
    for nb in range(1, 7):
        bound = 1.0 + 3.0 * rng.random()
        rhos = list(bound * rng.random(nb))
        assert exact._rotation_probability(rhos, bound, "sqrt") == pytest.approx(
            ledger._rotation_probability(rhos, bound, "sqrt"), abs=1e-12
        )


def test_distance_preparer_full_qpe_route():
    # The statevector preparer for a pair feeds the standard AE machinery and
    # reproduces the closed-form outcome law bin for bin.
    from qlof.qsim import (
        ae_mixture,
        controlled_value_rotation,
        grover_operator,
        phase_distribution,
        prepare_uniform,
    )

    rng = np.random.default_rng(56)
    ds = random_dataset(5, 3, rng)
    i, t = 0, 3
    diffs = ds.points[i] - ds.points[t]

    sv = StateVector([("j", 2), ("anc", 1)])
    prepare_uniform(sv, "j", ds.n)
    controlled_value_rotation(sv, "j", "anc", diffs, scale=ds.c_norm)
    op = grover_operator(sv, ("anc", 0))
    pipe = QuantumLofPipeline(ds, cfg(k=2))
    assert op.amplitude == pytest.approx(pipe._pair_probabilities([i], [t])[0], abs=1e-12)
    pm = phase_distribution(op.matrix, op.psi, 6)
    assert np.allclose(pm, ae_mixture(op.theta, 6), atol=1e-10)


def test_rotation_shortcut_equals_value_register_pipeline():
    # Oracle-write -> rotate-on-register -> oracle-uncompute collapses to the
    # direct value-conditioned rotation once the register returns to |0>.
    from qlof.fixedpoint import encode
    from qlof.qsim import apply_oracle, controlled_value_rotation, prepare_uniform

    diffs = [0.1, 0.45, 0.3]  # |coordinate differences|, scale 0.5
    scale, w, f = 0.5, 6, 5
    bits = [encode(v, w, f).bits for v in diffs]
    table = np.array(bits + [0])  # the padding value j = 3 writes 0

    full = StateVector([("j", 2), ("val", w), ("anc", 1)])
    prepare_uniform(full, "j", 3)
    apply_oracle(full, table, "j", "val")
    controlled_value_rotation(full, "val", "anc", np.arange(1 << w) / (1 << f), scale=scale)
    apply_oracle(full, table, "j", "val")

    short = StateVector([("j", 2), ("anc", 1)])
    prepare_uniform(short, "j", 3)
    controlled_value_rotation(short, "j", "anc", [b / (1 << f) for b in bits], scale=scale)

    assert full.probability("val", 0) == pytest.approx(1.0)  # uncomputed
    marg_full = full.probabilities("anc")
    marg_short = short.probabilities("anc")
    assert np.allclose(marg_full, marg_short, atol=1e-12)


def test_fixed_point_ops_embed_as_permutation_unitaries():
    # The register arithmetic is reversible: adder and max act out-of-place
    # as |a>|b>|0> -> |a>|b>|f(a,b)>, which apply_oracle realizes as a
    # norm-preserving permutation; applying twice uncomputes.
    from qlof.fixedpoint import FixedPoint, q_add, q_max
    from qlof.qsim import apply_oracle, prepare_uniform

    w, f = 3, 1
    sv = StateVector([("a", w), ("b", w), ("out", w)])
    prepare_uniform(sv, "a", 1 << w)
    prepare_uniform(sv, "b", 1 << w)
    before = sv.amps.copy()

    for op in (q_add, q_max):
        table = np.array(
            [[op(FixedPoint(a, w, f), FixedPoint(b, w, f)).bits for b in range(1 << w)]
             for a in range(1 << w)]
        )
        apply_oracle(sv, table, ["a", "b"], "out")
        sv.check_norm()
        apply_oracle(sv, table, ["a", "b"], "out")
        assert np.allclose(sv.amps, before)


def test_count_neighbors_certain_when_all_within():
    # Every candidate inside the threshold: a = 1 is grid-exact, the count is
    # certain run after run.
    for s in range(20):
        pipe = QuantumLofPipeline(GRID3, cfg(k=2, seed=s))
        rows = off_diagonal(pipe.distance_estimates())
        kdist = np.array([pipe.find_k_distance(row)[0] for row in rows])
        assert pipe.count_neighbors(rows, kdist).count.tolist() == [2, 2, 2]


def test_estimate_distance_charges_per_point_pass():
    led = QueryLedger()
    pipe = QuantumLofPipeline(TOY, cfg(), ledger=led)
    pipe.distance_estimates()
    # One coherent pass per point row per repeat, not per pair.
    expected = TOY.m * pipe.config.ae_repeats * pipe._dist_eval_cost["step1.a_dist"]
    assert led.get("step1.a_dist") == expected


def test_find_k_distance_matches_classical():
    pipe = QuantumLofPipeline(GRID3, cfg(k=1, seed=5))
    kdist, seeds = pipe.find_k_distance(off_diagonal(pipe.distance_estimates())[0])
    assert abs(kdist - 0.5) <= pipe.config.eps_dist
    assert len(seeds) == 1
    # k = m-1: the largest estimated distance.
    pipe2 = QuantumLofPipeline(GRID3, cfg(k=2, seed=5))
    kd2, _ = pipe2.find_k_distance(off_diagonal(pipe2.distance_estimates())[0])
    assert abs(kd2 - 1.0) <= pipe2.config.eps_dist


def test_count_and_collect_consistency():
    pipe = QuantumLofPipeline(TOY, cfg(seed=9))
    rows = off_diagonal(pipe.distance_estimates())
    kdist, seeds = pipe.find_k_distance(rows[3])
    est = pipe.count_neighbors(rows[3:], np.array([kdist]))
    assert est.count.tolist() == [2]
    found, saturated = pipe.find_neighbors(rows[3], kdist, expected=2, seed_found=seeds)
    assert row_points(3, np.array(found)).tolist() == [1, 2] and saturated


def test_collection_cap_warns_on_every_unsaturated_row(monkeypatch):
    # Zero count estimates cap collection at two invocations past the k
    # seeds.  At t_dist 4 the estimates tie on the AE grid, so many rows hold
    # more members than that and stop unsaturated; each must be reported.
    from qlof.primitives import CountEstimate
    from qlof.synthetic import gaussian_clusters

    def no_count(self, rows, kdist):
        return CountEstimate(np.zeros(len(rows), dtype=int), np.zeros(len(rows)), 0)

    monkeypatch.setattr(QuantumLofPipeline, "count_neighbors", no_count)
    ds = gaussian_clusters(24, 2, np.random.default_rng(1))
    pipe = QuantumLofPipeline(ds, cfg(k=3, backend="ledger", ae_qubits_dist=4, seed=1))
    table = pipe.build_neighborhood_table()
    rows = off_diagonal(pipe.distance_estimates())
    held = np.count_nonzero(rows <= np.array([r.kdist for r in table.rows])[:, None], axis=1)
    short = [i for i, row in enumerate(table.rows) if row.count < held[i]]
    assert short
    for i in short:
        assert (
            f"point {i}: neighbor collection stopped at its cap without confirming "
            f"saturation, {table.rows[i].count} members found of an estimated 0"
        ) in pipe.warnings


def test_build_table_matches_classical_sets_under_margin():
    # Set equality is guaranteed when every estimate landed within eps_dist
    # and no other true distance sits within 2*eps_dist of the k-distance;
    # outside that margin the contract only promises the error budget.
    from qlof.dataset import normalized_distance_matrix

    checked = total = 0
    for s in (0, 1, 2):
        rng = np.random.default_rng(1000 + s)
        ds = random_dataset(8, 2, rng)
        pipe = QuantumLofPipeline(ds, cfg(k=2, seed=s))
        eps1 = pipe.config.eps_dist
        table = pipe.build_neighborhood_table()
        classical = build_table(ds, 2)
        dm = normalized_distance_matrix(ds)
        de = pipe.distance_estimates()
        for i in range(ds.m):
            total += 1
            assert table.rows[i].count >= 2
            others = [t for t in range(ds.m) if t != i]
            kd_true = classical.rows[i].kdist
            est_ok = all(abs(de[i, t] - dm[i, t]) <= eps1 for t in others)
            gap_ok = all(
                dm[i, t] == kd_true or abs(dm[i, t] - kd_true) > 2 * eps1
                for t in others
            )
            no_ties = classical.rows[i].count == 2
            if est_ok and gap_ok and no_ties:
                checked += 1
                assert table.rows[i].neighbors == classical.rows[i].neighbors
                assert abs(table.rows[i].kdist - kd_true) <= eps1
    assert checked >= 0.7 * total  # the margin case must dominate


def test_build_table_two_points():
    ds = from_points([[0.0], [3.0]])
    pipe = QuantumLofPipeline(ds, cfg(k=1, seed=2))
    table = pipe.build_neighborhood_table()
    assert table.rows[0].neighbors == [1]
    assert table.rows[1].neighbors == [0]


def test_compute_lrd_uniform_triple():
    pipe = QuantumLofPipeline(GRID3, cfg(k=1, seed=4))
    table = build_table(GRID3, 1)  # exact inputs isolate the arithmetic
    inv = pipe.compute_lrd_all(table)
    assert inv[1].value == 0.5  # both reach distances are exactly 0.5
    assert inv[0].value == 0.5 and inv[2].value == 0.5


def test_compute_lrd_tracks_oracle_within_rounding():
    rng = np.random.default_rng(77)
    ds = random_dataset(10, 2, rng)
    table = build_table(ds, 3)
    # Real-valued oracle: mean normalized reachability distance per point.
    kd = np.array([r.kdist for r in table.rows])
    real = np.array(
        [
            sum(max(kd[t], d) for t, d in zip(r.neighbors, r.dists)) / r.count
            for r in table.rows
        ]
    )
    for frac, width in ((8, 12), (12, 16)):
        pipe = QuantumLofPipeline(ds, cfg(k=3, fp_width=width, fp_frac=frac))
        inv = pipe.compute_lrd_all(table)
        got = np.array([x.value for x in inv])
        assert np.max(np.abs(got - real)) <= table.max_count * 2.0 ** (-frac)


def test_widening_frac_reduces_worst_deviation():
    rng = np.random.default_rng(88)
    worst = {}
    ds = random_dataset(12, 2, rng)
    table = build_table(ds, 3)
    kd = np.array([r.kdist for r in table.rows])
    real = np.array(
        [
            sum(max(kd[t], d) for t, d in zip(r.neighbors, r.dists)) / r.count
            for r in table.rows
        ]
    )
    for frac, width in ((8, 12), (12, 16)):
        pipe = QuantumLofPipeline(ds, cfg(k=3, fp_width=width, fp_frac=frac))
        got = np.array([x.value for x in pipe.compute_lrd_all(table)])
        worst[frac] = float(np.max(np.abs(got - real)))
    assert worst[12] < worst[8]


def _staged_ratios(pipe, table):
    return pipe.density_ratios(pipe.compute_lrd_all(table), table)


def test_compute_lof_uniform_densities_exact_one():
    # All densities equal -> every ratio 1, so the earned ceiling E is 1, the
    # amplitude 1 lies on the estimation grid and the estimate is exactly 1.
    pipe = QuantumLofPipeline(GRID3, cfg(k=1, seed=6))
    rhos = _staged_ratios(pipe, build_table(GRID3, 1))
    lof_hat = pipe.compute_lof_all(rhos, pipe.ratio_ceiling(rhos))
    assert np.allclose(lof_hat, 1.0, atol=1e-12)


def test_compute_lof_ratio_ceiling_violation():
    pipe = QuantumLofPipeline(TOY, cfg(seed=7))
    rhos = _staged_ratios(pipe, build_table(TOY, 2))
    with pytest.raises(RatioBoundError):
        pipe.compute_lof_all(rhos, ratio_bound=1.5)


@pytest.mark.parametrize("ds, k", [(TOY, 2), (GRID3, 1)])
def test_ratio_ceiling_is_the_largest_fixed_point_ratio(ds, k):
    table = build_table(ds, k)
    for seed in range(8):
        pipe = QuantumLofPipeline(ds, cfg(k=k, seed=seed))
        rhos = _staged_ratios(pipe, table)
        assert pipe.ratio_ceiling(rhos) == max(map(max, rhos))
        assert pipe.ledger.get("step3.max_ratio") > 0
    if ds is TOY:  # lrd(3) / lrd(2) = 17/3, up to fixed-point rounding
        assert math.isclose(max(map(max, rhos)), 17.0 / 3.0, rel_tol=1e-3)


def test_run_rotates_under_its_own_ceiling():
    # Stages draw from their own streams, so staging them by hand with the
    # same seed reproduces the run's neighborhoods and ratios.
    man = QuantumLofPipeline(TOY, cfg(seed=3)).run()
    pipe = QuantumLofPipeline(TOY, cfg(seed=3))
    rhos = _staged_ratios(pipe, pipe.build_neighborhood_table())
    assert man["error_budget"]["ratio_bound"] == max(map(max, rhos))
    assert man["ledger"]["step3.max_ratio"] > 0


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(4, 12),
    n=st.integers(1, 3),
    k=st.integers(1, 3),
    data_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**16),
    boost=st.integers(1, 3),
)
def test_ratio_ceiling_property(m, n, k, data_seed, seed, boost):
    ds = random_dataset(m, n, np.random.default_rng(data_seed))
    pipe = QuantumLofPipeline(
        ds, cfg(k=k, seed=seed, backend="ledger", min_boost=boost, ae_qubits_dist=8)
    )
    rhos = _staged_ratios(pipe, pipe.build_neighborhood_table())
    flat = [r for row in rhos for r in row]
    ceiling = pipe.ratio_ceiling(rhos)
    assert ceiling in flat and ceiling <= max(flat)
    # Only a ceiling below the largest ratio, a missed maximum, is refused.
    for e in {max(flat), ceiling, min(flat)}:
        if e < max(flat):
            with pytest.raises(RatioBoundError):
                pipe.compute_lof_all(rhos, e)
        else:
            assert np.all(pipe.compute_lof_all(rhos, e) <= e)


def test_flag_anomalies_extremes():
    pipe = QuantumLofPipeline(TOY, cfg(seed=8))
    lof_hat = np.array([0.9, 1.3, 0.9, 5.0])
    low, t_low, _ = pipe.flag_anomalies(lof_hat, 0.1, 0.0)
    assert low == [0, 1, 2, 3] and t_low == 4
    high, t_high, _ = pipe.flag_anomalies(lof_hat, 9.9, 0.0)
    assert high == [] and t_high == 0
    _, _, near = pipe.flag_anomalies(lof_hat, 1.25, 0.1)
    assert near  # 1.3 sits within the bound of delta


def test_error_budget_toy_frozen():
    pipe = QuantumLofPipeline(TOY, cfg(ae_qubits_dist=10, ae_qubits_lof=10))
    b = pipe.error_budget(34.0 / 3.0)
    eps = math.pi / 1024
    assert math.isclose(b.eps_dist, eps)
    assert b.ratio_bound == 34.0 / 3.0
    assert math.isclose(b.dist_floor_sq, 0.01, rel_tol=1e-12)
    assert math.isclose(b.total_bound, (34.0 / 3.0) * eps + 8.0 * eps / 0.01, rel_tol=1e-12)
    assert not b.vacuous  # bound 2.489 < max LOF 4.958


def test_error_budget_linearity():
    b1 = QuantumLofPipeline(TOY, cfg(ae_qubits_dist=8, ae_qubits_lof=8)).error_budget(6.0)
    b2 = QuantumLofPipeline(TOY, cfg(ae_qubits_dist=9, ae_qubits_lof=9)).error_budget(6.0)
    assert math.isclose(b2.total_bound, b1.total_bound / 2.0, rel_tol=1e-12)


def test_error_budget_all_equal_ratio_one():
    pipe = QuantumLofPipeline(GRID3, cfg(k=1))
    ceiling = pipe.ratio_ceiling(_staged_ratios(pipe, build_table(GRID3, 1)))
    assert ceiling == 1.0 and pipe.error_budget(ceiling).ratio_bound == 1.0


def test_run_toy_end_to_end():
    man = QuantumLofPipeline(TOY, cfg(seed=42)).run()
    assert man["schema"] == 1
    assert man["flags_match"] is True
    assert man["flagged_quantum"] == [3]
    assert all(pt["within_bound"] for pt in man["points"])
    assert man["error_budget"]["vacuous"] is False
    json.dumps(man)  # fully serializable


def test_run_builds_the_classical_reference_once(monkeypatch):
    # Count every call, whichever qlof module's binding it goes through.
    originals = {
        "build_table": lof.build_table,
        "normalized_distance_matrix": dataset.normalized_distance_matrix,
    }
    calls = dict.fromkeys(originals, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for modname, mod in list(sys.modules.items()):
        if modname == "qlof" or modname.startswith("qlof."):
            for name, fn in originals.items():
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted(name, fn))
    QuantumLofPipeline(TOY, cfg(seed=42)).run()
    assert calls == {"build_table": 1, "normalized_distance_matrix": 1}


def test_run_deterministic():
    a = QuantumLofPipeline(TOY, cfg(seed=123)).run()
    b = QuantumLofPipeline(TOY, cfg(seed=123)).run()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = QuantumLofPipeline(TOY, cfg(seed=124)).run()
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_exact_and_ledger_backends_agree_on_flags():
    a = QuantumLofPipeline(TOY, cfg(seed=5, backend="exact")).run()
    b = QuantumLofPipeline(TOY, cfg(seed=5, backend="ledger")).run()
    assert a["flagged_quantum"] == b["flagged_quantum"] == [3]
    for pa, pb in zip(a["points"], b["points"]):
        assert abs(pa["lof_quantum"] - pb["lof_quantum"]) <= 2 * a["error_budget"]["total_bound"]


@pytest.mark.parametrize("case", range(12))
def test_exact_and_ledger_runs_write_the_same_manifest(case):
    # The backends sample the same laws on one stream layout, so a compare
    # at the defaults on up to 16 random points writes the same manifest on
    # both, warnings and estimates included, apart from the backend's name
    # and the query ledger.
    rng = np.random.default_rng(case)
    m, n = int(rng.integers(6, 17)), int(rng.integers(1, 5))
    ds = random_dataset(m, n, rng)
    manifests = []
    for backend in ("exact", "ledger"):
        man = QuantumLofPipeline(ds, RunConfig(backend=backend, seed=case)).run()
        del man["ledger"], man["ledger_step_totals"], man["config"]["backend"]
        manifests.append(json.dumps(man, sort_keys=True))
    assert manifests[0] == manifests[1]


def test_monotone_precision():
    # Raising both AE precisions never worsens the 95th-percentile error.
    errs = {}
    for t in (6, 10):
        per = []
        for s in range(5):
            rng = np.random.default_rng(900 + s)
            ds = random_dataset(8, 2, rng)
            man = QuantumLofPipeline(
                ds, cfg(k=2, seed=s, ae_qubits_dist=t, ae_qubits_lof=t)
            ).run()
            per.extend(pt["abs_error"] for pt in man["points"])
        errs[t] = float(np.percentile(per, 95))
    assert errs[10] <= errs[6] + 1e-9


def test_ledger_step1_grows_superlinearly():
    totals = {}
    for m in (8, 16, 32):
        rng = np.random.default_rng(m)
        ds = random_dataset(m, 2, rng)
        led = QueryLedger()
        pipe = QuantumLofPipeline(
            ds,
            cfg(k=2, seed=m, backend="ledger", ae_qubits_dist=6, ae_repeats=3, min_boost=1),
            ledger=led,
        )
        pipe.build_neighborhood_table()
        totals[m] = led.get("step1.o_x")
    assert totals[16] > 1.5 * totals[8]
    assert totals[32] > 1.5 * totals[16]

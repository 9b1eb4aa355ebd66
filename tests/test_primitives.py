import math

import numpy as np
import pytest
from reference import (
    GroverOperator,
    ae_mixture,
    amplitude_estimate_via_qpe,
    grover_operator,
    phase_distribution,
)

from qlof import primitives
from qlof.ledger import QueryLedger
from qlof.primitives import (
    ae_queries,
    amplitude_estimate,
    counting_tolerance,
    folded_median,
    grover_collect,
    grover_search,
    kth_smallest,
    quantum_count,
    quantum_min,
)
from qlof.qsim import StateVector, prepare_uniform


def test_ae_certain_cases():
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert amplitude_estimate(0.0, 4, rng).theta_hat == 0.0
        est1 = amplitude_estimate(1.0, 3, rng)
        assert math.isclose(est1.theta_hat, math.pi / 2)
        assert math.isclose(est1.a_hat, 1.0)
        # a = 1/2: theta = pi/4, phase exactly representable at t = 4
        est = amplitude_estimate(0.5, 4, rng)
        assert math.isclose(est.a_hat, 0.5, abs_tol=1e-12)


def test_ae_queries_and_ledger():
    rng = np.random.default_rng(1)
    est = amplitude_estimate(0.3, 5, rng, repeats=3)
    assert est.queries == 3 * (2 * 31 + 1)
    assert ae_queries(5, 3) == est.queries


def test_ae_error_contract_sampled():
    # Single estimates: |theta - theta_hat| <= pi/2^t in >= 8/pi^2 of draws.
    rng = np.random.default_rng(2)
    t = 5
    hits = trials = 0
    for a in rng.random(60):
        theta = math.asin(math.sqrt(a))
        for _ in range(10):
            est = amplitude_estimate(float(a), t, rng)
            hits += abs(est.theta_hat - theta) <= math.pi / 2**t + 1e-12
            trials += 1
    frac = hits / trials
    sigma = math.sqrt(0.81 * 0.19 / trials)
    assert frac >= 8 / math.pi**2 - 3 * sigma


def test_ae_median_repeats_tighten():
    rng = np.random.default_rng(3)
    t = 5
    theta = math.asin(math.sqrt(0.37))
    singles = [abs(amplitude_estimate(0.37, t, rng).theta_hat - theta) <= math.pi / 2**t
               for _ in range(400)]
    medians = [abs(amplitude_estimate(0.37, t, rng, repeats=5).theta_hat - theta) <= math.pi / 2**t
               for _ in range(400)]
    assert np.mean(medians) >= np.mean(singles) - 0.02


def test_ae_via_qpe_distribution_identical():
    # The closed-form law equals the full statevector QPE route exactly.
    rng = np.random.default_rng(4)
    for a in (0.0, 0.2, 0.5, 0.83, 1.0):
        theta = math.asin(math.sqrt(a))
        sv = StateVector([("q", 1)])
        sv.amps = np.array([math.sin(theta), math.cos(theta)], dtype=complex)
        op = grover_operator(sv, ("q", 0))
        pm = phase_distribution(op.matrix, op.psi, 4)
        assert np.allclose(pm, ae_mixture(theta, 4), atol=1e-10)
        est = amplitude_estimate_via_qpe(sv, ("q", 0), 4, rng)
        assert 0.0 <= est.a_hat <= 1.0


def test_ae_via_qpe_samples_an_exact_phase():
    # a = 0, 1/2, 1 put the Grover eigenphases 0, +-1/4 and 1/2 turn on the
    # t = 3 grid: every sampled outcome is the exact angle.
    rng = np.random.default_rng(8)
    for a in (0.0, 0.5, 1.0):
        theta = math.asin(math.sqrt(a))
        sv = StateVector([("q", 1)])
        sv.amps = np.array([math.sin(theta), math.cos(theta)], dtype=complex)
        for _ in range(10):
            est = amplitude_estimate_via_qpe(sv, ("q", 0), 3, rng)
            assert est.theta_hat == pytest.approx(theta, abs=1e-12)
            assert est.queries == ae_queries(3)


def test_folded_median_folds_outcomes():
    # Outcomes y and 2^t - y estimate the same angle pi*y/2^t in [0, pi/2].
    assert folded_median(np.array([0]), 4) == 0
    assert folded_median(np.array([8]), 4) == 8  # theta_hat = pi/2
    assert folded_median(np.array([12]), 4) == folded_median(np.array([4]), 4) == 4
    # The median of the folded repeats, row by row.
    assert folded_median(np.array([[3, 13, 15], [0, 9, 8]]), 4).tolist() == [3, 7]


@pytest.mark.parametrize("block", [1, 4, primitives._AE_BLOCK])
def test_array_amplitude_estimate_equals_scalar_calls(block, monkeypatch):
    # Entries take their repeats from the stream in flattened order, block
    # by block, so an array call is one scalar call per entry on a twin
    # generator, and leaves the generator where those calls leave it.
    monkeypatch.setattr(primitives, "_AE_BLOCK", block)
    a = np.random.default_rng(20).random((3, 5))
    a[0, :2] = 0.0, 1.0
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    est = amplitude_estimate(a, 7, rng, repeats=3)
    singles = [amplitude_estimate(x, 7, twin, repeats=3) for x in a.ravel().tolist()]
    assert est.theta_hat.shape == est.a_hat.shape == a.shape
    assert est.theta_hat.ravel().tolist() == [s.theta_hat for s in singles]
    assert est.a_hat.ravel().tolist() == [s.a_hat for s in singles]
    assert est.queries == singles[0].queries == ae_queries(7, 3)
    assert all(type(s.theta_hat) is float and type(s.a_hat) is float for s in singles)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("t", [12, 14])
def test_amplitude_estimate_squares_the_sine_in_python(t):
    # Every grid angle pi*y/2^t is estimated exactly, and a_hat must be
    # math.sin(theta_hat) ** 2 bit for bit: numpy's square of the sine
    # rounds differently at a few of these angles.
    n = 1 << t
    y = np.arange(n // 2 + 1)
    est = amplitude_estimate(np.sin(np.pi * y / n) ** 2, t, np.random.default_rng(22))
    assert est.theta_hat.tolist() == (math.pi * y / n).tolist()
    assert est.a_hat.tolist() == [math.sin(x) ** 2 for x in est.theta_hat.tolist()]


def test_ae_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        amplitude_estimate(1.5, 4, rng)
    with pytest.raises(ValueError):
        amplitude_estimate(0.5, 0, rng)
    with pytest.raises(ValueError):
        amplitude_estimate(0.5, 4, rng, repeats=2)


# ---------------------------------------------------------------------------
# Grover search
# ---------------------------------------------------------------------------


def test_grover_single_iteration_certainty():
    # m = 4, T = 1: sin(theta) = 1/2, one iteration rotates to certainty.
    theta = math.asin(0.5)
    assert math.isclose(math.sin(3 * theta) ** 2, 1.0)
    # Statevector check through the exact backend at r = 1.
    from qlof.primitives import _grover_outcome_exact, _grover_outcome_law

    marked = np.array([False, False, True, False])
    order = np.argsort(~marked, kind="stable")
    rng = np.random.default_rng(5)
    for _ in range(50):
        assert _grover_outcome_exact(marked, 4, 1, rng) == 2
        assert _grover_outcome_law(order, 1, 1, rng) == 2


def test_grover_all_marked_zero_iterations():
    rng = np.random.default_rng(6)
    y = grover_search(np.ones(8, dtype=bool), rng)
    assert y is not None and 0 <= y < 8


def test_grover_not_found_on_empty():
    rng = np.random.default_rng(7)
    led = QueryLedger()
    assert grover_search(np.zeros(16, dtype=bool), rng, ledger=led) is None
    assert led.as_dict() == {"pred": led.get("pred")} and led.get("pred") > 0


def test_grover_unknown_t_success_rate():
    hits = 0
    for s in range(300):
        rng = np.random.default_rng(100 + s)
        sol = int(rng.integers(64))
        y = grover_search(np.arange(64) == sol, rng)
        hits += y == sol
    assert hits / 300 >= 0.95  # schedule succeeds well above the 1/2 floor


def test_grover_ledger_charges_iterations():
    rng = np.random.default_rng(8)
    led = QueryLedger()
    grover_search(np.arange(16) == 3, rng, ledger=led, charge={"q": 1, "r": 2})
    assert led.get("q") >= 1 and led.get("r") == 2 * led.get("q")


def test_grover_collect_with_exclusion_and_seed():
    rng = np.random.default_rng(9)
    marked = np.isin(np.arange(16), [2, 5, 11])
    found, saturated = grover_collect(marked, rng, expected=3)
    assert found == [2, 5, 11] and saturated
    found2, _ = grover_collect(marked, rng, expected=3, seed_found=[2, 5])
    assert found2 == [2, 5, 11]


@pytest.mark.parametrize("exact", [False, True], ids=["ledger", "exact"])
def test_grover_collect_stops_at_the_count_estimate_plus_two(exact):
    # Every index marked and an estimate of 3: each invocation finds a new
    # one, so the cap of 3 + 2 invocations alone ends the collection.
    rng = np.random.default_rng(23)
    found, saturated = grover_collect(np.ones(64, dtype=bool), rng, exact=exact, expected=3)
    assert len(found) == 5 and len(set(found)) == 5 and not saturated


# ---------------------------------------------------------------------------
# Minimum finding
# ---------------------------------------------------------------------------


def test_quantum_min_examples():
    rng = np.random.default_rng(10)
    res = quantum_min(np.array([3.0, 1.0, 2.0]), rng)
    assert res.index == 1 and res.value == 1.0
    # All equal: any index, value equals the common value.
    res = quantum_min(np.full(5, 7.0), rng)
    assert res.value == 7.0 and 0 <= res.index < 5


def test_quantum_min_budget_and_ledger():
    led = QueryLedger()
    rng = np.random.default_rng(11)
    res = quantum_min(np.arange(64.0), rng, ledger=led, charge={"v": 1})
    budget = math.ceil(22.5 * math.sqrt(64))
    assert res.queries >= budget  # runs to budget exhaustion
    assert res.queries <= budget + math.ceil(math.sqrt(64)) + 1
    assert led.get("v") == res.queries


def test_quantum_min_random_permutations_boosted():
    hits = 0
    trials = 300
    for s in range(trials):
        rng = np.random.default_rng(2000 + s)
        vals = rng.permutation(64).astype(float)
        res = quantum_min(vals, rng, boost=4)
        hits += res.index == int(np.argmin(vals))
    assert hits / trials >= 0.90


def test_kth_smallest_examples():
    rng = np.random.default_rng(12)
    res = kth_smallest(np.array([5.0, 1.0, 4.0, 2.0]), 2, rng, boost=3)
    assert res.value == 2.0 and sorted(res.indices) == [1, 3]
    # Tie at the k-th rank: value is still the order statistic.
    res = kth_smallest(np.array([1.0, 2.0, 2.0, 9.0]), 2, rng, boost=3)
    assert res.value == 2.0
    # k = m-1: the largest of the remaining values.
    res = kth_smallest(np.array([3.0, 0.0, 7.0, 5.0]), 3, rng, boost=3)
    assert res.value == 5.0
    with pytest.raises(ValueError):
        kth_smallest(np.zeros(4), 5, rng)


def test_kth_smallest_matches_sort_oracle():
    for s in range(40):
        rng = np.random.default_rng(4000 + s)
        vals = rng.random(20)
        k = int(rng.integers(1, 6))
        res = kth_smallest(vals, k, rng, boost=4)
        assert math.isclose(res.value, float(np.sort(vals)[k - 1]))


def masked_min_searches(values, k, rng, boost, ledger, charge):
    """k-th smallest as k searches, each ``boost`` Durr-Hoyer passes over the
    row with its found indices set to +inf and sorted afresh, written out
    with the scalar pass: the reference of the 2-D call's row loop."""
    budget = math.ceil(primitives.BUDGET * math.sqrt(values.size))
    excluded = np.zeros(values.size, dtype=bool)
    found, total, value = [], 0, math.nan
    for _ in range(k):
        masked = np.where(excluded, math.inf, values)
        order = np.argsort(masked, kind="stable")
        best_i, value = -1, math.inf
        for _ in range(boost):
            i, v, q = primitives._dh_single(masked, order, masked[order], rng, budget)
            total += q
            if (v, i) < (value, best_i) or best_i < 0:
                best_i, value = i, v
        found.append(best_i)
        excluded[best_i] = True
    if ledger is not None:
        ledger.charge_many(charge, total)
    return value, found, total


def search_rows(seed, m=12, n=6):
    """Rows for the k-distance search: continuous ones and tie-heavy ones
    over a few distinct values, one of them constant."""
    g = np.random.default_rng(seed)
    ties = g.integers(0, 3, size=(n, m)).astype(float)
    ties[0] = 0.25
    return np.concatenate([g.random((n, m)), ties])


@pytest.mark.parametrize("budget", [22.5, 0.5])
@pytest.mark.parametrize("boost", [1, 5])
@pytest.mark.parametrize("k", [1, 3, 11])
def test_kth_smallest_rows_equal_per_row_calls_on_one_stream(k, boost, budget, monkeypatch):
    # A budget of sqrt(m)/2 ends most searches after one round, often on a
    # found index: the order of the found indices at the end of the sort
    # order then decides which one.
    monkeypatch.setattr(primitives, "BUDGET", budget)
    charge = {"v": 1, "w": 3}
    for seed in range(4):
        vals = search_rows(seed)
        rngs = [np.random.default_rng([seed, 9]) for _ in range(3)]
        leds = [QueryLedger() for _ in range(3)]
        kw = dict(boost=boost, charge=charge)
        res = kth_smallest(vals, k, rngs[0], ledger=leds[0], **kw)
        rows = [kth_smallest(row, k, rngs[1], ledger=leds[1], **kw) for row in vals]
        loops = [masked_min_searches(row, k, rngs[2], boost, leds[2], charge) for row in vals]
        assert res.value.tolist() == [r.value for r in rows] == [v for v, _, _ in loops]
        assert res.indices.tolist() == [r.indices for r in rows] == [f for _, f, _ in loops]
        assert res.queries.tolist() == [r.queries for r in rows] == [q for _, _, q in loops]
        assert leds[0].as_dict() == leds[1].as_dict() == leds[2].as_dict()
        assert rngs[0].random() == rngs[1].random() == rngs[2].random()


@pytest.mark.parametrize("budget", [22.5, 0.5])
@pytest.mark.parametrize("boost", [1, 5])
def test_kth_smallest_draws_the_same_ranking_once_or_every_round(boost, budget, monkeypatch):
    # A threshold's rank changes only on an improvement, so keeping it
    # between rounds must not move a draw.
    monkeypatch.setattr(primitives, "BUDGET", budget)
    for seed in range(4):
        for vals, k in ((search_rows(seed), 3), (np.random.default_rng(seed).random((2, 255)), 5)):
            out = []
            for rank_once in (True, False):
                rng, led = np.random.default_rng([seed, 7]), QueryLedger()
                res = kth_smallest(vals, k, rng, boost=boost, ledger=led, rank_once=rank_once)
                got = (res.value.tolist(), res.indices.tolist(), res.queries.tolist())
                out.append((*got, led.as_dict(), rng.random()))
            assert out[0] == out[1]


@pytest.mark.parametrize("boost", [1, 5])
def test_quantum_min_is_kth_smallest_at_k_1(boost):
    charge = {"v": 1, "w": 3}
    for seed in range(4):
        for row in search_rows(seed, m=13):
            rng, twin = np.random.default_rng([seed, 5]), np.random.default_rng([seed, 5])
            led, twin_led = QueryLedger(), QueryLedger()
            got = quantum_min(row, rng, boost=boost, ledger=led, charge=charge)
            ref = kth_smallest(row, 1, twin, boost=boost, ledger=twin_led, charge=charge)
            assert (got.index, got.value, got.queries) == (ref.indices[0], ref.value, ref.queries)
            assert type(got.index) is int and type(got.value) is float
            assert led.as_dict() == twin_led.as_dict()
            assert rng.random() == twin.random()


def test_kth_smallest_charges_once_per_call():
    led = QueryLedger()
    calls = []
    led.charge_many = lambda charge, times: calls.append(times)
    res = kth_smallest(search_rows(0), 3, np.random.default_rng(1), ledger=led)
    assert calls == [int(res.queries.sum())]


def test_kth_smallest_rejects_bad_input():
    rng = np.random.default_rng(0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            kth_smallest(np.array([1.0, bad, 2.0]), 1, rng)
    with pytest.raises(ValueError):
        kth_smallest(np.ones(3), 1, rng, boost=0)
    with pytest.raises(ValueError):
        kth_smallest(np.ones((2, 2, 2)), 1, rng)


# ---------------------------------------------------------------------------
# Quantum counting
# ---------------------------------------------------------------------------


def test_count_extremes():
    rng = np.random.default_rng(13)
    assert quantum_count(np.zeros(8, dtype=bool), 4, rng).count == 0
    assert quantum_count(np.ones(8, dtype=bool), 4, rng).count == 8


def test_count_exact_phase_half():
    # 2 marked of 4: a = 1/2, representable at t = 3 -> exact every time.
    rng = np.random.default_rng(14)
    for _ in range(100):
        ce = quantum_count(np.array([True, False, False, True]), 3, rng)
        assert ce.count == 2 and abs(ce.raw - 2.0) < 1e-9


def test_counting_tolerance_at_the_extreme_counts():
    # With nothing or everything marked the sqrt term vanishes; the rest is
    # the second-order term pi^2 m / 4^t.
    for m, t in ((8, 5), (255, 5), (1000, 8)):
        second_order = math.pi**2 * m / 4**t
        for true_n in (0, m):
            assert counting_tolerance(m, true_n, t) == pytest.approx(second_order, rel=1e-12)


def test_count_contract_generic():
    m, t = 8, 5
    rng = np.random.default_rng(15)
    for true_n in range(m + 1):
        tol = counting_tolerance(m, true_n, t)
        hits = 0
        trials = 200
        for _ in range(trials):
            ce = quantum_count(np.arange(m) < true_n, t, rng)
            hits += abs(ce.raw - true_n) <= tol + 1e-12
        sigma = math.sqrt(0.81 * 0.19 / trials)
        assert hits / trials >= 8 / math.pi**2 - 3 * sigma


def test_quantum_count_rows_equal_per_row_calls():
    marked = np.random.default_rng(23).random((6, 9)) < 0.4
    marked[0], marked[1] = False, True
    rng, twin = np.random.default_rng(24), np.random.default_rng(24)
    led, twin_led = QueryLedger(), QueryLedger()
    ce = quantum_count(marked, 5, rng, repeats=3, ledger=led, charge={"cp": 1, "o_x": 4})
    singles = [
        quantum_count(row, 5, twin, repeats=3, ledger=twin_led, charge={"cp": 1, "o_x": 4})
        for row in marked
    ]
    assert ce.count.tolist() == [s.count for s in singles]
    assert ce.raw.tolist() == [s.raw for s in singles]
    assert ce.count.tolist()[:2] == [0, 9]
    assert ce.queries == singles[0].queries == 3 * 31
    assert led.as_dict() == twin_led.as_dict() == {"cp": 6 * 93, "o_x": 24 * 93}
    assert all(type(s.count) is int and type(s.raw) is float for s in singles)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_count_ledger_charges():
    rng = np.random.default_rng(16)
    led = QueryLedger()
    ce = quantum_count(np.arange(8) == 0, 4, rng, ledger=led, charge={"cp": 1, "o_x": 4})
    assert ce.queries == 15
    assert led.as_dict() == {"cp": 15, "o_x": 60}


def test_uniform_preparer_matches_counting_amplitude():
    # quantum_count estimates a = T/m: the good-branch probability of the
    # uniform superposition over the domain against the predicate.
    sv = StateVector([("x", 3)])
    prepare_uniform(sv, "x", 5)
    assert np.allclose(sv.probabilities("x")[:5], 0.2)
    op = GroverOperator(sv.amps, np.isin(np.arange(8), [1, 3]))
    assert math.isclose(op.amplitude, 2 / 5)

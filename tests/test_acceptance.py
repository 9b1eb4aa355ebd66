"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from qlof.cli import EXIT_OK, main as cli_main
from qlof.dataset import RunConfig, from_points, raw_distance_matrix
from qlof.fixedpoint import FixedPoint, q_add, q_mul_add
from qlof.ledger import QueryLedger
from qlof.lof import flag as classical_flag, lof_all
from qlof.pipeline import QuantumLofPipeline
from qlof.primitives import (
    amplitude_estimate,
    counting_tolerance,
    grover_search,
    quantum_count,
    quantum_min,
)
from qlof.synthetic import random_dataset

# Ensemble grid for criteria 1-2: 25 seeded runs cycling (m, n, k).
ENSEMBLE_GRID = [(m, n, k) for m in (4, 8, 16) for n in (1, 2, 4) for k in (2, 3)]
N_RUNS = 25
T_PRECISION = 10  # t1 = t3


def _passline(n: int, text: str) -> None:
    print(f"\nACCEPTANCE CRITERION {n}: PASS - {text}")


@pytest.fixture(scope="module")
def ensemble():
    """25 seeded end-to-end runs at t1 = t3 = 10 with 5-fold AE medians."""
    runs = []
    t0 = time.time()
    for r in range(N_RUNS):
        m, n, k = ENSEMBLE_GRID[r % len(ENSEMBLE_GRID)]
        rng = np.random.default_rng(5000 + r)
        ds = random_dataset(m, n, rng, min_gap_frac=0.05)
        raw = raw_distance_matrix(ds)
        np.fill_diagonal(raw, np.inf)
        assert raw.min() >= 0.05 * ds.c_norm  # enforced minimum pairwise gap
        config = RunConfig(
            k=k,
            delta=1.5,
            seed=9000 + r,
            backend="exact",
            ae_qubits_dist=T_PRECISION,
            ae_qubits_lof=T_PRECISION,
            ae_repeats=5,
        )
        pipe = QuantumLofPipeline(ds, config)
        manifest = pipe.run()
        runs.append({"ds": ds, "config": config, "pipe": pipe, "manifest": manifest})
    return {"runs": runs, "elapsed": time.time() - t0}


def test_criterion_1_oracle_equivalence(ensemble):
    good = 0
    for run in ensemble["runs"]:
        man = run["manifest"]
        assert man["error_budget"]["total_bound"] is not None
        good += all(pt["within_bound"] for pt in man["points"])
    assert good >= math.ceil(0.95 * N_RUNS), f"only {good}/{N_RUNS} runs within budget"
    assert ensemble["elapsed"] < 600.0
    _passline(
        1,
        f"{good}/{N_RUNS} runs had every |LOF_hat - LOF| within the derived "
        f"budget (ensemble took {ensemble['elapsed']:.1f}s)",
    )


def test_criterion_2_flag_set_agreement(ensemble):
    agree = 0
    for run in ensemble["runs"]:
        man = run["manifest"]
        bound = man["error_budget"]["total_bound"]
        lof_c = np.array([pt["lof_classical"] for pt in man["points"]])
        lof_q = np.array([pt["lof_quantum"] for pt in man["points"]])
        # Place delta >= 2x the budget away from every true LOF, preferring an
        # interior gap so both flagged and unflagged points exist.
        delta = float(np.max(lof_c) + 2.1 * bound)
        levels = np.sort(np.unique(lof_c))
        for lo, hi in zip(levels[:-1], levels[1:]):
            if hi - lo > 4.2 * bound:
                delta = float((lo + hi) / 2.0)
                break
        assert np.min(np.abs(lof_c - delta)) >= 2.0 * bound
        flags_c = {int(i) for i in np.nonzero(lof_c >= delta)[0]}
        flagged_q, _, _ = run["pipe"].flag_anomalies(lof_q, delta, bound)
        agree += set(flagged_q) == flags_c
    assert agree == N_RUNS, f"flag sets agreed in only {agree}/{N_RUNS} runs"
    _passline(2, f"flag sets identical in {agree}/{N_RUNS} runs at margin-separated delta")


def test_criterion_3_ae_calibration():
    n_amp = 200
    for t in (4, 6, 8):
        rng = np.random.default_rng(31 + t)
        bound = math.pi / (1 << t)
        hits = 0
        for a in rng.random(n_amp):
            theta = math.asin(math.sqrt(a))
            est = amplitude_estimate(float(a), t, rng, repeats=1)
            hits += abs(est.theta_hat - theta) <= bound + 1e-15
        frac = hits / n_amp
        floor = 8.0 / math.pi**2 - 3.0 * math.sqrt(0.81 * 0.19 / n_amp)
        assert frac >= floor, f"t={t}: fraction {frac:.3f} below {floor:.3f}"
    _passline(3, f"AE angle error within pi/2^t at >= 8/pi^2 - 3sigma for t in (4, 6, 8)")


def test_criterion_4_exact_phase_certainties():
    rng = np.random.default_rng(41)
    t = 4
    for a in (0.0, 0.5, 1.0):  # eigenphases 0, 1/4, 1/2 turns: grid-exact
        theta = math.asin(math.sqrt(a))
        for _ in range(100):
            est = amplitude_estimate(a, t, rng, repeats=1)
            assert est.theta_hat == pytest.approx(theta, abs=1e-12)
            assert est.a_hat == pytest.approx(a, abs=1e-12)
    _passline(4, "a in {0, 1/2, 1} estimated exactly in 100/100 trials each")


def test_criterion_5_ledger_step1_scaling():
    t0 = time.time()
    grid = [8, 16, 32, 64]
    medians = []
    for m in grid:
        totals = []
        for trial in range(3):
            rng = np.random.default_rng(1000 * m + trial)
            ds = random_dataset(m, 2, rng)
            config = RunConfig(
                k=3,
                seed=500 + m + trial,
                backend="ledger",
                ae_qubits_dist=9,
                ae_qubits_count=5,
                ae_repeats=3,
                min_boost=1,
            )
            ledger = QueryLedger()
            QuantumLofPipeline(ds, config, ledger=ledger).build_neighborhood_table()
            totals.append(ledger.get("step1.o_x"))
        medians.append(float(np.median(totals)))
    slope = float(np.polyfit(np.log(grid), np.log(medians), 1)[0])
    elapsed = time.time() - t0
    assert 1.3 <= slope <= 1.7, f"step-1 exponent {slope:.3f} outside [1.3, 1.7]"
    assert elapsed < 60.0
    _passline(5, f"step-1 query exponent {slope:.3f} in [1.3, 1.7] ({elapsed:.1f}s)")


def test_criterion_6_primitive_scaling():
    grid = [16, 64, 256, 1024]
    med_min, med_grover = [], []
    for m in grid:
        q_min, q_gro = [], []
        for trial in range(15):
            rng = np.random.default_rng(60_000 + 31 * m + trial)
            vals = rng.random(m)
            res = quantum_min(vals, rng)
            q_min.append(res.queries)
            led = QueryLedger()
            sol = int(rng.integers(m))
            grover_search(np.arange(m) == sol, rng, ledger=led)
            q_gro.append(led.get("pred"))
        med_min.append(float(np.median(q_min)))
        med_grover.append(float(np.median(q_gro)))
    slope_min = float(np.polyfit(np.log(grid), np.log(med_min), 1)[0])
    slope_gro = float(np.polyfit(np.log(grid), np.log(med_grover), 1)[0])
    assert 0.35 <= slope_min <= 0.65, f"quantum_min exponent {slope_min:.3f}"
    assert 0.35 <= slope_gro <= 0.65, f"grover exponent {slope_gro:.3f}"
    _passline(
        6,
        f"query exponents quantum_min {slope_min:.3f}, grover {slope_gro:.3f}, "
        f"both in [0.35, 0.65]",
    )


def test_criterion_7_fixed_point_exhaustive():
    mismatches = 0
    for a in range(64):
        for b in range(64):
            if q_add(FixedPoint(a, 6, 3), FixedPoint(b, 6, 3)).bits != (a + b) % 64:
                mismatches += 1
    assert mismatches == 0
    for x in range(16):
        for y in range(16):
            xy = x * y
            for z in range(256):
                got = q_mul_add(
                    FixedPoint(x, 4, 2), FixedPoint(y, 4, 2), FixedPoint(z, 8, 4)
                )
                if got.bits != (z + xy) % 256:
                    mismatches += 1
    assert mismatches == 0
    _passline(7, "4096 q_add and 65536 q_mul_add cases match modular arithmetic exactly")


def test_criterion_8_classical_lof_properties():
    # Frozen regression values for the [0, 1, 2, 10] toy at k = 2.
    toy = from_points([[0.0], [1.0], [2.0], [10.0]])
    rep = classical_flag(toy, 2, 1.5)
    assert np.array_equal(rep.kdist, [0.2, 0.1, 0.2, 0.9])
    assert np.allclose(rep.lof, [7 / 8, 4 / 3, 7 / 8, 119 / 24], rtol=0, atol=1e-15)
    assert rep.flagged_indices() == [3]

    rng = np.random.default_rng(81)
    for _ in range(10):
        pts = rng.random((int(rng.integers(5, 13)), int(rng.integers(1, 4)))) * 7
        ds = from_points(pts)
        base = lof_all(ds, 2)
        c = float(rng.random() * 9 + 0.2)
        assert np.allclose(lof_all(from_points(pts * c), 2), base, atol=1e-9)
        perm = rng.permutation(ds.m)
        assert np.array_equal(lof_all(from_points(pts[perm]), 2), base[perm])

    grid = from_points([[float(i)] for i in range(12)])
    vals = lof_all(grid, 2)
    assert all(abs(vals[i] - 1.0) <= 1e-9 for i in range(3, 9))
    _passline(8, "scale invariance, exact permutation equivariance, grid LOF = 1, frozen toy")


def test_criterion_9_counting_contract():
    m = 8
    # Exactly representable settings: a = n/m in {0, 1/2, 1}.
    rng = np.random.default_rng(91)
    for true_n in (0, 4, 8):
        for _ in range(100):
            ce = quantum_count(np.arange(m) < true_n, 4, rng)
            assert ce.count == true_n and abs(ce.raw - true_n) < 1e-9

    t = 5
    for true_n in range(8):
        tol = counting_tolerance(m, true_n, t)
        hits = 0
        trials = 300
        for _ in range(trials):
            ce = quantum_count(np.arange(m) < true_n, t, rng)
            hits += abs(ce.raw - true_n) <= tol + 1e-12
        floor = 8.0 / math.pi**2 - 3.0 * math.sqrt(0.81 * 0.19 / trials)
        assert hits / trials >= floor, f"n={true_n}: {hits / trials:.3f} < {floor:.3f}"
    _passline(9, "counting exact at representable phases; within tolerance at t=5 generic")


def test_criterion_10_cli_determinism(tmp_path):
    toy = tmp_path / "toy.csv"
    toy.write_text("0\n1\n2\n10\n")
    pairs = [
        (["compare", str(toy), "--k", "2", "--seed", "13", "--out"], "manifest.json"),
        (["quantum", str(toy), "--k", "2", "--seed", "13", "--out"], "quantum.json"),
        (["classical", str(toy), "--k", "2", "--out"], "report.csv"),
        (["scale", "--grid", "8,16", "--trials", "1", "--seed", "13", "--out"], "scale.csv"),
        (
            ["calibrate-ae", "--t-list", "4", "--amplitudes", "4", "--trials", "4",
             "--seed", "13", "--out"],
            "calibrate.csv",
        ),
    ]
    for argv, artifact in pairs:
        blobs = []
        for rep in ("r1", "r2"):
            out = tmp_path / (artifact + rep)
            assert cli_main(argv + [str(out)]) == EXIT_OK
            blobs.append((out / artifact).read_bytes())
        assert blobs[0] == blobs[1], f"{artifact} differs across identical runs"
    _passline(10, "repeated seeded CLI invocations emit byte-identical artifacts")

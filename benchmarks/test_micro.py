"""Microbenchmarks of the primitives behind the benchmark's hot stages.

Kept out of the test run (``testpaths`` is ``tests``); run them with

    PYTHONPATH=src python -m pytest benchmarks -q

``pytest-benchmark`` prints a table of per-call times.  The end-to-end
figures come from ``bench/run.py``; these isolate one primitive each:

* the window sampler ``ae_outcomes`` on one step-1 chunk: 1024 angles with
  3 draws each at t = 10, the ``ledger-m256`` precision, and the
  ``ledger-m256`` distance stage's one ``amplitude_estimate`` call: 32,640
  amplitudes at t = 10 with 3 repeats;
* one scalar ``amplitude_estimate`` of 3 repeats at t = 5 and t = 6, the
  counting and step-3 precisions of ``qlof scale`` and ``ledger-m256``, and
  the step-3 stage's one array call: 256 amplitudes at t = 6;
* the step-1 distance stage of a ledger pipeline at m = 64 and at m = 256,
  the ``ledger-m256`` size (t = 10, 3 repeats): 32,640 pairs sampled in
  chunks from one stream;
* the exact backend's per-pair rotation, ``controlled_value_rotation`` on a
  uniform superposition over 4 coordinates;
* an exact-backend ``grover_search`` with nothing marked, the saturation
  check that ends every neighborhood collection;
* the ledger-backend layers behind a ``ledger-m256`` point: ``kth_smallest``
  at m = 255, k = 3, boost 1, over one row and over the k-distance stage's
  256 x 255 rows, ``quantum_count`` at t = 5 with 3 repeats
  over one row and over the counting stage's 256 x 255 mask, and the
  collection stage's one ``grover_collect`` call over a 256 x 255 mask;
* lockstep ``grover_collect`` over 1024 x 1023 rows of 3 to 25 marked
  indices with 3 known per row, the regime where collection runs many
  invocations;
* step 2's fixed-point operations at the ``qlof scale`` format (20, 12):
  ``q_mul_add`` into the (40, 24) accumulator and the ``q_div`` of that sum
  by the neighbor count;
* the classical reference's ``lof.build_table`` at m = 256, k = 3.
"""

import numpy as np
import pytest

from qlof.dataset import RunConfig
from qlof.fixedpoint import encode, q_div, q_mul_add
from qlof.lof import build_table
from qlof.pipeline import QuantumLofPipeline
from qlof.primitives import (
    ae_outcomes,
    amplitude_estimate,
    grover_collect,
    grover_search,
    kth_smallest,
    quantum_count,
)
from qlof.qsim import StateVector, controlled_value_rotation, prepare_uniform
from qlof.synthetic import gaussian_clusters

REPEATS = 3


def test_ae_outcomes_chunk_t10(benchmark):
    rng = np.random.default_rng(0)
    thetas = np.arcsin(np.sqrt(rng.random(1024)))
    u = rng.random((1024, REPEATS))
    assert benchmark(ae_outcomes, thetas, 10, u).shape == (1024, REPEATS)


def test_amplitude_estimate_distance_stage_t10(benchmark):
    # The pair amplitudes of a ledger-m256 run: squared normalized distances.
    a = np.random.default_rng(1).random(32640) ** 2 * 0.3
    rng = np.random.default_rng(1)
    est = benchmark(amplitude_estimate, a, 10, rng, repeats=REPEATS)
    assert est.a_hat.shape == (32640,)


@pytest.mark.parametrize("t", [5, 6])
def test_amplitude_estimate_scalar(benchmark, t):
    rng = np.random.default_rng(1)
    est = benchmark(amplitude_estimate, 0.37, t, rng, repeats=REPEATS)
    assert 0.0 <= est.a_hat <= 1.0


def test_amplitude_estimate_array_t6(benchmark):
    a = np.random.default_rng(1).random(256)
    rng = np.random.default_rng(1)
    est = benchmark(amplitude_estimate, a, 6, rng, repeats=REPEATS)
    assert est.a_hat.shape == (256,)


@pytest.mark.parametrize("m, rounds", [(64, 5), (256, 3)])
def test_distance_estimates_ledger(benchmark, m, rounds):
    ds = gaussian_clusters(m, 2, np.random.default_rng(2), contamination=0.05)
    config = RunConfig(k=3, backend="ledger", ae_repeats=REPEATS, seed=3)

    def fresh():
        return (QuantumLofPipeline(ds, config),), {}

    mat = benchmark.pedantic(
        lambda pipe: pipe.distance_estimates(), setup=fresh, rounds=rounds
    )
    assert mat.shape == (m, m)


def test_exact_pair_rotation(benchmark):
    diffs = np.random.default_rng(3).random(4)

    def fresh():
        sv = StateVector([("j", 2), ("anc", 1)])
        prepare_uniform(sv, "j", diffs.size)
        return (sv,), {}

    def rotate(sv):
        controlled_value_rotation(sv, "j", "anc", diffs, scale=1.0)
        return sv.probability("anc", 0)

    a = benchmark.pedantic(rotate, setup=fresh, rounds=200)
    assert a == pytest.approx(float(np.mean(diffs**2)))


def test_exact_grover_search_nothing_marked(benchmark):
    marked = np.zeros(16, dtype=bool)
    rng = np.random.default_rng(4)
    assert benchmark(grover_search, marked, rng, exact=True) is None


def test_ledger_kth_smallest_m255(benchmark):
    values = np.random.default_rng(5).random(255)
    rng = np.random.default_rng(6)
    res = benchmark(kth_smallest, values, 3, rng, boost=1)
    assert len(res.indices) == 3


def test_ledger_kth_smallest_rows_m256(benchmark):
    values = np.random.default_rng(5).random((256, 255))
    rng = np.random.default_rng(6)
    res = benchmark.pedantic(kth_smallest, (values, 3, rng), rounds=3)
    assert res.indices.shape == (256, 3)


def test_quantum_count_t5(benchmark):
    marked = np.random.default_rng(7).random(255) < 0.02
    rng = np.random.default_rng(8)
    assert benchmark(quantum_count, marked, 5, rng, repeats=REPEATS).queries == REPEATS * 31


def test_quantum_count_rows_t5(benchmark):
    marked = np.random.default_rng(7).random((256, 255)) < 0.02
    rng = np.random.default_rng(8)
    assert benchmark(quantum_count, marked, 5, rng, repeats=REPEATS).count.shape == (256,)


def test_ledger_grover_collect_rows_m256(benchmark):
    # The collection stage of a ledger-m256 run: every point's neighborhood
    # among the 255 others holds its 3 nearest, known from the k-distance
    # search, and every fourth point has a 4th to find.  Most rows saturate
    # on their first search.
    values = np.random.default_rng(9).random((256, 255))
    order = np.argsort(values, axis=1)
    size = np.where(np.arange(256) % 4 == 0, 4, 3)
    marked = values <= values[np.arange(256), order[np.arange(256), size - 1]][:, None]
    rng = np.random.default_rng(10)
    found, saturated = benchmark(
        grover_collect, marked, rng, expected=size.tolist(), seed_found=order[:, :3].tolist()
    )
    assert [len(f) for f in found] == size.tolist() and all(saturated)


def test_ledger_grover_collect_rows_m1024(benchmark):
    # Lockstep collection where neighborhoods run long, as at m = 1024 and
    # beyond when estimates tie on the amplitude-estimation grid: each of
    # 1024 rows of 1023 marks its 3 to 25 nearest, knows 3 of them, and
    # collects the rest over up to 23 invocations.
    values = np.random.default_rng(11).random((1024, 1023))
    order = np.argsort(values, axis=1)
    size = np.random.default_rng(12).integers(3, 26, 1024)
    marked = values <= values[np.arange(1024), order[np.arange(1024), size - 1]][:, None]
    rng = np.random.default_rng(13)
    found, _ = benchmark.pedantic(
        grover_collect,
        (marked, rng),
        dict(expected=size.tolist(), seed_found=order[:, :3].tolist()),
        rounds=5,
    )
    assert all(len(f) <= s for f, s in zip(found, size.tolist()))


def test_q_mul_add_scale_format(benchmark):
    reach, one = encode(0.0731, 20, 12), encode(1.0, 20, 12)
    acc = encode(0.25, 40, 24)
    assert benchmark(q_mul_add, reach, one, acc).width == 40


def test_q_div_scale_format(benchmark):
    acc, count = encode(0.3123, 40, 24), encode(3.0, 40, 24)
    assert benchmark(q_div, acc, count, width=20, frac=12).width == 20


def test_build_table_m256(benchmark):
    ds = gaussian_clusters(256, 2, np.random.default_rng(10), contamination=0.05)
    assert benchmark(build_table, ds, 3).m == 256

"""Microbenchmarks of the primitives behind the benchmark's hot stages.

Kept out of the test run (``testpaths`` is ``tests``); run them with

    PYTHONPATH=src python -m pytest benchmarks -q

``pytest-benchmark`` prints a table of per-call times.  The end-to-end
figures come from ``bench/run.py``; these isolate one primitive each:

* the block sampler ``ae_outcomes`` on 16 angles against 16 scalar
  ``amplitude_estimate`` calls, at the precisions t = 6, 9 and 12;
* the step-1 distance stage of a ledger pipeline at m = 64;
* an exact-backend ``grover_search`` with nothing marked, the saturation
  check that ends every neighborhood collection.
"""

import numpy as np
import pytest

from qlof.dataset import RunConfig
from qlof.pipeline import QuantumLofPipeline
from qlof.primitives import ae_outcomes, amplitude_angle, amplitude_estimate, grover_search
from qlof.synthetic import gaussian_clusters

BLOCK = 16
REPEATS = 3


def _amplitudes():
    return np.random.default_rng(0).random(BLOCK)


@pytest.mark.parametrize("t", [6, 9, 12])
def test_ae_outcomes_block(benchmark, t):
    thetas = [amplitude_angle(a) for a in _amplitudes()]
    u = np.random.default_rng(1).random((BLOCK, REPEATS))
    ys = benchmark(ae_outcomes, thetas, t, u)
    assert ys.shape == (BLOCK, REPEATS)


@pytest.mark.parametrize("t", [6, 9, 12])
def test_amplitude_estimate_per_pair(benchmark, t):
    amps = _amplitudes()
    rng = np.random.default_rng(1)

    def per_pair():
        return [amplitude_estimate(float(a), t, rng, repeats=REPEATS) for a in amps]

    assert len(benchmark(per_pair)) == BLOCK


def test_distance_estimates_ledger_m64(benchmark):
    ds = gaussian_clusters(64, 2, np.random.default_rng(2))
    config = RunConfig(k=3, backend="ledger", ae_repeats=REPEATS, seed=3)

    def fresh():
        return (QuantumLofPipeline(ds, config),), {}

    mat = benchmark.pedantic(
        lambda pipe: pipe.distance_estimates(), setup=fresh, rounds=5
    )
    assert mat.shape == (64, 64)


def test_exact_grover_search_nothing_marked(benchmark):
    marked = np.zeros(16, dtype=bool)
    rng = np.random.default_rng(4)
    assert benchmark(grover_search, marked, rng, exact=True) is None

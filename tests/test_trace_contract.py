"""The names the benchmark's traced run relies on.

``bench/run.py --trace 1`` wraps qlof's public functions from outside
(``bench/tracer.py``) and fails when a workload never calls one of the
functions it lists in ``CALLED_EVERYWHERE``, or when ``qlof.pipeline`` binds a
primitive the tracer cannot wrap.  This test runs one ledger ``compare`` under
that tracer, so a search inlined into its caller fails here, not in a
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import qlof.cli
from qlof.cli import EXIT_NEAR_THRESHOLD, EXIT_OK

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden" / "ledger-m48"


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py`` as a module, with ``bench`` importable."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    yield mod
    for name in ("oracle", "speed", "tracer", "workloads"):
        sys.modules.pop(name, None)


def test_ledger_compare_calls_every_traced_name(bench_run, tmp_path):
    tracer = bench_run.Tracer()
    tracer.install()  # raises when qlof.pipeline binds an untraceable primitive
    try:
        tracer.begin(0)
        argv = ["compare", str(GOLDEN / "data.csv"), *(GOLDEN / "argv.txt").read_text().split()]
        # Looked up after install, as the benchmark does: the wrapper runs.
        rc = qlof.cli.main([*argv, "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc in (EXIT_OK, EXIT_NEAR_THRESHOLD)
    calls = tracer.aggregate([0])["calls"]
    wanted = {
        "primitives.grover_search", "primitives.grover_collect", "pipeline.find_neighbors",
        "primitives.kth_smallest", "primitives.quantum_min",
    }
    assert wanted <= set(bench_run.CALLED_EVERYWHERE)
    missing = [name for name in bench_run.CALLED_EVERYWHERE if not calls.get(name)]
    assert not missing

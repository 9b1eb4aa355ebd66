"""Smoke test: demos 01-05 and the microbenchmarks run to completion.

Each demo runs in a fresh interpreter with ``tmp_path`` as its working
directory and must exit 0.  Demo 06 (the ledger query-scaling sweep) is left
out: it takes several seconds and calls only the pipeline API, which the
pipeline and acceptance tests already exercise.  ``benchmarks/`` lies
outside ``testpaths``, so its microbenchmarks run here once each, untimed, to
catch a name they import going away.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_demo_set():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_microbenchmarks_run():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(ROOT / "benchmarks"), "-q",
         "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

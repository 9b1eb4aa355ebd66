"""m-grid sweep: `qlof compare` seconds and distance-stage share against m.

    python3 bench/sweep.py                 # ledger m 16..128, exact m 16 and 32
    python3 bench/sweep.py --census        # ledger-m256 at t_dist 9: count failures

Not a gated workload.  Every row runs three datasets of
``gaussian_clusters(m, n=2, contamination=0.01)`` (the ``qlof scale``
defaults: k=3, t 9/5/6, repeats 3, boost 1, fp 20/12) through
``qlof.cli.main(["compare", ...])``, first untraced for the run seconds, then
traced for the share of ``pipeline.distance_estimates`` in the compare wall
time.  Each row also counts the operations by outcome class, as ``run.py``
does.  ``--census`` instead runs 24 datasets of the ``ledger-m256`` workload's
kind at the ``qlof scale`` default t_dist=9, the setting the gated workload
leaves because part of its datasets fail there; ``bench/baseline/census.txt``
records what it counted.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import statistics
import sys
import shutil
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from run import WORK, cap_blas_threads, run_op  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

SCALE_ARGS = (
    "--backend", "ledger", "--ae-qubits-dist", "9", "--ae-qubits-count", "5",
    "--ae-qubits-lof", "6", "--ae-repeats", "3", "--fp-width", "20", "--fp-frac", "12",
    "--min-boost", "1",
)
LEDGER_M = (16, 32, 64, 128)
EXACT_M = (16, 32)
DATASETS = 3  # per m
CENSUS_DATASETS = 24


def row(wl: Workload, seed: int, work: Path) -> dict:
    import qlof.cli

    items = generate(wl, seed, work / f"{wl.name}-{wl.m}")
    ops = [run_op(qlof.cli.main, wl, it, work / "out") for it in items]
    tracer = Tracer()
    tracer.install()
    try:
        for it in items:
            tracer.begin(it.index)
            run_op(qlof.cli.main, wl, it, work / "out")  # the traced binding
    finally:
        tracer.uninstall()
    agg = tracer.aggregate(range(len(items)))
    outcomes: dict[str, int] = {}
    for op in ops:
        key = "ok" if op.failure is None else f"{op.failure[0]}:{op.failure[1]}"
        outcomes[key] = outcomes.get(key, 0) + 1
    wall = agg["incl"].get("cli.main", 0.0)
    return {
        "run_s": statistics.median(op.seconds for op in ops),
        "dist_share": agg["incl"].get("pipeline.distance_estimates", 0.0) / wall if wall else 0.0,
        "outcomes": outcomes,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--census", action="store_true", help="ledger-m256 datasets at t_dist 9")
    args = p.parse_args()
    cap_blas_threads()
    base = Workload(name="sweep", generator="gaussian_clusters", m=0, n=2,
                    gen_kwargs=(("contamination", 0.01),), k=3, pool=DATASETS, args=SCALE_ARGS)
    if args.census:
        m256 = WORKLOADS["ledger-m256"]
        t9 = list(m256.args)
        t9[t9.index("--ae-qubits-dist") + 1] = "9"
        grid = [("ledger", dataclasses.replace(m256, pool=CENSUS_DATASETS, args=tuple(t9)))]
    else:
        grid = [("ledger", dataclasses.replace(base, m=m)) for m in LEDGER_M]
        grid += [
            ("exact", dataclasses.replace(base, m=m, args=SCALE_ARGS + ("--backend", "exact")))
            for m in EXACT_M
        ]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="sweep-", dir=WORK))
    try:
        print(f"{'backend':<8} {'m':>5} {'run_s p50':>10} {'distance share':>15}  outcomes"
              f"  ({grid[0][1].pool} datasets each, nproc {len(os.sched_getaffinity(0))})")
        for backend, wl in grid:
            r = row(wl, args.seed, work)
            print(f"{backend:<8} {wl.m:>5} {r['run_s']:>10.3f} {r['dist_share']:>15.1%}  {r['outcomes']}",
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

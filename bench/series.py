"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/series.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 bench/series.py --seeds 1 --trace 1

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed, each in
its own process and at BENCHMARK.json's run length.  Every run writes its
record to ``.bench_work/records/`` (the input of ``compare.py``); the summary
reads the records this series wrote and gives, per workload and metric, the
median, the quartiles and the spread (quartile distance as a share of the
median) next to the metric's bound.  A spread above a third of its bound is
marked, one above the bound itself loudly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import quartiles
from workloads import SPEC

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECORDS = ROOT / ".bench_work" / "records"


def run_once(workload: str, seed: int, trace: int) -> None:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed}: correct {res['correct']} attempted {res['attempted']} "
          f"failed {res['failed']}", flush=True)


def summarise(records: list[dict]) -> None:
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    by_wl: dict[str, list[dict]] = {}
    for rec in records:
        by_wl.setdefault(rec["machine"]["workload"], []).append(rec)
    for wl, recs in by_wl.items():
        bad = [r["machine"]["seed"] for r in recs if not r["result"]["correct"] or r["result"]["failed"]]
        print(f"\n{wl}: {len(recs)} runs, seeds {[r['machine']['seed'] for r in recs]}"
              + (f", incorrect or failing seeds {bad}" if bad else ""))
        for name in recs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            q1, q2, q3 = quartiles(vals)
            if q2:
                spread = (q3 - q1) / abs(q2)
            else:
                spread = 0.0 if q3 == q1 else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and spread > bound:
                mark = "  SPREAD ABOVE BOUND"
            elif bound is not None and spread > bound / 3:
                mark = "  spread above bound/3"
            unit = recs[0]["result"]["metrics"][name]["unit"]
            print(f"  {name:<42} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} {unit:<10}"
                  f" spread {spread:6.3f}" + (f" bound {bound}" if bound is not None else "") + mark)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    RECORDS.mkdir(parents=True, exist_ok=True)
    before = set(RECORDS.glob("*.json"))
    for wl in SPEC["workloads"]:
        for seed in args.seeds:
            run_once(wl["name"], seed, args.trace)
    written = sorted(set(RECORDS.glob("*.json")) - before)
    summarise([json.loads(path.read_text(encoding="utf-8")) for path in written])
    return 0


if __name__ == "__main__":
    sys.exit(main())

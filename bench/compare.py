"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 bench/compare.py bench/baseline .bench_work/records

Each input is a directory of the records ``run.py`` writes to
``.bench_work/records/``; where one holds several records of the same
workload, seed and trace mode, the latest counts.  ``bench/baseline/`` holds
ten seeds of each workload and one traced run per workload, with the machine
each was measured on in its record.  Runs are paired by workload, seed and
trace mode.  For every (metric, workload) pair the comparator prints
each side's median and quartiles and one label:

* improved: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's quartile
  distance;
* regressed: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json (metrics without a bound: the parent wins
  9 of 10 pairs by more than its quartile distance);
* unresolved: neither.  "within bound" notes a bounded metric whose median
  moved less than its bound while the parent's own spread stayed inside it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from workloads import SPEC


def load(path: Path) -> dict[tuple[str, int, int], dict]:
    """{(workload, seed, trace): result} from a directory of records."""
    recs = [json.loads(p.read_text(encoding="utf-8")) for p in path.glob("*.json")]
    recs.sort(key=lambda r: r["machine"]["started_utc"])
    return {(r["machine"]["workload"], r["machine"]["seed"], r["machine"]["trace"]): r["result"] for r in recs}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(a: list[float], b: list[float], higher: bool, bound: float | None) -> str:
    """Label the change (b) against the parent (a); a[i] and b[i] share a seed."""
    qa, qb = quartiles(a), quartiles(b)
    iqr_a = qa[2] - qa[0]
    sign = 1.0 if higher else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    diff = sign * (qb[1] - qa[1])  # > 0 means the change is better
    if wins >= 0.9 * len(a) and diff > iqr_a:
        return "improved"
    if bound is not None:
        if -diff > bound * abs(qa[1]):
            return "regressed"
        if iqr_a <= bound * abs(qa[1]):
            return "unresolved (within bound)"
        return "unresolved"
    if losses >= 0.9 * len(a) and -diff > iqr_a:
        return "regressed"
    return "unresolved"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no (workload, seed, trace) runs in common", file=sys.stderr)
        return 1
    workloads = sorted({k[0] for k in keys})
    print(f"{'metric':<42} {'workload':<12} {'parent p50 [q1, q3]':<36} {'change p50 [q1, q3]':<36} label")
    for name, meta in metrics.items():
        for wl in workloads:
            pairs = [
                (parent[k]["metrics"][name]["value"], change[k]["metrics"][name]["value"])
                for k in keys
                if k[0] == wl and name in parent[k]["metrics"] and name in change[k]["metrics"]
            ]
            if not pairs:
                continue
            a, b = [p[0] for p in pairs], [p[1] for p in pairs]
            qa, qb = quartiles(a), quartiles(b)
            label = judge(a, b, meta["better"] == "higher", meta.get("bound"))
            fa = f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
            fb = f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
            print(f"{name:<42} {wl:<12} {fa:<36} {fb:<36} {label} ({len(pairs)} pairs, {meta['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

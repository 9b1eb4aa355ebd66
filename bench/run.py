"""qlof benchmark: closed-loop `qlof compare` runs, checked against the oracle.

    python3 bench/run.py --workload ledger-m256 --seed 1 --seconds 45 --trace 0

One process, one caller: the datasets of the workload's pool go through
``qlof.cli.main(["compare", ...])`` one after another, which is the path a
user runs.  One operation is one dataset's ``compare``.  The loop cycles over
the pool until ``--seconds`` have passed and at least one dataset has run
twice; the repeat must write a byte-identical ``manifest.json``.  Every
manifest is checked against the benchmark's own brute-force LOF
(``oracle.py``): the classical LOF and flags, each point's ``abs_error``, and
each point's ``within_bound`` where the error budget is not vacuous.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Their times
are reference seconds (``speed.py``): each operation's wall seconds rescaled
to a fixed machine speed, measured by a reference kernel that a timer runs
every 0.1 s during the loop, because this host's own speed drifts by more
than the bounds allow.  The raw wall-clock figures are printed beside them.

``--trace 1`` runs every operation under the outside-in tracer (``tracer.py``) and reports
the per-layer metrics; the first datasets (at least one, about five seconds
of work) also run untraced just before, their manifests must match the traced
ones byte for byte, so tracing cannot have perturbed the random streams or the
query ledger, and the ratio of the pairs' reference seconds is
``trace.overhead_frac``.

Every operation is classified as a success or as one failure class:
``fail.exception`` (an exception escaped ``cli.main``, tagged with its class,
or ``cli.main`` mapped one to exit 2-5, tagged with the code),
``fail.contract`` (exit 1: flags differ while the delta margin holds) or
``fail.budget`` (a non-vacuous error budget with a point outside its bound).
Exit codes 0 and 6 count as success.

Human-readable lines go first; the last line of standard output is the JSON
result {"correct", "attempted", "failed", "metrics"}.  A fuller record with
the machine description is written under ``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

import oracle
import speed
from speed import Sampler
from tracer import Tracer
from workloads import DELTA, SPEC, WORKLOADS, generate, setup

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_SAMPLES = 9  # each in a fresh interpreter, which must import numpy too
REFERENCE_SECONDS = 5.0  # untraced twins of traced operations, for the overhead

# Pipeline stages, for the inclusive-share table of the traced run.
STAGES = (
    "pipeline.init", "pipeline.distance_estimates", "pipeline.find_k_distance",
    "pipeline.count_neighbors", "pipeline.find_neighbors", "pipeline.compute_lrd_all",
    "pipeline.error_budget", "pipeline.compute_lof_all", "pipeline.flag_anomalies",
)
# Traced functions that every workload must call; a zero count means the
# tracer missed a binding, not that the work vanished.
CALLED_EVERYWHERE = (
    "cli.main", "dataset.load_csv", "pipeline.init", "pipeline.run",
    *STAGES[1:], "primitives.amplitude_estimate", "qsim.ae_distribution",
    "primitives.kth_smallest", "primitives.quantum_min", "primitives.grover_search",
    "primitives.grover_collect", "primitives.quantum_count", "lof.flag",
    "lof.build_table", "dataset.normalized_distance_matrix", "ledger.charge",
)
CALLED_ON = {"exact-m16": ("qsim.controlled_value_rotation", "qsim.prepare_uniform")}
LAYERS_SPANNED = ("cli", "dataset", "pipeline", "primitives", "qsim", "fixedpoint", "lof")


def cap_blas_threads() -> dict:
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)
    return {var: os.environ[var] for var in BLAS_VARS}


def _machine(args, blas: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _median_setup(wl, seed: int, work: Path) -> tuple[float, list[float]]:
    samples = []
    for r in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), wl.name, str(seed), str(work / f"setup{r}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
        shutil.rmtree(work / f"setup{r}")
    return statistics.median(samples), samples


# ---------------------------------------------------------------------------
# One operation and its checks
# ---------------------------------------------------------------------------


class Op:
    __slots__ = ("item", "seconds", "ref_seconds", "rc", "exc", "manifest", "blob", "failure")

    def __init__(self, item):
        self.item = item
        self.seconds = 0.0  # wall seconds, less the reference kernel runs inside them
        self.ref_seconds = None  # seconds at the reference speed, when sampled
        self.rc = None
        self.exc = None
        self.manifest = None
        self.blob = None
        self.failure = None  # (class, tag) or None


def run_op(cli_main, wl, item, out: Path, sampler: Sampler | None = None) -> Op:
    op = Op(item)
    manifest_path = out / "manifest.json"
    if manifest_path.exists():
        manifest_path.unlink()
    argv = wl.compare_argv(item.csv, item.seed, out)
    spent0 = sampler.spent if sampler else 0.0
    t0 = perf_counter()
    try:
        op.rc = cli_main(argv)
    except Exception as exc:  # every escaping exception is counted, never skipped
        op.exc = f"{type(exc).__module__}.{type(exc).__name__}: {exc}"
    t1 = perf_counter()
    op.seconds = t1 - t0
    if sampler:
        op.seconds -= sampler.spent - spent0
        op.ref_seconds = op.seconds * sampler.factor(t0, t1)
    if op.exc is not None:
        op.failure = ("fail.exception", op.exc.split(":", 1)[0])
    elif op.rc == 1:
        op.failure = ("fail.contract", "exit1")
    elif op.rc not in (0, 6):
        op.failure = ("fail.exception", f"exit{op.rc}")
    if op.rc in (0, 1, 6):
        op.blob = manifest_path.read_bytes()
        op.manifest = json.loads(op.blob)
        budget = op.manifest["error_budget"]
        if op.failure is None and not budget["vacuous"] and not all(
            p["within_bound"] for p in op.manifest["points"]
        ):
            op.failure = ("fail.budget", "within_bound")
    return op


def check_manifest(op: Op, oracle_lof, m: int) -> list[str]:
    """Check one manifest against the brute-force oracle of ``oracle.py``."""
    man = op.manifest
    errs = []
    pts = man["points"]
    if man.get("mode") != "compare" or len(pts) != m:
        return [f"dataset {op.item.index}: malformed manifest"]
    flags_c, flags_q = set(man["flagged_classical"]), set(man["flagged_quantum"])
    vacuous = man["error_budget"]["vacuous"]
    for i, p in enumerate(pts):
        want = float(oracle_lof[i])
        err = abs(p["lof_quantum"] - want)
        if p["index"] != i or not oracle.close(p["lof_classical"], want):
            errs.append(f"dataset {op.item.index} point {i}: classical LOF differs from the oracle")
        elif not oracle.close(p["abs_error"], err):
            errs.append(f"dataset {op.item.index} point {i}: abs_error differs from the oracle's")
        elif not oracle.close(want, DELTA) and p["flagged_classical"] != (want >= DELTA):
            errs.append(f"dataset {op.item.index} point {i}: classical flag differs from the oracle")
        elif p["flagged_classical"] != (i in flags_c) or p["flagged_quantum"] != (i in flags_q):
            errs.append(f"dataset {op.item.index} point {i}: flags are inconsistent")
        elif not vacuous and not oracle.close(err, p["bound"]) and p["within_bound"] != (err <= p["bound"]):
            errs.append(f"dataset {op.item.index} point {i}: within_bound differs from the oracle's")
        else:
            continue
        break
    if man["flags_match"] != (man["flagged_classical"] == man["flagged_quantum"]):
        errs.append(f"dataset {op.item.index}: flags_match is inconsistent")
    ledger = man["ledger"]
    for step, total in man["ledger_step_totals"].items():
        if total != sum(v for k, v in ledger.items() if k.startswith(step + ".")):
            errs.append(f"dataset {op.item.index}: ledger total of {step} is inconsistent")
    expected_rc = 0 if man["flags_match"] else (1 if man["delta_margin_ok"] else 6)
    if op.rc != expected_rc:
        errs.append(f"dataset {op.item.index}: exit {op.rc}, manifest implies {expected_rc}")
    return errs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quality(first_pass: list[Op]) -> dict:
    """Accuracy and query counts over the first pass (each dataset once)."""
    errors, agree, points, queries = [], 0, 0, {"step1": 0, "step2": 0, "step3": 0}
    scored = [op for op in first_pass if op.manifest is not None]
    for op in scored:
        for p in op.manifest["points"]:
            errors.append(abs(p["lof_quantum"] - p["lof_classical"]))
            agree += p["flagged_classical"] == p["flagged_quantum"]
        points += len(op.manifest["points"])
        for step in queries:
            queries[step] += op.manifest["ledger_step_totals"][step]
    n = max(len(scored), 1)
    return {
        "lof_mae": sum(errors) / max(len(errors), 1),
        "flag_agree_frac": agree / max(points, 1),
        "queries_per_point": sum(queries.values()) / max(points, 1),
        "ledger": {step: q / n for step, q in queries.items()},
        "ledger_totals": queries,
        "points": points,
    }


def scored_points(ops: list[Op]) -> int:
    return sum(len(op.manifest["points"]) for op in ops if op.failure is None)


def end_to_end(ops: list[Op], first_pass: list[Op], setup_s: float) -> dict:
    q = quality(first_pass)
    secs = [op.ref_seconds for op in ops]
    return {
        "points_per_ref_s": scored_points(ops) / sum(secs),
        "run_ref_s_p50": statistics.median(secs),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": sum(op.failure is None for op in ops) / len(ops),
        "lof_mae": q["lof_mae"],
        "flag_agree_frac": q["flag_agree_frac"],
        "queries_per_point": q["queries_per_point"],
    }


def per_layer(agg: dict, first: dict, ops: list[Op], first_pass: list[Op], overhead: float) -> dict:
    """Per-operation means of the traced run.  Times average over every
    traced operation; call counts and ledger totals over the first pass, so
    they repeat exactly for a fixed workload seed."""
    n, nf = agg["runs"], first["runs"]
    incl = {k: v / n for k, v in agg["incl"].items()}
    calls = {k: v / nf for k, v in first["calls"].items()}
    out = {}
    for name in (
        "pipeline.run", *STAGES, "primitives.amplitude_estimate", "primitives.kth_smallest",
        "primitives.quantum_min", "primitives.grover_search", "primitives.grover_collect",
        "primitives.quantum_count", "qsim.ae_distribution", "qsim.controlled_value_rotation",
        "qsim.prepare_uniform", "lof.flag", "dataset.load_csv",
    ):
        out[f"{name}.s"] = incl.get(name, 0.0)
    out["cli.io.s"] = incl.get("cli.main", 0.0) - incl.get("pipeline.run", 0.0)
    for name in (
        "primitives.amplitude_estimate", "primitives.quantum_min", "primitives.grover_search",
        "primitives.quantum_count", "qsim.ae_distribution", "qsim.controlled_value_rotation",
        "lof.build_table", "dataset.normalized_distance_matrix", "ledger.charge",
    ):
        out[f"{name}.calls"] = calls.get(name, 0.0)
    searches = first["calls"].get("primitives.grover_search", 0)
    out["primitives.grover_search.hit_ratio"] = first["hits"] / searches if searches else 0.0
    for layer in LAYERS_SPANNED:
        out[f"{layer}.s"] = agg["layer_self"].get(layer, 0.0) / n
    out["fixedpoint.calls"] = first["layer_calls"].get("fixedpoint", 0) / nf
    q = quality(first_pass)
    for step, v in q["ledger"].items():
        out[f"ledger.{step}"] = v
    for cls in ("fail.exception", "fail.contract", "fail.budget"):
        out[cls] = sum(1 for op in ops if op.failure and op.failure[0] == cls)
    out["trace.overhead_frac"] = overhead
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    blas = cap_blas_threads()
    if not (ROOT / "src" / "qlof" / "__init__.py").is_file():
        print(f"error: no qlof sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = next(w for w in SPEC["workloads"] if w["name"] == wl.name)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        return _run(args, wl, spec, blas, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl, spec, blas, work: Path) -> int:
    _, items = setup(wl, args.seed, work / "data")
    import qlof
    import qlof.cli

    if Path(qlof.__file__).resolve().parent != (ROOT / "src" / "qlof").resolve():
        raise RuntimeError(f"imported qlof from {qlof.__file__}, not from this checkout")
    setup_s, setup_samples = _median_setup(wl, args.seed, work)
    machine = _machine(args, blas)
    oracles = [oracle.lof(it.points, wl.k) for it in items]

    # Warm-up on a small dataset of the same kind, so lazy imports and first
    # calls are not charged to the first timed operation.
    small = dataclasses.replace(wl, m=8, k=min(wl.k, 3), pool=1)
    run_op(qlof.cli.main, small, generate(small, args.seed, work / "warm")[0], work / "warm")

    tracer = Tracer() if args.trace else None
    sampler = Sampler()
    reference: list[Op] = []  # untraced twins of the first traced operations
    ops: list[Op] = []
    if tracer is None:
        sampler.start()
    t_loop = perf_counter()
    try:
        while len(ops) <= len(items) or perf_counter() - t_loop < args.seconds:
            item = items[len(ops) % len(items)]
            if tracer is None:
                ops.append(run_op(qlof.cli.main, wl, item, work / "out", sampler))
                continue
            # Each of the first datasets (at least one, about REFERENCE_SECONDS
            # of work) runs untraced right before its traced run, both timed in
            # reference seconds: their ratio is the tracing overhead, and their
            # manifests must match byte for byte.  The reference kernel runs
            # only during these pairs, so it adds no time to the other spans.
            twin = len(ops) < len(items) and (not reference or sum(r.seconds for r in reference) < REFERENCE_SECONDS)
            if twin:
                sampler.start()
                reference.append(run_op(qlof.cli.main, wl, item, work / "out", sampler))
            tracer.install()
            try:
                tracer.begin(len(ops))
                ops.append(run_op(qlof.cli.main, wl, item, work / "out", sampler if twin else None))
            finally:
                tracer.uninstall()
                sampler.stop()
    finally:
        sampler.stop()
    loop_s = perf_counter() - t_loop

    first_pass = ops[: len(items)]
    errors = []
    for op in ops:
        if op.manifest is not None:
            errors += check_manifest(op, oracles[op.item.index], wl.m)
    for op in ops[len(items):]:
        if op.blob != first_pass[op.item.index].blob:
            errors.append(f"dataset {op.item.index}: repeated compare wrote a different manifest.json")
    failures: dict[str, dict[str, int]] = {}
    for op in ops:
        if op.failure:
            tags = failures.setdefault(op.failure[0], {})
            tags[op.failure[1]] = tags.get(op.failure[1], 0) + 1

    print(f"workload {wl.name}: {spec['why']}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"operations {len(ops)} ({len(items)} distinct datasets of m={wl.m}) in {loop_s:.1f} s")
    print(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setup_samples)}")
    print(f"failed_frac {sum(1 for op in ops if op.failure) / len(ops):.4f} ratio  by class: {json.dumps(failures, sort_keys=True)}")
    for op in ops:
        if op.failure:
            print(f"  dataset {op.item.index}: {op.failure[0]} {op.exc or op.failure[1]}")
    q = quality(first_pass)
    totals = "  ".join(f"ledger.{step} {v}" for step, v in q["ledger_totals"].items())
    print(f"ledger totals over the first pass ({len(items)} datasets): {totals}")
    print(f"lof_mae {q['lof_mae']!r} lof (first pass, {q['points']} points)")

    if args.trace:
        agg = tracer.aggregate(range(len(ops)))
        first = tracer.aggregate(range(len(items)))
        for ref in reference:
            traced = ops[ref.item.index]
            if ref.manifest and traced.manifest and ref.manifest["ledger"] != traced.manifest["ledger"]:
                errors.append(f"dataset {ref.item.index}: tracing changed the ledger totals")
            elif ref.blob != traced.blob:
                errors.append(f"dataset {ref.item.index}: tracing changed manifest.json")
        missing = [
            name for name in (*CALLED_EVERYWHERE, *CALLED_ON.get(wl.name, ()))
            if first["calls"].get(name, 0) == 0
        ]
        if missing:
            raise RuntimeError(f"traced run recorded zero calls for {', '.join(missing)}")
        overhead = sum(ops[r.item.index].ref_seconds for r in reference) / sum(r.ref_seconds for r in reference) - 1.0
        values = per_layer(agg, first, ops, first_pass, overhead)
        _print_shares(agg)
        tracer.write(WORK / "traces" / f"{wl.name}-seed{args.seed}.tsv.gz")
        print(f"spans {sum(1 for s in tracer.spans if s)} written to .bench_work/traces/")
    else:
        values = end_to_end(ops, first_pass, setup_s)
        kernel_s = [dt for _, dt in sampler.samples]
        print(f"reference kernel: {len(kernel_s)} samples, median {statistics.median(kernel_s):.5f} s "
              f"(nominal {speed.NOMINAL_S} s), {sampler.spent / loop_s:.1%} of the loop")
        print(f"wall clock: points_per_s {scored_points(ops) / sum(op.seconds for op in ops)!r} points/s  "
              f"run_s_p50 {statistics.median(op.seconds for op in ops)!r} s")
        print(f"run_ref_s_p50 over {len(ops)} operations")

    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in listed} != set(values):
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.failure),
        "metrics": metrics,
    }
    record = {
        "machine": machine,
        "result": result,
        "failures": failures,
        "op_seconds": [op.seconds for op in ops],
        "op_ref_seconds": [op.ref_seconds for op in ops],
        "kernel_samples": len(sampler.samples),
        "op_datasets": [op.item.index for op in ops],
        "op_exit": [op.rc for op in ops],
        "setup_samples": setup_samples,
        "check_errors": errors,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (records / f"{wl.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


def _print_shares(agg: dict) -> None:
    run = agg["incl"].get("cli.main", 0.0) or 1.0
    print("inclusive share of the traced compare wall time, per pipeline stage:")
    ranked = sorted(STAGES, key=lambda s: -agg["incl"].get(s, 0.0))
    for stage in ranked:
        print(f"  {stage:<30} {agg['incl'].get(stage, 0.0) / run:7.1%}")
    print(f"largest pipeline stage: {ranked[0]}")
    print("self time per layer (share of compare wall time):")
    for layer in LAYERS_SPANNED:
        print(f"  {layer:<12} {agg['layer_self'].get(layer, 0.0) / run:7.1%}")


if __name__ == "__main__":
    sys.exit(main())

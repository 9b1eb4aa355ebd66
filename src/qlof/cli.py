"""Batch front-end: classical, quantum, comparison, and benchmark modes.

Subcommands
-----------
classical     classical LOF report (JSON + CSV) for a CSV dataset
quantum       quantum pipeline report for a CSV dataset
compare       run both pipelines and write the comparison manifest
scale         ledger-backend query-count sweep over synthetic datasets
calibrate-ae  amplitude-estimation confidence sweep

Exit codes: 0 ok, 1 contract violation (flag sets differ outside the error
margin), 2 configuration error, 3 I/O or parse error, 4 degenerate data,
5 simulator capacity exceeded, 6 near-threshold mismatch (tolerated),
7 fixed-point overflow, 8 density ratio above the rotation ceiling (its
maximum search missed), 9 internal simulator error (any other simulator or
fixed-point failure).

Every run is deterministic under (--seed, config): repeated invocations emit
byte-identical artifacts.  Output files are written atomically
(write-temp-then-rename).  LOG_LEVEL in the environment controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .dataset import BACKENDS, MAX_AE_QUBITS, ConfigError, DataParseError, DegenerateDataError
from .dataset import RunConfig, load_csv
from .fixedpoint import FixedPointError, FixedPointOverflowError
from .lof import LofReport, flag as classical_flag
from .ledger import QueryLedger
from .pipeline import QuantumLofPipeline, RatioBoundError
from .primitives import amplitude_estimate
from .qsim import CapacityError, QsimError
from .synthetic import gaussian_clusters

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4
EXIT_CAPACITY = 5
EXIT_NEAR_THRESHOLD = 6
EXIT_OVERFLOW = 7
EXIT_RATIO_BOUND = 8
EXIT_INTERNAL = 9

log = logging.getLogger("qlof")

SCALE_STEPS = ("step1.o_x", "step1.raw_queries", "step2.ops", "step3.pred")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


# Where `qlof scale` departs from the RunConfig defaults: the ledger backend
# at precisions that keep a sweep over m quick.
SCALE_DEFAULTS = dict(
    backend="ledger", ae_qubits_dist=9, ae_qubits_count=5, ae_qubits_lof=6,
    ae_repeats=3, fp_width=20, min_boost=1,
)

_FLAG_HELP = {"k": "neighborhood parameter", "delta": "anomaly threshold"}


def _add_config_flags(sp: argparse.ArgumentParser, defaults: dict | None = None) -> None:
    """One flag per RunConfig field, defaulting to the field's default unless
    ``defaults`` overrides it."""
    for f in fields(RunConfig):
        sp.add_argument(
            "--" + f.name.replace("_", "-"),
            type=type(f.default),
            default=(defaults or {}).get(f.name, f.default),
            choices=BACKENDS if f.name == "backend" else None,
            help=_FLAG_HELP.get(f.name),
        )
    sp.add_argument("--out", type=Path, default=Path("."), help="output directory")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qlof",
        description="Quantum LOF anomaly detection on simulable backends.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classical", help="classical LOF report")
    sp.add_argument("input", type=Path, help="headerless CSV, one point per row")
    sp.add_argument("--k", type=int, default=RunConfig.k)
    sp.add_argument("--delta", type=float, default=RunConfig.delta)
    sp.add_argument("--out", type=Path, default=Path("."))

    sp = sub.add_parser("quantum", help="quantum pipeline report")
    sp.add_argument("input", type=Path)
    _add_config_flags(sp)

    sp = sub.add_parser("compare", help="classical vs quantum manifest")
    sp.add_argument("input", type=Path)
    _add_config_flags(sp)

    sp = sub.add_parser("scale", help="query-count scaling sweep (ledger backend)")
    sp.add_argument("--grid", default="8,16,32,64", help="comma-separated m values")
    sp.add_argument("--trials", type=int, default=3, help="seeds per grid point")
    sp.add_argument("--n-dims", type=int, default=2)
    sp.add_argument("--contamination", type=float, default=0.01)
    _add_config_flags(sp, SCALE_DEFAULTS)

    sp = sub.add_parser("calibrate-ae", help="amplitude-estimation confidence sweep")
    sp.add_argument("--t-list", default="4,6,8", help="comma-separated precision qubits")
    sp.add_argument("--amplitudes", type=int, default=200, help="random amplitudes per t")
    sp.add_argument("--trials", type=int, default=32, help="estimates per amplitude")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=Path, default=Path("."))
    return p


def _report_csv(report: LofReport) -> str:
    lines = ["index,kdist,count,lrd,lof,flagged"]
    for row in report.point_dicts():
        lines.append(
            f"{row['index']},{row['kdist']!r},{row['count']},"
            f"{row['lrd']!r},{row['lof']!r},{int(row['flagged'])}"
        )
    return "\n".join(lines) + "\n"


def cmd_classical(args: argparse.Namespace) -> int:
    ds = load_csv(str(args.input))
    RunConfig(k=args.k, delta=args.delta).validate(ds.m)
    report = classical_flag(ds, args.k, args.delta)
    payload = {
        "schema": 1,
        "mode": "classical",
        "dataset": ds.summary(),
        **report.to_dict(),
    }
    _write_json(args.out / "report.json", payload)
    _write_text(args.out / "report.csv", _report_csv(report))
    log.info("classical: %d of %d points flagged", report.n_flagged, ds.m)
    return EXIT_OK


def cmd_quantum(args: argparse.Namespace) -> int:
    ds = load_csv(str(args.input))
    config = _config_from_args(args)
    manifest = QuantumLofPipeline(ds, config).run()
    payload = {
        "schema": 1,
        "mode": "quantum",
        "config": manifest["config"],
        "dataset": manifest["dataset"],
        "error_budget": manifest["error_budget"],
        "points": [
            {
                "index": pt["index"],
                "lof": pt["lof_quantum"],
                "flagged": pt["flagged_quantum"],
            }
            for pt in manifest["points"]
        ],
        "flagged": manifest["flagged_quantum"],
        "warnings": manifest["warnings"],
        "ledger": manifest["ledger"],
    }
    _write_json(args.out / "quantum.json", payload)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    ds = load_csv(str(args.input))
    config = _config_from_args(args)
    manifest = QuantumLofPipeline(ds, config).run()
    _write_json(args.out / "manifest.json", manifest)
    if manifest["flags_match"]:
        return EXIT_OK
    if not manifest["delta_margin_ok"]:
        log.warning("flag sets differ inside the error margin (tolerated)")
        return EXIT_NEAR_THRESHOLD
    log.error("flag sets differ although delta clears the error margin")
    return EXIT_CONTRACT


def _fit_exponent(ms: list[int], qs: list[float]) -> float | None:
    if len(set(ms)) < 2 or any(q <= 0 for q in qs):
        return None
    slope = np.polyfit(np.log(np.asarray(ms, float)), np.log(np.asarray(qs, float)), 1)[0]
    return float(slope)


def cmd_scale(args: argparse.Namespace) -> int:
    try:
        grid = [int(x) for x in args.grid.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"bad --grid {args.grid!r}") from None
    if not grid or any(m < 4 for m in grid):
        raise ConfigError("grid must contain m values >= 4")
    if args.backend != "ledger":
        raise ConfigError("scale requires the ledger backend")
    if args.trials < 1:
        raise ConfigError("trials must be >= 1")

    base = _config_from_args(args)
    # Every grid point's datasets first, so a bad dataset knob fails before
    # the first pipeline run.
    datasets = {}
    for m in grid:
        for trial in range(args.trials):
            rng = np.random.default_rng(
                np.random.SeedSequence([args.seed & 0xFFFFFFFFFFFFFFFF, m, trial])
            )
            try:
                datasets[m, trial] = gaussian_clusters(
                    m, args.n_dims, rng, contamination=args.contamination
                )
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
    medians: dict[str, list[float]] = {s: [] for s in SCALE_STEPS}
    rows = []
    for m in grid:
        per_step: dict[str, list[int]] = {s: [] for s in SCALE_STEPS}
        for trial in range(args.trials):
            ds = datasets[m, trial]
            config = replace(base, seed=args.seed + 7919 * m + trial)
            ledger = QueryLedger()
            QuantumLofPipeline(ds, config, ledger=ledger).run()
            counts = {
                "step1.o_x": ledger.get("step1.o_x"),
                "step1.raw_queries": (
                    ledger.get("step1.value_query")
                    + ledger.get("step1.pred_query")
                    + ledger.get("step1.count_pred")
                ),
                "step2.ops": ledger.total("step2."),
                "step3.pred": ledger.get("step3.pred"),
            }
            for s in SCALE_STEPS:
                per_step[s].append(counts[s])
        for s in SCALE_STEPS:
            med = float(np.median(per_step[s]))
            medians[s].append(med)
            rows.append((m, s, med))

    csv_lines = ["m,step,median_queries"]
    for m, s, med in rows:
        csv_lines.append(f"{m},{s},{med!r}")
    _write_text(args.out / "scale.csv", "\n".join(csv_lines) + "\n")
    exponents = {s: _fit_exponent(grid, medians[s]) for s in SCALE_STEPS}
    _write_json(
        args.out / "scale.json",
        {
            "schema": 1,
            "mode": "scale",
            "grid": grid,
            "trials": args.trials,
            "exponents": exponents,
        },
    )
    for s, e in exponents.items():
        log.info("scale: %s exponent %s", s, "refused (need >= 2 m values)" if e is None else f"{e:.3f}")
    return EXIT_OK


def cmd_calibrate_ae(args: argparse.Namespace) -> int:
    try:
        t_list = [int(x) for x in args.t_list.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"bad --t-list {args.t_list!r}") from None
    if not t_list or any(not 1 <= t <= MAX_AE_QUBITS for t in t_list):
        raise ConfigError(f"t values must lie in [1, {MAX_AE_QUBITS}]")
    if args.amplitudes < 1 or args.trials < 1:
        raise ConfigError("amplitudes and trials must be >= 1")
    lines = ["a_true,t,fraction_within_bound"]
    for t in t_list:
        bound = math.pi / (1 << t)
        rng = np.random.default_rng(
            np.random.SeedSequence([args.seed & 0xFFFFFFFFFFFFFFFF, t])
        )
        amps = [0.0, 1.0] + [float(a) for a in rng.random(args.amplitudes)]
        for a in amps:
            # One array call draws what one scalar call per trial would.
            est = amplitude_estimate(np.full(args.trials, a), t, rng)
            error = np.abs(est.theta_hat - math.asin(math.sqrt(a)))
            hits = int(np.count_nonzero(error <= bound + 1e-15))
            lines.append(f"{a!r},{t},{hits / args.trials!r}")
    _write_text(args.out / "calibrate.csv", "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "classical": cmd_classical,
    "quantum": cmd_quantum,
    "compare": cmd_compare,
    "scale": cmd_scale,
    "calibrate-ae": cmd_calibrate_ae,
}


def main(argv: list[str] | None = None) -> int:
    try:
        logging.basicConfig(level=os.environ.get("LOG_LEVEL", "WARNING").upper())
    except ValueError as exc:  # an unknown level name
        print(f"configuration error: LOG_LEVEL: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateDataError as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (DataParseError, OSError, UnicodeDecodeError) as exc:  # a file not in UTF-8
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CapacityError as exc:
        print(
            f"capacity exceeded: {exc}\nhint: retry with --backend ledger",
            file=sys.stderr,
        )
        return EXIT_CAPACITY
    except FixedPointOverflowError as exc:
        print(f"fixed-point overflow: {exc}; raise --fp-width", file=sys.stderr)
        return EXIT_OVERFLOW
    except RatioBoundError as exc:
        print(f"{exc}: the maximum search missed it; raise --min-boost", file=sys.stderr)
        return EXIT_RATIO_BOUND
    except (QsimError, FixedPointError) as exc:  # after their subclasses above
        print(f"internal simulator error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    console_main()

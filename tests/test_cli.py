import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qlof import pipeline
from qlof.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_NEAR_THRESHOLD,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_RATIO_BOUND,
    SCALE_DEFAULTS,
    _add_config_flags,
    _config_from_args,
    build_parser,
    main,
)
from qlof.dataset import MAX_AE_QUBITS, RunConfig
from qlof.fixedpoint import FormatMismatchError
from qlof.pipeline import QuantumLofPipeline
from qlof.primitives import MinResult
from qlof.qsim import QsimError, RegisterOverlapError, ValueRangeError

TOY_CSV = "0\n1\n2\n10\n"


@pytest.fixture()
def toy_csv(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text(TOY_CSV)
    return p


def test_classical_toy(toy_csv, tmp_path):
    out = tmp_path / "out"
    rc = main(["classical", str(toy_csv), "--k", "2", "--delta", "1.5", "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == 1 and report["mode"] == "classical"
    assert report["n_flagged"] == 1
    csv_lines = (out / "report.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "index,kdist,count,lrd,lof,flagged"
    flagged_rows = [ln for ln in csv_lines[1:] if ln.endswith(",1")]
    assert len(flagged_rows) == 1 and flagged_rows[0].startswith("3,")


def test_classical_config_errors(toy_csv, tmp_path):
    assert main(["classical", str(toy_csv), "--k", "0"]) == EXIT_CONFIG
    assert main(["classical", str(toy_csv), "--k", "9"]) == EXIT_CONFIG
    assert main(["classical", str(toy_csv), "--delta", "-1"]) == EXIT_CONFIG


def test_missing_file_exit(tmp_path):
    assert main(["classical", str(tmp_path / "nope.csv"), "--k", "2"]) == EXIT_IO


def test_degenerate_exit(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("5\n5\n")
    assert main(["classical", str(p), "--k", "1"]) == EXIT_DEGENERATE


def test_parse_error_exit(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3,zebra\n")
    assert main(["classical", str(p), "--k", "1"]) == EXIT_IO


def test_usage_error_exit():
    assert main(["no-such-command"]) == 2


def test_fixed_point_overflow_exit(tmp_path, capsys):
    # Twelve points in [0, 1] and one at 3: the straggler's density ratio
    # needs more integer bits than an 8-bit word with 6 fraction bits holds.
    p = tmp_path / "ovf.csv"
    p.write_text("".join(f"{i / 11!r}\n" for i in range(12)) + "3.0\n")
    argv = ["compare", str(p), "--k", "2", "--fp-width", "8", "--fp-frac", "6"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OVERFLOW
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--fp-width" in err[0]


def test_ratio_bound_exit(toy_csv, tmp_path, capsys, monkeypatch):
    # Exit 8 needs a missed maximum: the same run with the real search passes.
    argv = ["compare", str(toy_csv), "--k", "2", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK

    def missed(values, rng, **kwargs):  # returns the smallest ratio instead
        i = int(np.argmax(values))
        return MinResult(index=i, value=float(values[i]), queries=0)

    monkeypatch.setattr(pipeline, "quantum_min", missed)
    assert main(argv) == EXIT_RATIO_BOUND
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "maximum search" in err[0] and "--min-boost" in err[0]


def test_step2_zero_k_distance_names_ae_qubits_dist(tmp_path, capsys):
    # A tight group of four next to wide points: distinct, so the classical
    # side accepts it, but a 4-qubit distance grid estimates the group's
    # distances to zero and its k-distances with them.
    p = tmp_path / "tight.csv"
    p.write_text("".join(f"{x!r}\n" for x in (0.0, 1e-6, 2e-6, 3e-6, 0.5, 1.0)))
    argv = ["compare", str(p), "--k", "2", "--backend", "ledger", "--out", str(tmp_path)]
    assert main([*argv, "--ae-qubits-dist", "4"]) == EXIT_DEGENERATE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--ae-qubits-dist" in err[0] and "--fp-frac" not in err[0]
    assert main([*argv, "--ae-qubits-dist", "4", "--fp-frac", "15", "--fp-width", "20"]) == EXIT_DEGENERATE


@pytest.mark.parametrize(
    "exc", [QsimError, RegisterOverlapError, ValueRangeError, FormatMismatchError]
)
def test_internal_simulator_error_exit(toy_csv, tmp_path, capsys, monkeypatch, exc):
    def fail(self):
        raise exc("boom")

    monkeypatch.setattr(QuantumLofPipeline, "run", fail)
    rc = main(["compare", str(toy_csv), "--k", "2", "--out", str(tmp_path)])
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"internal simulator error: {exc.__name__}: boom"]


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--delta", "inf"],
        ["compare", "--delta", "nan"],
        ["classical", "--delta", "nan"],
    ],
)
def test_non_finite_knob_is_a_config_error(toy_csv, tmp_path, capsys, argv):
    command, knob, value = argv
    rc = main([command, str(toy_csv), "--k", "2", knob, value, "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == [toy_csv]  # no manifest or report written
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and knob[2:].replace("-", "_") in err


def test_config_flags_derive_from_run_config(toy_csv, tmp_path):
    parser = build_parser()
    assert _config_from_args(parser.parse_args(["compare", str(toy_csv)])) == RunConfig()
    assert _config_from_args(parser.parse_args(["scale"])) == RunConfig(**SCALE_DEFAULTS)
    classical = parser.parse_args(["classical", str(toy_csv)])
    assert (classical.k, classical.delta) == (RunConfig.k, RunConfig.delta)
    assert main(["compare", str(toy_csv), "--k", "2", "--out", str(tmp_path)]) == EXIT_OK
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert set(config) == {f.name for f in fields(RunConfig)}


def test_readme_knobs_are_the_config_flags():
    # The README's knob paragraph, up to the flags of ``classical``, names
    # every flag the CLI derives from RunConfig, plus ``--out``, and no other.
    sp = argparse.ArgumentParser()
    _add_config_flags(sp)
    derived = re.findall(r"\[(--[a-z-]+)", sp.format_usage())
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    knobs = readme[readme.index("Knobs of `quantum`"):readme.index("`classical` takes")]
    assert sorted(re.findall(r"`(--[a-z-]+)", knobs)) == sorted(derived)


def test_compare_toy_matches(toy_csv, tmp_path):
    out = tmp_path / "cmp"
    rc = main(
        ["compare", str(toy_csv), "--k", "2", "--delta", "1.5", "--seed", "9", "--out", str(out)]
    )
    assert rc == EXIT_OK
    man = json.loads((out / "manifest.json").read_text())
    assert man["flags_match"] is True
    assert man["flagged_quantum"] == [3]
    assert man["delta_margin_ok"] is False or man["delta_margin_ok"] is True
    assert {"eps_dist", "eps_lof", "ratio_bound", "total_bound"} <= set(man["error_budget"])


def test_compare_near_threshold_delta(toy_csv, tmp_path):
    # delta pinned on a classical LOF value: margin violated, mismatch tolerated.
    out = tmp_path / "near"
    rc = main(
        ["compare", str(toy_csv), "--k", "2", "--delta", "1.3333333333333333",
         "--seed", "1", "--out", str(out)]
    )
    man = json.loads((out / "manifest.json").read_text())
    assert man["near_threshold_delta"] is True
    assert rc in (EXIT_OK, EXIT_NEAR_THRESHOLD)


def test_quantum_subcommand(toy_csv, tmp_path):
    out = tmp_path / "q"
    rc = main(["quantum", str(toy_csv), "--k", "2", "--seed", "4", "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads((out / "quantum.json").read_text())
    assert payload["mode"] == "quantum"
    assert payload["flagged"] == [3]
    assert len(payload["points"]) == 4


def test_compare_deterministic(toy_csv, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(
            ["compare", str(toy_csv), "--k", "2", "--seed", "77", "--out", str(out)]
        ) == EXIT_OK
        outs.append((out / "manifest.json").read_bytes())
    assert outs[0] == outs[1]


def test_scale_runs_and_fits(tmp_path):
    out = tmp_path / "s"
    rc = main(["scale", "--grid", "8,16", "--trials", "2", "--seed", "5", "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "scale.csv").read_text().strip().splitlines()
    assert rows[0] == "m,step,median_queries"
    assert len(rows) == 1 + 2 * 4  # two grid points x four tracked steps
    summary = json.loads((out / "scale.json").read_text())
    assert summary["exponents"]["step1.o_x"] is not None


def test_scale_single_m_refuses_fit(tmp_path):
    out = tmp_path / "s1"
    rc = main(["scale", "--grid", "16", "--trials", "1", "--seed", "5", "--out", str(out)])
    assert rc == EXIT_OK
    summary = json.loads((out / "scale.json").read_text())
    assert all(v is None for v in summary["exponents"].values())
    assert len((out / "scale.csv").read_text().strip().splitlines()) == 5


def test_scale_requires_ledger(tmp_path):
    rc = main(["scale", "--grid", "8,16", "--backend", "exact", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize(
    "knob", [("--contamination", "0.9"), ("--contamination", "nan"),
             ("--contamination", "-1"), ("--n-dims", "0")],
)
def test_scale_bad_dataset_knob_is_a_config_error(tmp_path, capsys, knob):
    out = tmp_path / "s"
    rc = main(["scale", "--grid", "8", "--trials", "1", *knob, "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error")


def test_scale_checks_every_grid_point_before_running(tmp_path, capsys, monkeypatch):
    # --contamination 0.9 leaves six cluster points at m = 64 but one at m = 8.
    runs = []
    monkeypatch.setattr(QuantumLofPipeline, "run", lambda self: runs.append(self.ds.m))
    out = tmp_path / "s"
    argv = ["scale", "--grid", "64,8", "--trials", "1", "--contamination", "0.9"]
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert runs == [] and not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error")


def test_unknown_log_level_is_a_config_error(toy_csv, tmp_path):
    # In a fresh interpreter: under pytest the root logger already has
    # handlers, which makes logging.basicConfig a no-op.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "LOG_LEVEL": "bogus"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qlof", "classical", str(toy_csv), "--k", "2",
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_CONFIG
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and "LOG_LEVEL" in err[0]
    assert not (tmp_path / "o").exists()


def test_scale_deterministic(tmp_path):
    blobs = []
    for name in ("x", "y"):
        out = tmp_path / name
        assert main(["scale", "--grid", "8", "--trials", "1", "--seed", "3", "--out", str(out)]) == EXIT_OK
        blobs.append((out / "scale.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_calibrate_ae(tmp_path):
    out = tmp_path / "c"
    rc = main(
        ["calibrate-ae", "--t-list", "4", "--amplitudes", "5", "--trials", "8",
         "--seed", "2", "--out", str(out)]
    )
    assert rc == EXIT_OK
    lines = (out / "calibrate.csv").read_text().strip().splitlines()
    assert lines[0] == "a_true,t,fraction_within_bound"
    assert lines[1] == "0.0,4,1.0"  # a = 0 estimated exactly every time
    assert lines[2] == "1.0,4,1.0"
    assert len(lines) == 1 + 2 + 5


def test_calibrate_equals_the_per_trial_loop(tmp_path):
    # One array estimate per amplitude draws what one scalar estimate per
    # trial drew, so the sweep writes the same file.
    import math

    import numpy as np

    from qlof.primitives import amplitude_estimate

    assert main(
        ["calibrate-ae", "--t-list", "1,4,12", "--amplitudes", "3", "--trials", "9",
         "--seed", "5", "--out", str(tmp_path)]
    ) == EXIT_OK
    lines = ["a_true,t,fraction_within_bound"]
    for t in (1, 4, 12):
        rng = np.random.default_rng(np.random.SeedSequence([5, t]))
        for a in [0.0, 1.0] + [float(a) for a in rng.random(3)]:
            hits = 0
            for _ in range(9):
                est = amplitude_estimate(a, t, rng, repeats=1)
                hits += abs(est.theta_hat - math.asin(math.sqrt(a))) <= math.pi / (1 << t) + 1e-15
            lines.append(f"{a!r},{t},{hits / 9!r}")
    assert (tmp_path / "calibrate.csv").read_text() == "\n".join(lines) + "\n"


def test_calibrate_deterministic(tmp_path):
    blobs = []
    for name in ("u", "v"):
        out = tmp_path / name
        assert main(
            ["calibrate-ae", "--t-list", "4,6", "--amplitudes", "4", "--trials", "4",
             "--seed", "8", "--out", str(out)]
        ) == EXIT_OK
        blobs.append((out / "calibrate.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_compare_imports_no_scipy(tmp_path):
    # NumPy is qlof's one run-time dependency; SciPy serves only the tests.
    # A fresh interpreter, because the test run itself imports SciPy.  It
    # runs a ledger compare and an exact compare, the two golden cases.
    src = str(Path(__file__).resolve().parent.parent / "src")
    golden = Path(__file__).resolve().parent / "data" / "golden"
    cases = ("ledger-m48", "exact-m12")
    runs = [
        ["compare", str(golden / c / "data.csv"), *(golden / c / "argv.txt").read_text().split(),
         "--out", str(tmp_path / c)]
        for c in cases
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = (
        "import sys, qlof.cli\n"
        f"codes = [qlof.cli.main(argv) for argv in {runs!r}]\n"
        "print(*codes, any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    *codes, imported = proc.stdout.split()
    # Exit 6: the flag sets differ inside the error margin, a finished run.
    assert all(int(code) in (EXIT_OK, EXIT_NEAR_THRESHOLD) for code in codes)
    for c in cases:
        assert (tmp_path / c / "manifest.json").exists()
    assert imported == "False"


@pytest.mark.parametrize("backend", ["exact", "ledger"])
@pytest.mark.parametrize("knob", ["--ae-qubits-dist", "--ae-qubits-count", "--ae-qubits-lof"])
def test_precision_past_the_bound_is_a_config_error(toy_csv, tmp_path, capsys, knob, backend):
    # At t = 40 one draw of the outcome law would need terabytes: the run
    # must stop at validation, before anything is allocated or written.  An
    # escaped MemoryError would fail the test with its traceback.
    name = knob[2:].replace("-", "_")
    for t in (40, MAX_AE_QUBITS + 1):
        argv = ["compare", str(toy_csv), "--k", "2", "--backend", backend, knob, str(t)]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == [toy_csv]
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and name in err
        assert "Traceback" not in err
    RunConfig(k=2, **{name: MAX_AE_QUBITS}).validate(4)


def test_calibrate_precision_past_the_bound_is_a_config_error(tmp_path, capsys):
    argv = ["calibrate-ae", "--amplitudes", "2", "--trials", "2", "--out", str(tmp_path)]
    assert main([*argv, "--t-list", "4,40"]) == EXIT_CONFIG
    assert not (tmp_path / "calibrate.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "Traceback" not in err
    assert main([*argv, "--t-list", str(MAX_AE_QUBITS + 1)]) == EXIT_CONFIG

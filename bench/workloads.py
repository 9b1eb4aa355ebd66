"""Workload definitions and set-up (dataset generation and CSV writing).

Each workload is a fixed pool of synthetic datasets and the ``qlof compare``
arguments applied to every one of them.  The pool is the same in every run;
the workload seed draws each dataset's pipeline ``--seed``, which drives every
random stream of the quantum side.  One workload seed thus fixes every input
the program sees, and the spread between seeds measures the program's own
sampling, not which datasets a seed happened to draw: accuracy differs far
more between datasets (flag agreement 0.66 to 0.96 on ledger-m256) than
between seeds on one dataset.

Run as a script, this module times one complete set-up in a fresh interpreter
(importing qlof, generating the pool, writing the CSV files) and prints the
reference seconds; ``run.py`` calls it several times to report a median set-up time.

    python3 bench/workloads.py <workload> <seed> <directory>
"""

from __future__ import annotations

import json
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DELTA = 1.5  # the compare default anomaly threshold, passed explicitly

# Precisions of `qlof scale` (t 9/5/6, repeats 3, fp 20/12), except where noted.
_SCALE = [
    "--backend", "ledger", "--ae-qubits-count", "5", "--ae-qubits-lof", "6",
    "--ae-repeats", "3", "--fp-width", "20", "--fp-frac", "12",
]


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # "gaussian_clusters" or "random_dataset"
    m: int
    n: int
    gen_kwargs: tuple  # extra keyword arguments of the generator
    k: int
    pool: int  # distinct datasets; the first pass over them is the quality set
    args: tuple  # compare flags besides the input, --k, --delta, --seed and --out

    def compare_argv(self, csv: Path, seed: int, out: Path) -> list[str]:
        return ["compare", str(csv), "--k", str(self.k), "--delta", repr(DELTA),
                "--seed", str(seed), "--out", str(out), *self.args]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ledger-m256",
            generator="gaussian_clusters",
            m=256,
            n=2,
            gen_kwargs=(("contamination", 0.05),),
            k=3,
            pool=3,
            # t_dist 10, not the scale default 9, so that no operation of this
            # gated workload fails.  At 9 part of these datasets fail (an
            # escaping RatioBoundError, or exit 4 "degenerate data" when the AE
            # grid rounds a tight group's distances to zero); the gate does not
            # see those failures, `sweep.py --census` counts them.
            args=("--ae-qubits-dist", "10", "--min-boost", "1", *_SCALE),
        ),
        Workload(
            name="exact-m16",
            generator="random_dataset",
            m=16,
            n=4,
            gen_kwargs=(("min_gap_frac", 0.05),),
            k=3,
            pool=128,
            args=("--backend", "exact"),
        ),
    )
}


@dataclass(frozen=True)
class Item:
    """One dataset of the pool."""

    index: int
    csv: Path
    points: object  # numpy array, kept for the oracle
    seed: int  # pipeline --seed


def generate(wl: Workload, seed: int, directory: Path) -> list[Item]:
    """Draw the pool and its pipeline seeds, and write one CSV per dataset."""
    import numpy as np
    from qlof import synthetic

    gen = getattr(synthetic, wl.generator)
    tag = zlib.crc32(wl.name.encode())
    directory.mkdir(parents=True, exist_ok=True)
    items = []
    for j in range(wl.pool):
        ds = gen(wl.m, wl.n, np.random.default_rng(np.random.SeedSequence([tag, j])), **dict(wl.gen_kwargs))
        rng = np.random.default_rng(np.random.SeedSequence([seed, tag, j]))
        csv = directory / f"data{j:03d}.csv"
        csv.write_text(
            "".join(",".join(repr(float(x)) for x in row) + "\n" for row in ds.points),
            encoding="utf-8",
        )
        items.append(Item(index=j, csv=csv, points=ds.points, seed=int(rng.integers(1 << 31))))
    return items


def setup(wl: Workload, seed: int, directory: Path) -> tuple[float, list[Item]]:
    """Import qlof, generate the pool and write it; return (reference
    seconds, pool).  The wall seconds are rescaled to the reference speed of
    ``speed.py``, measured by kernel runs made right after."""
    t0 = perf_counter()
    import qlof.cli  # noqa: F401  (the import is part of what is timed)

    items = generate(wl, seed, directory)
    seconds = perf_counter() - t0
    import speed  # only now: it imports numpy, which the timed part must do itself

    return seconds * speed.factor_now(), items


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    seconds, _ = setup(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(seconds))

"""Golden `compare` manifests: a refactor must reproduce them byte for byte.

Each directory under ``tests/data/golden`` holds an input CSV, the extra
`compare` flags (``argv.txt``) and the ``manifest.json`` they produced:

* ``exact-m12`` -- ``random_dataset(12, 3)`` on the exact backend with the
  compare defaults;
* ``ledger-m48`` -- ``gaussian_clusters(48, 2)`` on the ledger backend with
  the ``qlof scale`` precisions and ``--ae-qubits-dist 10``.

A deliberate change of the random-number layout regenerates these files.
"""

from pathlib import Path

import pytest

from qlof.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("case", ["exact-m12", "ledger-m48"])
def test_compare_manifest_matches_golden(case, tmp_path):
    d = GOLDEN / case
    argv = (d / "argv.txt").read_text().split()
    main(["compare", str(d / "data.csv"), *argv, "--out", str(tmp_path)])
    assert (tmp_path / "manifest.json").read_bytes() == (d / "manifest.json").read_bytes()

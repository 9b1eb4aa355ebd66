"""Golden outputs: a refactor must reproduce them byte for byte.

Each directory under ``tests/data/golden`` holds the extra flags of the
command (``argv.txt``) and the files it wrote:

* ``exact-m12`` -- ``random_dataset(12, 3)`` (``data.csv``) on the exact
  backend with the compare defaults: the `compare` ``manifest.json`` and the
  `quantum` ``quantum.json``;
* ``ledger-m48`` -- ``gaussian_clusters(48, 2)`` on the ledger backend with
  the ``qlof scale`` precisions and ``--ae-qubits-dist 10``: the `compare`
  ``manifest.json``;
* ``scale`` -- ``qlof scale`` on its own defaults over a two-point grid:
  ``scale.csv`` and ``scale.json``.

The files follow the random-number layout of ``qlof.pipeline``: one
generator per stage, keyed by (seed, stage), for the stage tags 0-6
(distances, k-distance, counting, collection, outlier factors, flagging and
step 3's ratio-maximum search, one ``quantum_min`` call, the k = 1 case of
``kth_smallest``, over every (point, neighbor) density ratio in point, then
neighbor order), with step 1's pairs drawn in upper-triangle row order, and
the k-distance stage one ``kth_smallest`` call over every point's row in
point order; the map from uniforms to outcomes of
``primitives.ae_outcomes``, the staged-window
sampler (one uniform per draw: its half picks the +-theta kernel, the rest
inverts that kernel over the peak's two outcomes or, past their mass, over
each wider window of ``primitives._STAGES`` less the one before it, and
finally over the rest of the row); and, on the ledger backend, the block-sampled Grover search of
``primitives.grover_search`` (one (R, 2) block of uniforms per search,
then one uniform per hit), with collection drawing every point still
collecting in point order, invocation by invocation.  The exact backend's
searches draw round by round, point by point within an invocation, and its
collection draws invocation by invocation too, so ``exact-m12`` does not
depend on the block layout but does on the invocation order.  A deliberate change of any of these
regenerates the files it moves, in a change of their own that lists them.
"""

from pathlib import Path

import pytest

from qlof.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


def _assert_golden(case, argv, outputs, tmp_path):
    d = GOLDEN / case
    main([*argv, *(d / "argv.txt").read_text().split(), "--out", str(tmp_path)])
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (d / name).read_bytes(), name


@pytest.mark.parametrize("case", ["exact-m12", "ledger-m48"])
def test_compare_manifest_matches_golden(case, tmp_path):
    _assert_golden(case, ["compare", str(GOLDEN / case / "data.csv")], ["manifest.json"], tmp_path)


def test_quantum_report_matches_golden(tmp_path):
    case = "exact-m12"
    _assert_golden(case, ["quantum", str(GOLDEN / case / "data.csv")], ["quantum.json"], tmp_path)


def test_scale_sweep_matches_golden(tmp_path):
    _assert_golden("scale", ["scale"], ["scale.csv", "scale.json"], tmp_path)

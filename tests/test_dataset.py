import json
import math

import numpy as np
import pytest

from qlof import dataset
from qlof.dataset import (
    DataParseError,
    DegenerateDataError,
    RunConfig,
    ConfigError,
    from_points,
    load_csv,
    normalized_distance_matrix,
    raw_distance_matrix,
)


def test_load_csv_single_column(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("0\n1\n2\n")
    ds = load_csv(str(p))
    assert (ds.m, ds.n, ds.c_norm) == (3, 1, 2.0)


def test_load_csv_two_columns(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("0,0\n3,4\n")
    ds = load_csv(str(p))
    assert (ds.m, ds.n, ds.c_norm) == (2, 2, 4.0)


def test_load_csv_degenerate(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("5\n5\n")
    with pytest.raises(DegenerateDataError):
        load_csv(str(p))


def test_load_csv_ragged_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(DataParseError, match="row 1"):
        load_csv(str(p))


def test_load_csv_bad_cell(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("1,2\n3,x\n")
    with pytest.raises(DataParseError, match="row 1, column 1"):
        load_csv(str(p))


def test_load_csv_single_row_rejected(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1,2\n")
    with pytest.raises(DataParseError):
        load_csv(str(p))


def test_missing_file():
    with pytest.raises(DataParseError):
        load_csv("/nonexistent/nope.csv")


def test_summary_json():
    # The manifests' "dataset" entry: the summary written as JSON.
    ds = from_points([[0.0], [1.0], [2.0]])
    assert json.loads(json.dumps(ds.summary())) == {"m": 3, "n": 1, "c_norm": 2.0}


def test_normalized_distance_examples():
    ds = from_points([[0.0], [2.0]])
    assert normalized_distance_matrix(ds)[0, 1] == 1.0  # the maximal pair attains 1
    ds2 = from_points([[0.0, 0.0], [3.0, 4.0]])
    assert math.isclose(normalized_distance_matrix(ds2)[0, 1], 5.0 / (math.sqrt(2) * 4.0))
    ds3 = from_points([[0.0], [1.0], [1.0]])
    assert normalized_distance_matrix(ds3)[1, 2] == 0.0
    assert np.all(np.diag(normalized_distance_matrix(ds3)) == 0.0)


def test_distance_symmetry_bounds_triangle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m, n = int(rng.integers(3, 9)), int(rng.integers(1, 5))
        pts = rng.standard_normal((m, n)) * rng.random() * 10
        if np.max(pts.max(axis=0) - pts.min(axis=0)) <= 0:
            continue
        ds = from_points(pts)
        dn = normalized_distance_matrix(ds)
        dr = raw_distance_matrix(ds)
        assert np.allclose(dn, dn.T)
        assert np.all(dn >= 0) and np.all(dn <= 1 + 1e-12)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    assert dr[i, j] <= dr[i, k] + dr[k, j] + 1e-9


def _one_shot_distances(pts):
    """The (m, m, n) difference formula the row blocks must reproduce."""
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


@pytest.mark.parametrize("block", [None, 1, 1000, 20000])
@pytest.mark.parametrize("m, n", [(2, 1), (37, 3), (300, 2), (90, 64)])
def test_blocked_distance_matrix_is_bitwise_the_one_shot(monkeypatch, block, m, n):
    if block is not None:
        monkeypatch.setattr(dataset, "_DIST_BLOCK", block)
    pts = np.random.default_rng(m * n).standard_normal((m, n)) * 3.0
    want = _one_shot_distances(pts).tobytes()
    assert raw_distance_matrix(from_points(pts)).tobytes() == want
    assert raw_distance_matrix(pts).tobytes() == want  # a bare point matrix


def test_run_config_validation():
    RunConfig(k=2).validate(4)
    with pytest.raises(ConfigError):
        RunConfig(k=0).validate(4)
    with pytest.raises(ConfigError):
        RunConfig(k=4).validate(4)
    with pytest.raises(ConfigError):
        RunConfig(k=2, delta=0.0).validate(4)
    with pytest.raises(ConfigError):
        RunConfig(k=2, fp_width=8, fp_frac=8).validate(4)
    with pytest.raises(ConfigError):
        RunConfig(k=2, ae_qubits_dist=0).validate(4)
    with pytest.raises(ConfigError):
        RunConfig(k=2, ae_repeats=2).validate(4)
    with pytest.raises(ConfigError):
        RunConfig(k=2, backend="other").validate(4)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="delta"):
            RunConfig(k=2, delta=bad).validate(4)


def test_eps_properties():
    cfg = RunConfig(k=2, ae_qubits_dist=10, ae_qubits_lof=8)
    assert math.isclose(cfg.eps_dist, math.pi / 1024)
    assert math.isclose(cfg.eps_lof, math.pi / 256)
    assert cfg.eps_count(8) > 0

import inspect
import math

import numpy as np
import pytest

from qlof.dataset import DegenerateDataError, from_points
from qlof.lof import (
    flag,
    k_distance,
    lof,
    lof_all,
    lrd,
    neighborhood,
    reach_dist,
)

TOY = [[0.0], [1.0], [2.0], [10.0]]  # three-point cluster plus one far outlier

# Frozen by hand from the definitions (k = 2, raw distances):
#   k-distances [2, 1, 2, 9]; neighborhoods {1,2},{0,2},{0,1},{1,2}
#   lrd [2/3, 1/2, 2/3, 2/17]; LOF [7/8, 4/3, 7/8, 119/24]
TOY_KDIST_RAW = [2.0, 1.0, 2.0, 9.0]
TOY_NEIGHBORS = [[1, 2], [0, 2], [0, 1], [1, 2]]
TOY_LRD_RAW = [2.0 / 3.0, 0.5, 2.0 / 3.0, 2.0 / 17.0]
TOY_LOF = [7.0 / 8.0, 4.0 / 3.0, 7.0 / 8.0, 119.0 / 24.0]


def toy():
    return from_points(TOY)


def test_k_distance_toy_frozen():
    ds = toy()
    for i, kd in enumerate(TOY_KDIST_RAW):
        assert math.isclose(k_distance(ds, i, 2, normalized=False), kd)
        assert math.isclose(k_distance(ds, i, 2), kd / 10.0)  # c_norm = 10, n = 1


def test_k_distance_simple_grid():
    ds = from_points([[0.0], [1.0], [2.0]])
    assert math.isclose(k_distance(ds, 0, 1), 0.5)  # raw 1, normalized by 2
    with pytest.raises(ValueError):
        k_distance(ds, 0, 3)


def test_k_distance_duplicates_count():
    ds = from_points([[0.0], [0.0], [1.0]])
    assert k_distance(ds, 0, 1, normalized=False) == 0.0


def test_neighborhood_toy_and_ties():
    ds = toy()
    for i, nb in enumerate(TOY_NEIGHBORS):
        row = neighborhood(ds, i, 2)
        assert row.neighbors == nb
        assert row.count >= 2
        assert all(d <= row.kdist for d in row.dists)

    grid = from_points([[0.0], [1.0], [2.0]])
    mid = neighborhood(grid, 1, 1)
    assert mid.neighbors == [0, 2] and mid.count == 2  # tie exceeds k
    first = neighborhood(grid, 0, 1)
    assert first.neighbors == [1] and first.count == 1
    everyone = neighborhood(grid, 0, 2)
    assert everyone.neighbors == [1, 2]  # k = m-1 takes all other points


def test_neighborhood_second_condition():
    # Def-1 style check: fewer than k points lie strictly inside the k-distance.
    rng = np.random.default_rng(21)
    for _ in range(15):
        pts = rng.random((10, 2)) * 5
        ds = from_points(pts)
        k = int(rng.integers(1, 5))
        for i in range(ds.m):
            row = neighborhood(ds, i, k)
            strictly_inside = sum(1 for d in row.dists if d < row.kdist)
            assert row.count >= k
            assert strictly_inside <= k - 1


def test_reach_dist_cases():
    ds = toy()
    # Far pair: distance dominates the neighbor's k-distance.
    assert math.isclose(reach_dist(ds, 3, 2, 2, normalized=False), 8.0)
    # Close pair: the k-distance floor kicks in.
    assert math.isclose(reach_dist(ds, 1, 0, 2, normalized=False), 2.0)
    # Equal case: either operand, same value.
    assert math.isclose(reach_dist(ds, 0, 2, 2, normalized=False), 2.0)


def test_lrd_toy_frozen_and_grid():
    ds = toy()
    for i, expect in enumerate(TOY_LRD_RAW):
        assert math.isclose(lrd(ds, i, 2, normalized=False), expect)
    grid = from_points([[0.0], [1.0], [2.0]])
    assert math.isclose(lrd(grid, 1, 1, normalized=False), 1.0)
    # Outlier's density is far below the cluster's.
    dens = [lrd(ds, i, 2, normalized=False) for i in range(4)]
    assert dens[3] < 0.25 * min(dens[:3])


def test_lrd_homogeneity():
    rng = np.random.default_rng(22)
    pts = rng.random((8, 2)) * 3
    ds = from_points(pts)
    for c in (0.5, 2.0, 17.0):
        scaled = from_points(pts * c)
        for i in range(ds.m):
            assert math.isclose(
                lrd(scaled, i, 2, normalized=False),
                lrd(ds, i, 2, normalized=False) / c,
                rel_tol=1e-9,
            )


def test_lrd_degenerate_duplicates():
    ds = from_points([[0.0], [0.0], [1.0]])
    with pytest.raises(DegenerateDataError):
        lrd(ds, 0, 1)


def test_lof_toy_frozen():
    ds = toy()
    for i, expect in enumerate(TOY_LOF):
        assert math.isclose(lof(ds, i, 2), expect, rel_tol=1e-12)
    assert np.allclose(lof_all(ds, 2), TOY_LOF)


def test_lof_uniform_grid_is_one():
    ds = from_points([[0.0], [1.0], [2.0]])
    assert np.allclose(lof_all(ds, 1), 1.0)


def test_lof_uniform_grid_interior_k2():
    # The k-distance boundary effect reaches two layers in, so "interior"
    # means at least three positions from each end of the grid.
    ds = from_points([[float(i)] for i in range(12)])
    vals = lof_all(ds, 2)
    for i in range(3, 9):
        assert abs(vals[i] - 1.0) <= 1e-9


def test_lof_scale_invariance():
    rng = np.random.default_rng(23)
    for _ in range(8):
        pts = rng.random((int(rng.integers(5, 12)), int(rng.integers(1, 4)))) * 4
        ds = from_points(pts)
        base = lof_all(ds, 2)
        c = float(rng.random() * 10 + 0.1)
        assert np.allclose(lof_all(from_points(pts * c), 2), base, atol=1e-9)


def test_lof_permutation_equivariance():
    rng = np.random.default_rng(24)
    pts = rng.random((9, 2)) * 5
    ds = from_points(pts)
    base = lof_all(ds, 3)
    perm = rng.permutation(9)
    permuted = lof_all(from_points(pts[perm]), 3)
    assert np.array_equal(permuted, base[perm])


def test_flag_thresholds():
    ds = toy()
    rep = flag(ds, 2, 1.5)
    assert rep.flagged_indices() == [3]
    assert rep.n_flagged == 1
    assert flag(ds, 2, 0.5).n_flagged == 4  # delta below every LOF
    assert flag(ds, 2, 10.0).n_flagged == 0  # delta above every LOF
    with pytest.raises(ValueError):
        flag(ds, 2, 0.0)


def test_report_normalized_convention():
    rep = flag(toy(), 2, 1.5)
    assert np.allclose(rep.kdist, np.array(TOY_KDIST_RAW) / 10.0)
    assert np.allclose(rep.lrd, 10.0 * np.array(TOY_LRD_RAW))
    d = rep.to_dict()
    assert d["points"][3]["flagged"] is True


def test_budget_helpers_frozen():
    rep = flag(toy(), 2, 1.5)
    assert math.isclose(rep.max_density_ratio, 17.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(rep.dist_floor_sq, 0.01, rel_tol=1e-12)
    assert np.allclose(rep.lrd, 10.0 * np.array(TOY_LRD_RAW))


def test_package_attribute_is_the_module():
    import qlof
    import qlof.lof as mod

    assert inspect.ismodule(mod) and qlof.lof is mod
    assert mod.lof is lof  # the function stays importable from the module

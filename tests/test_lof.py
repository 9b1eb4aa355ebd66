import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlof.dataset import DegenerateDataError, from_points, normalized_distance_matrix
from qlof.lof import build_table, flag, lof_all

TOY = [[0.0], [1.0], [2.0], [10.0]]  # three-point cluster plus one far outlier

# Frozen by hand from the definitions (k = 2, raw distances):
#   k-distances [2, 1, 2, 9]; neighborhoods {1,2},{0,2},{0,1},{1,2}
#   lrd [2/3, 1/2, 2/3, 2/17]; LOF [7/8, 4/3, 7/8, 119/24]
# The library works in normalized distances d / (sqrt(n) * c_norm); on TOY
# that divides every distance by 10 and multiplies every density by 10.
TOY_KDIST_RAW = [2.0, 1.0, 2.0, 9.0]
TOY_NEIGHBORS = [[1, 2], [0, 2], [0, 1], [1, 2]]
TOY_LRD_RAW = [2.0 / 3.0, 0.5, 2.0 / 3.0, 2.0 / 17.0]
TOY_LOF = [7.0 / 8.0, 4.0 / 3.0, 7.0 / 8.0, 119.0 / 24.0]


def toy():
    return from_points(TOY)


def raw_lrd(ds, k):
    """Local reachability densities in raw distance units."""
    return flag(ds, k, 1.5).lrd / (math.sqrt(ds.n) * ds.c_norm)


def test_k_distance_toy_frozen():
    ds = toy()
    table = build_table(ds, 2)
    for i, kd in enumerate(TOY_KDIST_RAW):
        assert math.isclose(table.rows[i].kdist, kd / 10.0)  # c_norm = 10, n = 1
        assert math.isclose(flag(ds, 2, 1.5).kdist[i] * 10.0, kd)


def test_k_distance_simple_grid():
    ds = from_points([[0.0], [1.0], [2.0]])
    assert math.isclose(build_table(ds, 1).rows[0].kdist, 0.5)  # raw 1, normalized by 2
    with pytest.raises(ValueError):
        build_table(ds, 3)


def test_k_distance_duplicates_count():
    ds = from_points([[0.0], [0.0], [1.0]])
    assert build_table(ds, 1).rows[0].kdist == 0.0


def test_neighborhood_toy_and_ties():
    ds = toy()
    for i, nb in enumerate(TOY_NEIGHBORS):
        row = build_table(ds, 2).rows[i]
        assert row.neighbors == nb
        assert row.count >= 2
        assert all(d <= row.kdist for d in row.dists)

    grid = from_points([[0.0], [1.0], [2.0]])
    mid = build_table(grid, 1).rows[1]
    assert mid.neighbors == [0, 2] and mid.count == 2  # tie exceeds k
    first = build_table(grid, 1).rows[0]
    assert first.neighbors == [1] and first.count == 1
    everyone = build_table(grid, 2).rows[0]
    assert everyone.neighbors == [1, 2]  # k = m-1 takes all other points


def test_neighborhood_second_condition():
    # Def-1 style check: fewer than k points lie strictly inside the k-distance.
    rng = np.random.default_rng(21)
    for _ in range(15):
        pts = rng.random((10, 2)) * 5
        ds = from_points(pts)
        k = int(rng.integers(1, 5))
        for row in build_table(ds, k).rows:
            strictly_inside = sum(1 for d in row.dists if d < row.kdist)
            assert row.count >= k
            assert strictly_inside <= k - 1


def test_build_table_equals_the_per_point_loop():
    # The reference: each point's k-th smallest distance to the others, and
    # its members by one comparison per other point, in index order.  The
    # integer grid makes duplicates and ties.
    rng = np.random.default_rng(22)
    for k in (1, 3, 5):
        ds = from_points(rng.integers(0, 4, size=(30, 2)).astype(float))
        dmat = normalized_distance_matrix(ds)
        for i, row in enumerate(build_table(ds, k).rows):
            d = dmat[i]
            kd = float(np.sort(np.delete(d, i))[k - 1])
            members = [t for t in range(ds.m) if t != i and d[t] <= kd]
            assert (row.kdist, row.neighbors) == (kd, members)
            assert row.dists == [float(d[t]) for t in members]
            assert all(type(t) is int for t in row.neighbors)


def test_reach_dist_cases():
    # lrd(i) is the inverse mean of reach-dist(i, t) = max(k-distance(t), d(i, t))
    # over i's neighbors t; raw reach distances per TOY point, k = 2:
    reach = {
        3: [9.0, 8.0],  # far pairs: the distance dominates the k-distances 1 and 2
        1: [2.0, 2.0],  # close pairs: the k-distance floor 2 lifts distances of 1
        0: [1.0, 2.0],  # equal cases: k-distance and distance coincide
    }
    dens = raw_lrd(toy(), 2)
    for i, r in reach.items():
        assert math.isclose(dens[i], 1.0 / (sum(r) / len(r)))


def test_lrd_toy_frozen_and_grid():
    ds = toy()
    dens = raw_lrd(ds, 2)
    assert np.allclose(dens, TOY_LRD_RAW)
    grid = from_points([[0.0], [1.0], [2.0]])
    assert math.isclose(raw_lrd(grid, 1)[1], 1.0)
    # Outlier's density is far below the cluster's.
    assert dens[3] < 0.25 * min(dens[:3])


def test_lrd_homogeneity():
    # Scaling the coordinates by c scales the raw densities by 1/c and leaves
    # the normalized ones unchanged.
    rng = np.random.default_rng(22)
    pts = rng.random((8, 2)) * 3
    ds = from_points(pts)
    for c in (0.5, 2.0, 17.0):
        scaled = from_points(pts * c)
        assert np.allclose(raw_lrd(scaled, 2), raw_lrd(ds, 2) / c, rtol=1e-9, atol=0)
        assert np.allclose(flag(scaled, 2, 1.5).lrd, flag(ds, 2, 1.5).lrd, rtol=1e-9, atol=0)


def test_lrd_degenerate_duplicates():
    ds = from_points([[0.0], [0.0], [1.0]])
    with pytest.raises(DegenerateDataError):
        flag(ds, 1, 1.5)


def test_lof_toy_frozen():
    ds = toy()
    for i, expect in enumerate(TOY_LOF):
        assert math.isclose(lof_all(ds, 2)[i], expect, rel_tol=1e-12)
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


REPORT_FIELDS = ("kdist", "counts", "lrd", "lof", "flagged")


def _grid_points(m, n, levels, seed):
    """m points on a coarse grid: ties between distances are common."""
    return np.random.default_rng(seed).integers(0, levels, (m, n)).astype(float)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(3, 14),
    n=st.integers(1, 3),
    k=st.integers(1, 3),
    levels=st.integers(3, 6),
    seed=st.integers(0, 2**16),
    perm_seed=st.integers(0, 2**16),
)
def test_flag_is_bitwise_permutation_equivariant(m, n, k, levels, seed, perm_seed):
    pts = _grid_points(m, n, levels, seed)
    assume(k <= m - 1 and len(np.unique(pts, axis=0)) >= 2)
    perm = np.random.default_rng(perm_seed).permutation(m)
    try:
        base = flag(from_points(pts), k, 1.5)
    except DegenerateDataError:
        with pytest.raises(DegenerateDataError):
            flag(from_points(pts[perm]), k, 1.5)
        return
    permuted = flag(from_points(pts[perm]), k, 1.5)
    for name in REPORT_FIELDS:
        assert getattr(permuted, name).tobytes() == getattr(base, name)[perm].tobytes(), name
    assert permuted.dist_floor_sq == base.dist_floor_sq


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(3, 14),
    n=st.integers(1, 3),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    scale_exp=st.integers(-10, 10),
    shift_units=st.integers(-100 * 2**10, 100 * 2**10),
)
def test_flag_is_scale_and_translation_invariant(m, n, k, seed, scale_exp, shift_units):
    # Points on the 2^-20 grid, a power-of-two scale and a shift on the
    # 2^-10 grid: every moved coordinate spans at most 41 bits, so
    # pts * scale + shift is exact and the normalized distances are the same
    # doubles.  A rounded transform would make the property false.
    assume(k <= m - 1)
    pts = np.random.default_rng(seed).integers(0, 2**20, (m, n)) / 2**20
    moved_pts = pts * 2.0**scale_exp + shift_units / 2**10
    try:
        base = flag(from_points(pts), k, 1.5)
    except DegenerateDataError:
        with pytest.raises(DegenerateDataError):
            flag(from_points(moved_pts), k, 1.5)
        return
    moved = flag(from_points(moved_pts), k, 1.5)
    # Normalized units absorb the scale, so every field is bitwise invariant.
    for name in REPORT_FIELDS:
        assert getattr(moved, name).tobytes() == getattr(base, name).tobytes(), name


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(3, 16),
    distinct=st.integers(2, 5),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_duplicates_degenerate_only_when_every_neighbor_is_one(m, distinct, k, seed):
    rng = np.random.default_rng(seed)
    pool = rng.random((distinct, 2))
    pts = pool[rng.integers(0, distinct, m)]
    assume(k <= m - 1 and len(np.unique(pts, axis=0)) >= 2)
    ds = from_points(pts)
    # A point's neighbors are all its duplicates iff its k-distance is 0.
    all_duplicates = [row.kdist == 0.0 for row in build_table(ds, k).rows]
    _, sizes = np.unique(pts, axis=0, return_counts=True)
    assert any(all_duplicates) == bool(np.any(sizes >= k + 1))
    if not any(all_duplicates):
        flag(ds, k, 1.5)
        return
    with pytest.raises(DegenerateDataError, match=r"^point (\d+):") as info:
        flag(ds, k, 1.5)
    assert all_duplicates[int(info.value.args[0].split()[1].rstrip(":"))]


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
    assert math.isclose(rep.dist_floor_sq, 0.01, rel_tol=1e-12)
    assert np.allclose(rep.lrd, 10.0 * np.array(TOY_LRD_RAW))


def test_package_attribute_is_the_module():
    import qlof
    import qlof.lof as mod

    assert inspect.ismodule(mod) and qlof.lof is mod

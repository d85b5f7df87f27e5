import dataclasses
import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robustcenter.core as core
from robustcenter.core import (
    CenterSet,
    ParamSet,
    PointSet,
    ceil_count,
    clustering_cost,
    cost_radius,
    euclidean_dists,
    farthest_m,
    load_points_csv,
    peel_weight,
    radius_after_exclusions,
    relaxed_exclusions,
    weighted_cost,
    NearestTracker,
)
from robustcenter.coreset import WeightedCoreset, compose_with_host
from robustcenter.distributed import ShardedInstance, _partition

import oracles


def line_ps(xs):
    return PointSet.from_coords(np.asarray(xs, dtype=np.float64))


def random_ps(rng, n, dim=2, span=50):
    return PointSet.from_coords(rng.integers(-span, span, size=(n, dim)).astype(np.float64))


def test_from_coords_promotes_and_validates():
    ps = line_ps([0.0, 1.0, 2.0])
    assert ps.n == 3 and ps.dim == 1
    with pytest.raises(ValueError):
        PointSet.from_coords(np.array([[0.0], [np.nan]]))
    with pytest.raises(ValueError):
        PointSet.from_coords(np.array([[np.inf, 0.0]]))
    for shapeless in (np.zeros((2, 2, 2)), []):
        with pytest.raises(ValueError, match="non-empty 2-D"):
            PointSet.from_coords(shapeless)


@pytest.mark.parametrize("dim", [1, 2, 8, 137])
def test_from_coords_admits_magnitudes_up_to_the_limit(dim):
    top = core._max_coordinate(dim)
    coords = np.zeros((2, dim))
    coords[0, -1] = -top
    assert PointSet.from_coords(coords).coords[0, -1] == -top
    coords[1, 0] = np.nextafter(top, np.inf)
    with pytest.raises(ValueError, match="magnitude") as exc:
        PointSet.from_coords(coords)
    assert repr(top) in str(exc.value) and f"D={dim}" in str(exc.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [4, 5, 8, 33, 200])
def test_corners_at_the_coordinate_limit_keep_every_key_finite(dim):
    # Corners of [-M, M]^D with M the limit: point 1 is point 0's antipode,
    # whose key, 4D M^2, is the largest any admitted pair can have; the
    # repeated corners tie, and the nudged ones are near-duplicates.
    top = core._max_coordinate(dim)
    rng = np.random.default_rng(dim)
    coords = top * rng.choice([-1.0, 1.0], (300, dim))
    coords[1] = -coords[0]
    coords[2:40] = np.nextafter(coords[2:40], 0)
    ps = PointSet.from_coords(coords)
    keys = ps.dists_from(0, root=False)
    assert np.isfinite(keys).all() and 0.99999 * sys.float_info.max < keys[1] < sys.float_info.max
    centers = rng.permutation(ps.n)[:60].tolist()
    tracker = NearestTracker(ps)
    for c in centers:
        tracker.add_center(c)
    assert np.isfinite(tracker.mindist).all()
    _assert_matches_whole_rows(ps, tracker, centers)


def test_distance_matrix_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert PointSet.from_distance_matrix(good).n == 2
    with pytest.raises(ValueError):
        PointSet.from_distance_matrix(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        PointSet.from_distance_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        PointSet.from_distance_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        PointSet.from_distance_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        PointSet.from_distance_matrix(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_distance_counter_is_exact():
    ps = random_ps(np.random.default_rng(0), 7)
    assert ps.stats.evals == 0
    ps.dist(0, 1)
    assert ps.stats.evals == 1
    ps.dists_from(2)
    assert ps.stats.evals == 1 + 7
    ps.cross_dists(np.arange(3), np.arange(2))
    assert ps.stats.evals == 1 + 7 + 6
    sub = ps.subset([0, 1, 2])
    assert sub.stats.evals == 0


def row_wise_dists(a, b):
    return np.sqrt(((a - b) ** 2).sum(-1))


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 9, 15, 16, 17, 129, 200])
def test_coordinate_major_kernel_is_bit_equal_to_row_wise_sum(dim):
    rng = np.random.default_rng(dim)
    n = 700
    ps = PointSet.from_coords(rng.normal(scale=37.5, size=(n, dim)) + rng.random((n, dim)))
    rows = np.ascontiguousarray(ps.coords)
    assert ps.coords.flags.f_contiguous and not ps.coords.flags.writeable

    for i in (0, 17, n - 1):
        before = ps.stats.evals
        assert np.array_equal(ps.dists_from(i), row_wise_dists(rows, rows[i]))
        assert ps.stats.evals - before == n
    for i, j in ((0, 1), (17, 250), (n - 1, 3)):
        before = ps.stats.evals
        assert ps.dist(i, j) == ps.dists_from(i)[j] == row_wise_dists(rows[i], rows[j])
        assert ps.stats.evals - before == 1 + n

    # Kernel chunks hold 2**17 entries: 300 x 500 x dim entries span several,
    # and so do 700 x 200 in dists_from at dim=200.
    r = rng.permutation(n)[:300]
    c = rng.integers(0, n, size=500)
    before = ps.stats.evals
    block = ps.cross_dists(r, c)
    assert ps.stats.evals - before == 300 * 500
    assert np.array_equal(block, row_wise_dists(rows[r][:, None, :], rows[c][None, :, :]))

    h = hashlib.sha256()
    h.update(b"euclidean")
    h.update(str(rows.shape).encode())
    h.update(rows.tobytes())
    assert ps.content_hash() == h.hexdigest()


def test_matrix_dist_is_bit_equal_to_its_cross_block():
    # The matrix-mode half of the bit-equality test above.
    coords = PointSet.from_coords(np.random.default_rng(5).normal(scale=37.5, size=(60, 3)))
    ps = PointSet.from_distance_matrix(coords.cross_dists(np.arange(60), np.arange(60)))
    for i, j in ((0, 1), (17, 42), (59, 3), (8, 8)):
        before = ps.stats.evals
        got = ps.dist(i, j)
        assert ps.stats.evals - before == 1 and type(got) is float
        assert got == ps.cross_dists([i], [j])[0, 0] == coords.dist(i, j)


@pytest.mark.parametrize(("dim", "n"), [(2, 1_000), (2, 70_000), (8, 20_000)])
def test_unrooted_dists_from_roots_to_the_default_row(dim, n):
    # Kernel chunks hold 2**17 entries: 70,000 x 2 and 20,000 x 8 span two.
    rng = np.random.default_rng(dim)
    ps = PointSet.from_coords(rng.normal(scale=37.5, size=(n, dim)) + rng.random((n, dim)))
    rows = np.ascontiguousarray(ps.coords)
    for i in (0, n // 2, n - 1):
        before = ps.stats.evals
        sq = ps.dists_from(i, root=False)
        assert ps.stats.evals - before == n
        assert sq.tobytes() == ((rows - rows[i]) ** 2).sum(-1).tobytes()
        assert np.sqrt(sq).tobytes() == ps.dists_from(i).tobytes()


def test_unrooted_dists_from_on_a_matrix_is_the_row():
    ps = PointSet.from_distance_matrix(np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]]))
    assert np.array_equal(ps.dists_from(1, root=False), [3.0, 0.0, 5.0])
    assert ps.stats.evals == 3


def test_matrix_cross_dists_block_is_a_writable_copy():
    ps = PointSet.from_distance_matrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]))
    dmat = ps.dmat.copy()
    block = ps.cross_dists([0, 2], [1, 2])
    first = block.copy()
    block[:] = -1.0
    assert np.array_equal(ps.dmat, dmat)
    assert np.array_equal(ps.cross_dists([0, 2], [1, 2]), first)


def test_euclidean_dists_takes_the_rows_from_a():
    x = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(euclidean_dists(x, x[1]), row_wise_dists(x, x[1]))
    for a, b in ((x[1], x), (x[1:2], x)):
        with pytest.raises(ValueError):
            euclidean_dists(a, b)


@pytest.mark.parametrize("mode", ["euclidean", "matrix"])
@pytest.mark.parametrize("cols", [1, 7, 700, 70_000])
def test_nearest_dists_are_the_row_minima_of_cross_dists(cols, mode):
    # 700 columns split the rows into several blocks; 70,000 make one-row
    # blocks.
    rng = np.random.default_rng(cols)
    n = 1500 if mode == "matrix" else 80_000
    ps = PointSet.from_coords(rng.normal(scale=37.5, size=(n, 3)))
    if mode == "matrix":
        ps = PointSet.from_distance_matrix(ps.cross_dists(np.arange(n), np.arange(n)))
    rows = rng.choice(n, size=150, replace=False)
    c = rng.choice(n, size=min(cols, n), replace=False)
    before = ps.stats.evals
    got = ps.nearest_dists(rows, c)
    assert ps.stats.evals - before == rows.size * c.size
    assert got.tobytes() == np.stack([ps.cross_dists([r], c).min(axis=1)[0] for r in rows]).tobytes()


def test_paramset_bounds():
    ParamSet(k=1, z=0, n=2)
    for kwargs in (
        dict(k=0, z=0, n=2),
        dict(k=1, z=-1, n=5),
        dict(k=2, z=3, n=5),
        dict(k=1, z=1, n=5, eps=0.0),
        dict(k=1, z=1, n=5, eta=0.5),
        dict(k=1, z=1, n=5, mu=1.0),
        dict(k=2.5, z=1, n=10),
        dict(k=True, z=1, n=10),
        dict(k=2, z=1.5, n=10),
        dict(k=2, z=1, n=10.0),
        dict(k=2, z=1, n=10, seed=1.5),
        dict(k=2, z=1, n=10, eps=float("nan")),
        dict(k=2, z=1, n=10, eps=float("inf")),
        # 200 + 100 wraps to 44 in uint8 arithmetic.
        dict(k=np.uint8(200), z=np.uint8(100), n=250),
    ):
        with pytest.raises(ValueError):
            ParamSet(**kwargs)
    # Past the float range the message stays short and names the count.
    with pytest.raises(ValueError, match=r"^seed must lie in \[0, 18446744073709551615\] and be an integer, got 1\.000e\+400$"):
        ParamSet(k=2, z=1, n=10, seed=10**400)
    assert ParamSet(k=2, z=3, n=30).gamma == pytest.approx(0.1)
    p = ParamSet(k=np.int64(2), z=np.int32(1), n=np.uint16(10), seed=np.int64(3))
    assert [(type(v), v) for v in (p.k, p.z, p.n, p.seed)] == [(int, 2), (int, 1), (int, 10), (int, 3)]


def test_centerset_validation():
    cs = CenterSet((4, 1, 7), (1, 1, 2))
    assert len(cs) == 3 and list(cs) == [4, 1, 7]
    with pytest.raises(ValueError):
        CenterSet((1, 1), (1, 2))
    with pytest.raises(ValueError):
        CenterSet((1, 2), (2, 1))
    with pytest.raises(ValueError, match="equal length"):
        CenterSet((0, 1), (1,))
    # as_array() would truncate or wrap each of these.
    for indices, rounds in (((1.5,), (1,)), ((True,), (1,)), ((-1,), (1,)), ((1,), (1.0,)), ((1,), (False,))):
        with pytest.raises(ValueError, match="integers"):
            CenterSet(indices, rounds)


def test_relaxed_exclusion_counts():
    # (1 + 0.1) * 10 rounds up to 11.000000000000002 in float; the count
    # must still be 11.
    assert relaxed_exclusions(10, 0.1) == 11
    assert relaxed_exclusions(0, 2.0) == 0
    assert relaxed_exclusions(3, 1.0) == 6
    assert ceil_count(2.0) == 2
    with pytest.raises(ValueError):
        ceil_count(float("nan"))
    with pytest.raises(ValueError, match="non-negative"):
        relaxed_exclusions(1, -0.5)


def test_cost_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(4, 14))
        ps = random_ps(rng, n)
        pts = [tuple(row) for row in ps.coords]
        k = int(rng.integers(1, 4))
        centers = sorted(rng.choice(n, size=k, replace=False).tolist())
        z = int(rng.integers(0, 3))
        eps = float(rng.choice([0.0, 0.5, 1.0]))
        if oracles.exclusion_count(z, eps) >= n:
            continue
        got = cost_radius(ps, centers, z, eps)
        assert got == pytest.approx(oracles.naive_cost(pts, centers, z, eps), rel=1e-12)


def test_boundary_tie_excludes_lower_index():
    ps = line_ps([0.0, 1.0, 3.0, 3.0])
    ev = clustering_cost(ps, [0], z=1, eps=0.0)
    assert ev.excluded == frozenset({2})
    assert ev.radius == 3.0
    ev2 = clustering_cost(ps, [0], z=2, eps=0.0)
    assert ev2.excluded == frozenset({2, 3})
    assert ev2.radius == 1.0


def test_cost_rejects_total_exclusion():
    ps = line_ps([0.0, 1.0])
    with pytest.raises(ValueError):
        clustering_cost(ps, [0], z=1, eps=1.0)


def test_costs_reject_empty_and_out_of_range_centers():
    ps = line_ps([0.0, 1.0, 5.0])
    for centers in (CenterSet((), ()), [], [-1], [0, 3]):
        with pytest.raises(ValueError, match="center"):
            clustering_cost(ps, centers, 1)
        with pytest.raises(ValueError, match="center"):
            weighted_cost(ps, [0, 1, 2], [1, 1, 1], centers, 1)


@pytest.mark.parametrize("centers", [[1.7], np.array([1.0]), [True], np.array([False, True])])
def test_costs_reject_non_integer_centers(centers):
    # Each would be cast to a valid index and evaluated silently.
    ps = line_ps([0.0, 1.0, 5.0])
    with pytest.raises(ValueError, match="integers"):
        clustering_cost(ps, centers, 1)
    with pytest.raises(ValueError, match="integers"):
        weighted_cost(ps, [0, 1, 2], [1, 1, 1], centers, 1)


@pytest.mark.parametrize("points", [[-1, 0], [0, 3], [0.0, 1.0]])
def test_weighted_cost_checks_point_indices(points):
    ps = line_ps([0.0, 1.0, 5.0])
    with pytest.raises(ValueError, match="point indices"):
        weighted_cost(ps, points, [1, 1], [0], 0)


def _coreset_over(ps, idx):
    # Weights align with idx and add up to n, so only the index rule objects.
    w = np.ones(np.shape(idx), dtype=np.int64)
    w.flat[:1] += ps.n - w.sum()
    return WeightedCoreset(indices=idx, weights=w, source_n=ps.n)


def _shards_around(ps, idx):
    # The other shard holds every point that idx, cast to intp, would miss,
    # so only the index rule objects.
    rest = np.setdiff1d(np.arange(ps.n), np.asarray(idx).astype(np.intp).ravel() % ps.n)
    return ShardedInstance(ps, (idx, rest) if rest.size else (idx,))


def _host_returns(ps, idx):
    return compose_with_host(_coreset_over(ps, np.arange(ps.n)), ps, ParamSet(k=1, z=0, n=ps.n), lambda *_: idx)


GATED = {
    "subset": lambda ps, idx: ps.subset(idx),
    "cross_dists_rows": lambda ps, idx: ps.cross_dists(idx, [0]),
    "cross_dists_cols": lambda ps, idx: ps.cross_dists([0], idx),
    "dist_first": lambda ps, i: ps.dist(i, 0),
    "dist_second": lambda ps, i: ps.dist(0, i),
    "dists_from": lambda ps, i: ps.dists_from(i),
    "dists_from_unrooted": lambda ps, i: ps.dists_from(i, root=False),
    "nearest_dists_rows": lambda ps, idx: ps.nearest_dists(idx, [0]),
    "nearest_dists_cols": lambda ps, idx: ps.nearest_dists([0], idx),
    "coreset_indices": _coreset_over,
    "shard": _shards_around,
    "host_picks": _host_returns,
    "clustering_cost": lambda ps, idx: clustering_cost(ps, idx, 0),
    "weighted_cost_points": lambda ps, idx: weighted_cost(ps, idx, np.ones(np.shape(idx)), [0], 0),
    "weighted_cost_centers": lambda ps, idx: weighted_cost(ps, [0, 1, 2], [1, 1, 1], idx, 0),
}
SCALAR_ENTRIES = {"dist_first", "dist_second", "dists_from", "dists_from_unrooted"}
BAD_INDICES = {
    "negative": -1,
    "n": 3,
    "fraction": 1.5,
    "bool_array": np.array([False, True]),
    "empty": [],
    "two_dim": [[0, 1]],
}


@pytest.mark.parametrize("mode", ["euclidean", "matrix"])
@pytest.mark.parametrize("bad", BAD_INDICES)
@pytest.mark.parametrize("entry", GATED)
def test_every_index_entry_point_rejects_bad_indices(entry, bad, mode):
    # Each was cast, wrapped or truncated to a valid-looking index somewhere.
    ps = line_ps([0.0, 1.0, 5.0])
    if mode == "matrix":
        ps = PointSet.from_distance_matrix(np.abs(np.subtract.outer(ps.coords[:, 0], ps.coords[:, 0])))
    idx = BAD_INDICES[bad]
    if entry not in SCALAR_ENTRIES and np.isscalar(idx):
        idx = [idx]
    with pytest.raises(ValueError):
        GATED[entry](ps, idx)


def test_one_cost_call_makes_one_pass_per_center():
    ps = random_ps(np.random.default_rng(3), 40)
    before = ps.stats.evals
    ev = clustering_cost(ps, CenterSet((5, 17, 30), (1, 1, 2)), 4, 1.0)
    assert ps.stats.evals - before == 40 * 3
    assert ev.relaxed <= ev.radius


def test_weighted_cost_straddling_point():
    ps = line_ps([0.0, 5.0, 4.0, 1.0])
    r = weighted_cost(ps, [1, 2, 3], [1, 2, 3], [0], z=2)
    assert r == 4.0


def test_weighted_cost_matches_unit_expansion():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        ps = random_ps(rng, n)
        pts = [tuple(row) for row in ps.coords]
        weights = rng.integers(1, 5, size=n - 1)
        centers = [int(rng.integers(0, n))]
        z = int(rng.integers(0, int(weights.sum())))
        dists = oracles.nearest_dists(pts, centers)
        expect, _ = oracles.weighted_peel([dists[i] for i in range(1, n)], weights.tolist(), z)
        got = weighted_cost(ps, list(range(1, n)), weights, centers, z)
        assert got == pytest.approx(expect, rel=1e-12)


def _rounding_weights():
    # The seventh draw: its running sum ends one ulp below its pairwise sum.
    rng = np.random.default_rng(0)
    for _ in range(7):
        w = rng.uniform(0.1, 1.0, 9)
    assert np.cumsum(w)[-1] < w.sum()
    return w


def test_unit_weight_peel_equals_the_peel_oracle_on_tie_heavy_rows():
    # Unit weights take a partition, not the stable sort: on batches and
    # single rows with few distinct distances, integer and fractional z,
    # the straddler and the count peeled whole match the oracle and the
    # sorted peel of doubled weights and budget.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        d = rng.integers(0, 4, (int(rng.integers(1, 6)), n)).astype(float)
        rows = d if seed % 2 else d[0]
        z = float(rng.integers(0, n)) + float(rng.choice([0.0, 0.25, 0.5, 0.999]))
        radius, whole = peel_weight(rows, np.ones(n), z)
        sorted_radius, sorted_whole = peel_weight(rows, np.full(n, 2.0), 2 * z)
        assert radius.shape == sorted_radius.shape and whole.shape == sorted_whole.shape
        assert radius.tobytes() == sorted_radius.tobytes() and whole.tolist() == sorted_whole.tolist()
        for row, r, w in zip(np.atleast_2d(rows), np.atleast_1d(radius), np.atleast_1d(whole)):
            want, peeled = oracles.weighted_peel(row.tolist(), [1] * n, z)
            assert (r, w) == (want, len(peeled))


def test_peel_straddler_is_the_last_point_when_the_running_sum_rounds_down():
    # Equal distances make the peel order the index order.
    w = _rounding_weights()
    z = float(np.cumsum(w)[-1])
    radius, whole = peel_weight(np.full((2, 9), 3.0), w, z)
    assert radius.tolist() == [3.0, 3.0]
    assert whole.tolist() == [8, 8]
    ps = PointSet.from_distance_matrix(np.ones((10, 10)) - np.eye(10))
    assert weighted_cost(ps, range(1, 10), w, [0], z) == 1.0


def test_weighted_cost_validates():
    ps = line_ps([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_cost(ps, [1, 2], [1.0], [0], z=0)
    with pytest.raises(ValueError):
        weighted_cost(ps, [1, 2], [1, -1], [0], z=0)
    with pytest.raises(ValueError):
        weighted_cost(ps, [1, 2], [1, 1], [0], z=2)


@pytest.mark.parametrize(
    ("weights", "z"),
    [
        ([1.0, math.nan], 0),
        ([1.0, math.inf], 0),
        ([1.0, 1.0], -1),
        ([1.0, 1.0], math.nan),
        ([1.0, 1.0], math.inf),
    ],
)
def test_weighted_cost_rejects_non_finite_weights_and_bad_budgets(weights, z):
    ps = line_ps([0.0, 1.0, 2.0, 5.0])
    with pytest.raises(ValueError, match="finite"):
        weighted_cost(ps, [1, 3], weights, [0], z=z)


coords_strategy = st.lists(
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    min_size=3,
    max_size=12,
    unique=True,
)


@settings(max_examples=60, deadline=None)
@given(coords=coords_strategy, data=st.data())
def test_phi_monotone_in_relaxation(coords, data):
    ps = PointSet.from_coords(np.asarray(coords, dtype=np.float64))
    k = data.draw(st.integers(1, min(3, ps.n - 1)))
    centers = data.draw(
        st.lists(st.integers(0, ps.n - 1), min_size=k, max_size=k, unique=True)
    )
    z = data.draw(st.integers(0, 1))
    lo, hi = sorted(
        [data.draw(st.floats(0.0, 2.0)), data.draw(st.floats(0.0, 2.0))]
    )
    if oracles.exclusion_count(z, hi) >= ps.n:
        return
    assert cost_radius(ps, centers, z, hi) <= cost_radius(ps, centers, z, lo)


@settings(max_examples=60, deadline=None)
@given(coords=coords_strategy, data=st.data())
def test_excluded_set_matches_sort_oracle(coords, data):
    # Integer coordinates make equal distances, and so ties at the cut, common.
    ps = PointSet.from_coords(np.asarray(coords, dtype=np.float64))
    pts = [tuple(row) for row in ps.coords]
    k = data.draw(st.integers(1, min(3, ps.n - 1)))
    centers = data.draw(st.lists(st.integers(0, ps.n - 1), min_size=k, max_size=k, unique=True))
    z = data.draw(st.integers(0, (ps.n - 1) // 2))
    eps = data.draw(st.sampled_from([0.0, 1.0]))
    m = oracles.exclusion_count(z, eps)
    ev = clustering_cost(ps, centers, z, eps)
    assert ev.excluded == set(oracles.farthest_by_sort(oracles.nearest_dists(pts, centers), z))
    assert ev.radius == pytest.approx(oracles.cost_excluding(pts, centers, z), rel=1e-12)
    assert ev.relaxed == pytest.approx(oracles.cost_excluding(pts, centers, m), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(coords=coords_strategy, data=st.data())
def test_phi_never_grows_with_more_centers(coords, data):
    ps = PointSet.from_coords(np.asarray(coords, dtype=np.float64))
    base = data.draw(st.lists(st.integers(0, ps.n - 1), min_size=1, max_size=2, unique=True))
    extra = data.draw(st.integers(0, ps.n - 1))
    grown = base if extra in base else base + [extra]
    assert cost_radius(ps, grown, 0, 0.0) <= cost_radius(ps, base, 0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    dists=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=20),
    data=st.data(),
)
def test_farthest_m_matches_sort_oracle(dists, data):
    m = data.draw(st.integers(1, len(dists)))
    arr = np.asarray(dists, dtype=np.float64)
    got = farthest_m(arr, m)
    assert got.tolist() == oracles.farthest_by_sort(dists, m)


@settings(max_examples=100, deadline=None)
@given(dists=st.lists(st.integers(0, 3), min_size=1, max_size=40), data=st.data())
def test_farthest_m_matches_sort_oracle_on_ties(dists, data):
    # Four distinct values over up to 40 points: ties straddle most cuts.
    m = data.draw(st.integers(1, len(dists)))
    got = farthest_m(np.asarray(dists, dtype=np.float64), m)
    assert got.dtype == np.intp
    assert got.tolist() == oracles.farthest_by_sort(dists, m)


@pytest.mark.parametrize("count", [2.0, np.float64(1.0), True, np.True_, -1, "1"])
def test_selection_helpers_reject_non_integer_and_negative_counts(count):
    d = np.array([3.0, 1.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="integer"):
        farthest_m(d, count)
    with pytest.raises(ValueError, match="integer"):
        radius_after_exclusions(d, count)
    assert farthest_m(d, np.int64(2)).tolist() == [0, 2]
    assert radius_after_exclusions(d, np.uint8(1)) == 2.0


def test_tracker_pass_peaks_within_one_row_plus_one_chunk():
    # At 100,000 x 8 points each insert holds one n-length row plus the
    # kernel's 2**17-double slab, never a second coordinate copy or a
    # D x n slab.
    ps = PointSet.from_coords(np.random.default_rng(0).standard_normal((100_000, 8)))
    tracker = NearestTracker(ps)
    tracemalloc.start()
    try:
        for c in range(16):
            tracker.add_center(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ps.n * 8 + (1 << 20) + (1 << 17)
    assert ps.stats.evals == 16 * ps.n and set(tracker.owner.tolist()) == set(range(16))


def test_filtered_inserts_peak_within_the_same_bound(monkeypatch):
    # Past the first few inserts few keys fall, and the candidate filter
    # holds its product row, the candidate indices and one gathered block.
    ps = PointSet.from_coords(np.random.default_rng(0).standard_normal((100_000, 8)))
    tracker, calls, kernel = NearestTracker(ps), [], core.euclidean_dists
    monkeypatch.setattr(core, "euclidean_dists", lambda *a, **k: calls.append(a) or kernel(*a, **k))
    tracemalloc.start()
    try:
        for c in range(64):
            tracker.add_center(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ps.n * 8 + (1 << 20) + (1 << 17)
    assert len(calls) < 32 and ps.stats.evals == 64 * ps.n


@settings(max_examples=40, deadline=None)
@given(coords=coords_strategy, data=st.data())
def test_tracker_matches_naive_min(coords, data):
    ps = PointSet.from_coords(np.asarray(coords, dtype=np.float64))
    k = data.draw(st.integers(1, min(3, ps.n)))
    centers = data.draw(st.lists(st.integers(0, ps.n - 1), min_size=k, max_size=k, unique=True))
    tracker = NearestTracker(ps)
    for c in centers:
        tracker.add_center(c)
    naive = oracles.nearest_dists([tuple(r) for r in ps.coords], centers)
    assert np.allclose(tracker.mindist, naive, rtol=1e-12, atol=0)
    for i, owner in enumerate(tracker.owner.tolist()):
        assert owner in centers
        assert ps.coords[i] is not None


def test_tracker_owner_keeps_first_on_ties():
    ps = line_ps([0.0, 2.0, 1.0])
    tracker = NearestTracker(ps)
    tracker.add_center(0)
    tracker.add_center(1)
    # point 2 is 1.0 from both centers; the earlier center keeps it
    assert tracker.owner[2] == 0


def _root_collision():
    # Points on a circle of radius 1.5 about the origin: their squared norms
    # lie within a few ulps of 2.25, where a square's ulp is about 1.5 of its
    # root's, so some distinct squares share a root.
    theta = np.random.default_rng(2024).uniform(0.0, 2.0 * np.pi, 4_000)
    pts = 1.5 * np.column_stack([np.cos(theta), np.sin(theta)])
    sq = (pts**2).sum(-1)
    order = np.argsort(sq, kind="stable")
    for hi, lo in zip(order[1:], order[:-1]):
        if sq[hi] > sq[lo] and np.sqrt(sq[hi]) == np.sqrt(sq[lo]):
            return pts[hi], pts[lo]
    raise AssertionError("no root collision on the circle")


@pytest.mark.parametrize("fillers", [0, 30])
def test_tracker_keeps_the_earlier_center_when_distinct_squares_share_a_root(fillers):
    # Point 0 is the origin, center 1 is farther from it than center 2 in
    # squares but not in roots.  Fillers stacked on center 1 keep center 2's
    # insert below an eighth of the row, so it takes the candidate update;
    # without them it takes the whole-row update.
    far, near = _root_collision()
    ps = PointSet.from_coords(np.vstack([np.zeros(2), far, near] + [far] * fillers))
    tracker, ref = NearestTracker(ps), oracles.OneAtATimeTracker(ps)
    for c in (1, 2):
        tracker.add_center(c)
        ref.add_center(c)
    squares = ps.dists_from(0, root=False)
    assert squares[1] > squares[2] and np.sqrt(squares[1]) == np.sqrt(squares[2])
    assert tracker.owner[0] == 1
    assert tracker.mindist.tobytes() == np.array(ref.mindist).tobytes()
    assert tracker.owner.tolist() == ref.owner
    assert np.sqrt(tracker.keys).tobytes() == tracker.mindist.tobytes()


@pytest.mark.parametrize("mode", ["euclidean", "matrix"])
def test_tracker_matches_the_one_center_oracle_on_both_update_paths(mode):
    # Integer grid points give tied and duplicate distances, normal points
    # distinct ones.
    rng = np.random.default_rng(11)
    coords = np.vstack([rng.integers(0, 12, size=(300, 2)), rng.normal(5.0, 3.0, size=(300, 2))])
    ps = PointSet.from_coords(coords)
    if mode == "matrix":
        ps = PointSet.from_distance_matrix(ps.cross_dists(np.arange(ps.n), np.arange(ps.n)))
    tracker, ref = NearestTracker(ps), oracles.OneAtATimeTracker(ps)
    whole_row = []
    for c in rng.choice(ps.n, size=60, replace=False).tolist():
        whole_row.append(8 * np.count_nonzero(ps.dists_from(c, root=False) < tracker.keys) > ps.n)
        tracker.add_center(c)
        ref.add_center(c)
        assert tracker.mindist.tobytes() == np.array(ref.mindist).tobytes()
        assert tracker.owner.tolist() == ref.owner
    assert any(whole_row) and not all(whole_row)


def _assert_matches_whole_rows(ps, tracker, centers):
    # mindist and owner from one rooted row per center, keys from the
    # elementwise minimum of the unrooted rows, none of them filtered.
    ref = oracles.OneAtATimeTracker(ps)
    for c in centers:
        ref.add_center(c)
    keys = np.minimum.reduce([ps.dists_from(c, root=False) for c in centers])
    assert tracker.mindist.tobytes() == np.array(ref.mindist).tobytes()
    assert tracker.owner.tolist() == ref.owner
    assert tracker.keys.tobytes() == keys.tobytes()


def _pinned(top):
    # Uniform coordinates whose largest magnitude is exactly ``top(d)``.
    def make(rng, n, d):
        x = top(d) * rng.uniform(-1, 1, (n, d))
        x[0, 0] = top(d)
        return x

    return make


def _tiny(rng, n, d):
    return 10.0 ** rng.uniform(-162, -161, (n, d)) * rng.choice([-1.0, 1.0], (n, d))


_FILTER_CASES = {
    "grid ties": lambda rng, n, d: rng.integers(-2, 3, (n, d)).astype(float),
    # Every point is a candidate, so each insert takes the whole row.
    "offset 1e8": lambda rng, n, d: 1e8 + rng.standard_normal((n, d)),
    "at the coordinate limit": _pinned(core._max_coordinate),
    "at 1e150": _pinned(lambda d: 1e150),
    # Magnitudes of 1e-162 to 1e-161, whose squares are subnormal.  Alone,
    # every such point is a candidate through the floor; beside unit-scale
    # points, the filter drops some of them.
    "about 1e-161": lambda rng, n, d: _tiny(rng, n, d),
    "about 1e-161 beside 1": lambda rng, n, d: np.where(rng.random((n, 1)) < 0.5, _tiny(rng, n, d), rng.uniform(-3, 3, (n, d))),
}


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(sorted(_FILTER_CASES)),
    # Below the switch, at it, the benchmark's D and past _sum_axes' split.
    dim=st.sampled_from([core._GRAM_MIN_DIM - 1, core._GRAM_MIN_DIM, 8, 137]),
    n=st.integers(2, 120),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_filtered_tracker_is_bit_equal_to_whole_rows(case, dim, n, seed, data):
    rng = np.random.default_rng(seed)
    ps = PointSet.from_coords(_FILTER_CASES[case](rng, n, dim))
    centers = rng.permutation(n)[: data.draw(st.integers(1, n))].tolist()
    tracker = NearestTracker(ps)
    for c in centers:
        tracker.add_center(c)
    _assert_matches_whole_rows(ps, tracker, centers)


@pytest.mark.parametrize(
    ("dim", "scale", "filtered"),
    [(core._GRAM_MIN_DIM - 1, 1.0, False), (core._GRAM_MIN_DIM, 1.0, True), (8, 1e150, True), (8, 2e150, True)],
)
def test_filter_runs_only_on_enough_axes_below_the_cutoff(monkeypatch, dim, scale, filtered):
    # Whole-row inserts go through the kernel; filtered ones only gather
    # their candidates.  The largest |coordinate| is exactly ``scale``; the
    # filter runs at every magnitude from_coords admits.
    rng = np.random.default_rng(5)
    coords = rng.standard_normal((2000, dim)) * (scale / 16)
    coords[0, 0] = scale
    ps = PointSet.from_coords(coords)
    tracker, calls, kernel = NearestTracker(ps), [], core.euclidean_dists
    monkeypatch.setattr(core, "euclidean_dists", lambda *a, **k: calls.append(a) or kernel(*a, **k))
    centers = [1]
    for _ in range(40):
        tracker.add_center(centers[-1])
        centers.append(int(tracker.mindist.argmax()))
    assert ps.stats.evals == 40 * ps.n
    assert (len(calls) < 40) == filtered and len(calls) >= 1
    _assert_matches_whole_rows(ps, tracker, centers[:-1])


def test_candidates_past_one_kernel_chunk_are_bit_equal_to_whole_rows(monkeypatch):
    # At D=137 a kernel chunk holds 2**17 // 137 = 956 points.  A far center
    # goes in first; the second sits in a group of 1,500 points 1,000 away,
    # whose keys all fall, so its insert gathers the group's columns in two
    # chunks and stays below the n/8 switch to the whole row.
    dim, group, n = 137, 1_500, 13_000
    coords = 0.01 * np.random.default_rng(137).standard_normal((n, dim))
    coords[n - group :, 0] += 1000.0
    ps = PointSet.from_coords(coords)
    tracker, calls, kernel = NearestTracker(ps), [], core.euclidean_dists
    tracker.add_center(0)
    monkeypatch.setattr(core, "euclidean_dists", lambda *a, **k: calls.append(a) or kernel(*a, **k))
    tracker.add_center(n - 1)
    assert (1 << 17) // dim < group <= n // 8
    assert not calls and ps.stats.evals == 2 * n
    assert np.count_nonzero(tracker.owner == n - 1) == group
    _assert_matches_whole_rows(ps, tracker, [0, n - 1])


@pytest.mark.parametrize("dim", [2, 8])
def test_first_insert_skips_the_filter(monkeypatch, dim):
    # A fresh tracker's keys are all infinite, so every point would be a
    # candidate: its first insert asks for the whole row, later ones filter.
    ps = PointSet.from_coords(np.random.default_rng(dim).standard_normal((500, dim)))
    tracker, seen, dists_from = NearestTracker(ps), [], PointSet.dists_from

    def recording(self, i, root=True, below=None, found=None, **kw):
        seen.append(below)
        return dists_from(self, i, root, below, found, **kw)

    monkeypatch.setattr(PointSet, "dists_from", recording)
    centers = [3, 70, 141, 212]
    for c in centers:
        tracker.add_center(c)
    assert seen[0] is None and all(b is tracker.keys for b in seen[1:]) and len(seen) == 4
    _assert_matches_whole_rows(ps, tracker, centers)


@dataclasses.dataclass(frozen=True, eq=False)
class _RecordingPointSet(PointSet):
    # Records each filtered pass (one handed a gap): its pick, the thresholds
    # and gap it was handed, what it put in found, and the row it returned.
    passes: list = dataclasses.field(default_factory=list)

    def dists_from(self, i, root=True, below=None, found=None, **kw):
        handed = None if kw.get("gap") is None else (below.copy(), kw["gap"].copy())
        d = super().dists_from(i, root, below, found, **kw)
        if handed is not None:
            self.passes.append((i, *handed, list(found), d.copy()))
        return d


def _check_row(ps, c, below, d):
    # The row a pass from c returns against thresholds ``below``: each entry
    # holds its exact key K', or, where the filter runs, its q = fl(p + t)
    # with fl(below - s_x) <= q < fl(K' - s_x), and within 3 tol S + 2F of
    # fl(K' - s_x), where the _gap_filter proof puts q within
    # (8D + 28)u S + F(1 + 2u).  Returns whether every entry is exact.
    key = ps.dists_from(c, root=False)
    rest = d != key
    if rest.any():
        s_x = ps._gram_norms
        assert s_x is not None  # only the filter leaves entries that are not keys
        norms, tol = euclidean_dists(ps.coords, np.zeros(ps.dim), False), (4 * ps.dim + 16) * 2.0**-53
        q, top = d[rest], (key - s_x)[rest]
        assert ((below - s_x)[rest] <= q).all() and (q < top).all()
        assert (q >= top - 3 * tol * (norms + norms[c])[rest] - 2 * core._GRAM_FLOOR).all()
    return not rest.any()


def _check_passes(ps, passes):
    # Each recorded pass was handed gap = fl(keys - s_x) bit for bit, put in
    # found exactly the points whose keys fell when at most n/8 did, and
    # returned a row as _check_row states.  Returns which passes returned the
    # whole row (True) or kept some q (False).
    whole_row = set()
    for c, below, gap, found, d in passes:
        assert gap.tobytes() == (below - ps._gram_norms).tobytes()
        fell = np.flatnonzero(ps.dists_from(c, root=False) < below)
        assert [f.tolist() for f in found] == ([fell.tolist()] if 8 * fell.size <= ps.n else [])
        whole_row.add(_check_row(ps, c, below, d))
    return whole_row


def _check_round_inserts(coords, rounds):
    # Each round through add_centers leaves keys, mindist and owner equal to
    # one add_center per pick, and to whole rows, and every filtered pass
    # meets _check_passes.  Returns which passes ran: the whole row (True)
    # or the filter (False).
    ps, rec = PointSet.from_coords(coords), _RecordingPointSet.from_coords(coords)
    batched, single = NearestTracker(rec), NearestTracker(ps)
    for picks in rounds:
        batched.add_centers(picks)
        for c in picks:
            single.add_center(c)
        for name in ("keys", "mindist", "owner"):
            assert np.array_equal(getattr(batched, name), getattr(single, name))
    assert rec.stats.evals == ps.stats.evals == sum(map(len, rounds)) * ps.n
    _assert_matches_whole_rows(ps, batched, [c for picks in rounds for c in picks])
    return _check_passes(ps, rec.passes)


@settings(max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([4, 5, 8, 9, 16]),
    # At 2**-540 every summed square is 0 or subnormal, so the floor decides the bounds.
    scale=st.sampled_from([1.0, 2.0**-540]),
    n=st.integers(2, 160),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_round_inserts_are_bit_equal_to_single_inserts(dim, scale, n, seed, data):
    # Grid points drawn with repeats from half as many, the origin among them:
    # tied keys, duplicate points and keys of exactly 0.
    rng = np.random.default_rng(seed)
    base = rng.integers(-2, 3, (max(1, n // 2), dim))
    base[0] = 0
    picks = st.lists(st.integers(0, n - 1), min_size=1, max_size=core._GRAM_ROWS + 1)
    _check_round_inserts(scale * base[rng.integers(0, base.shape[0], n)], data.draw(st.lists(picks, min_size=1, max_size=8)))


@pytest.mark.parametrize("dim", [4, 5, 8, 9, 16])
def test_round_inserts_take_both_sides_of_the_switch(dim):
    # The first round starts an empty tracker; candidates pass n/8 in the
    # early rounds and stay below it later.
    rng = np.random.default_rng(dim)
    coords = rng.integers(-2, 3, (300, dim))[rng.integers(0, 300, 600)]
    centers = rng.permutation(600)[: 12 * (core._GRAM_ROWS + 1)].tolist()
    rounds = [centers[s : s + core._GRAM_ROWS + 1] for s in range(0, len(centers), core._GRAM_ROWS + 1)]
    assert _check_round_inserts(coords, rounds) == {True, False}


def _far_first(rng, n, d):
    # Unit-scale points and point 0 a million away, inserted first: every key
    # starts far above the S of the picks that follow.
    x = rng.uniform(-1, 1, (n, d))
    x[0] = 1e6
    return x


def _grid_repeats(rng, n, d):
    # Grid points drawn with repeats from half as many: tied keys and duplicates.
    base = rng.integers(-2, 3, (max(1, n // 2), d))
    return base[rng.integers(0, base.shape[0], n)].astype(float)


_GAP_CASES = {
    "keys far above S": _far_first,
    "at the coordinate limit": _pinned(core._max_coordinate),
    # A tenth of the points on a grid at 2**-540, whose summed squares are 0
    # or subnormal, so the floor decides their test; the rest at unit scale,
    # so the filter drops some points on every insert.
    "grid at 2**-540 beside 1": lambda rng, n, d: np.where(
        rng.random((n, 1)) < 0.1, 2.0**-540 * rng.integers(-40, 41, (n, d)), rng.uniform(-3, 3, (n, d))
    ),
    "grid with repeats": _grid_repeats,
}


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(sorted(_GAP_CASES)),
    dim=st.sampled_from([4, 5, 8, 16]),
    n=st.integers(2, 120),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_gap_filter_is_exact_at_its_edges(case, dim, n, seed, data):
    # Single picks and rounds from point 0 on: after every round the gap is
    # fl(keys - s_x) bit for bit; at the end keys, mindist and owner equal
    # whole rows, and every filtered pass found exactly the points that fell.
    rng = np.random.default_rng(seed)
    ps = _RecordingPointSet.from_coords(_GAP_CASES[case](rng, n, dim))
    centers = [0, *rng.permutation(np.arange(1, n))[: data.draw(st.integers(0, n - 1))].tolist()]
    tracker = NearestTracker(ps)
    s = 0
    while s < len(centers):
        size = data.draw(st.integers(1, core._GRAM_ROWS + 1))
        tracker.add_centers(centers[s : s + size])
        s += size
        assert tracker.gap.tobytes() == (tracker.keys - ps._gram_norms).tobytes()
    _assert_matches_whole_rows(ps, tracker, centers)
    _check_passes(ps, ps.passes)


def test_round_inserts_peak_within_the_single_bound_plus_one_block():
    # A round holds one block of at most _GRAM_ROWS product rows beside what a
    # single insert holds, also through a whole-row pass.
    ps = PointSet.from_coords(np.random.default_rng(0).standard_normal((100_000, 8)))
    tracker = NearestTracker(ps)
    rounds = [range(s, s + core._GRAM_ROWS + 1) for s in range(0, 65, core._GRAM_ROWS + 1)]
    tracemalloc.start()
    try:
        for picks in rounds:
            tracker.add_centers(picks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (core._GRAM_ROWS + 1) * ps.n * 8 + (1 << 20) + (1 << 17)
    assert ps.stats.evals == 65 * ps.n and set(tracker.owner.tolist()) <= set(range(65))


def test_round_inserts_check_their_picks():
    # A group that shares a product is checked before the product; a lone
    # pick, as dists_from checks it.
    ps = PointSet.from_coords(np.random.default_rng(3).standard_normal((50, 8)))
    tracker = NearestTracker(ps)
    tracker.add_centers([])
    assert not tracker.held
    tracker.add_centers([0])
    for bad in ([1, 50], [1, -1], [1, 1.0], [50], [True]):
        with pytest.raises(ValueError, match="point ind"):
            tracker.add_centers(bad)
    assert ps.stats.evals == ps.n
    with pytest.raises(ValueError, match="product"):
        ps.dists_from(0, product=np.zeros(ps.n))



@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(["euclidean", "matrix"]),
    dim=st.sampled_from([2, 8]),
    grid=st.booleans(),
    n=st.integers(2, 80),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_found_holds_exactly_the_points_that_fell(mode, dim, grid, n, seed, data):
    # Thresholds from a real tracker; at D=8 the filter runs on coordinates.
    rng = np.random.default_rng(seed)
    coords = rng.integers(-2, 3, (n, dim)).astype(float) if grid else rng.standard_normal((n, dim))
    ps = PointSet.from_coords(coords)
    if mode == "matrix":
        ps = PointSet.from_distance_matrix(ps.cross_dists(np.arange(n), np.arange(n)))
    tracker, centers = NearestTracker(ps), rng.permutation(n)[: data.draw(st.integers(1, n - 1))].tolist()
    for c in centers:
        tracker.add_center(c)
    below = tracker.keys.copy()
    # A center already held ties its own points: candidates that do not fall.
    c = data.draw(st.sampled_from(centers) | st.integers(0, n - 1))
    whole, found = ps.dists_from(c, root=False), []
    got = ps.dists_from(c, root=False, below=below, found=found)
    fell = np.flatnonzero(whole < below)
    if 8 * fell.size <= n:
        assert len(found) == 1 and found[0].tolist() == fell.tolist()
    else:
        assert found == []
    assert np.flatnonzero((got == whole) & (got < below)).tolist() == fell.tolist()
    assert got[fell].tobytes() == whole[fell].tobytes()
    _check_row(ps, c, below, got)


@pytest.mark.parametrize("mode", ["euclidean", "matrix"])
def test_below_without_found_raises(mode):
    ps = PointSet.from_coords(np.random.default_rng(4).standard_normal((40, 8)))
    if mode == "matrix":
        ps = PointSet.from_distance_matrix(ps.cross_dists(np.arange(ps.n), np.arange(ps.n)))
    with pytest.raises(ValueError, match="found"):
        ps.dists_from(0, root=False, below=np.full(ps.n, np.inf))
    assert ps.stats.evals == 0


def test_norms_are_built_once_per_point_set(monkeypatch):
    # The first tracker builds the filter's norms with one kernel call; a
    # second tracker on the same point set reuses them.
    ps = PointSet.from_coords(np.random.default_rng(8).standard_normal((500, 8)))
    calls, kernel = [], core.euclidean_dists
    monkeypatch.setattr(core, "euclidean_dists", lambda *a, **k: calls.append(a) or kernel(*a, **k))
    first = NearestTracker(ps)
    first.add_center(0)
    assert len(calls) == 2  # the norms, then the first insert's whole row
    second = NearestTracker(ps)
    second.add_center(0)
    assert len(calls) == 3
    assert first.keys.tobytes() == second.keys.tobytes()
    assert "_gram_norms" not in repr(ps) and ps.content_hash() == PointSet.from_coords(ps.coords).content_hash()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 60), unique=st.booleans(), full=st.booleans(), data=st.data())
def test_distinct_checks_agree_with_np_unique(n, unique, full, data):
    # Index vectors drawn with and without repeats: the sort-based check of
    # the index rule and of the shard partition agrees with np.unique.
    size = n if full else data.draw(st.integers(1, n))
    values = data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=unique))
    idx = np.asarray(values, dtype=np.intp)
    distinct = np.unique(idx).size == idx.size
    assert core._all_distinct(idx) is distinct
    if distinct:
        assert core._point_indices(idx, n, distinct=True).tolist() == values
    else:
        with pytest.raises(ValueError, match="must be distinct"):
            core._point_indices(idx, n, distinct=True)
    if size == n:
        cut = data.draw(st.integers(1, n))
        shards = [values[:cut], values[cut:]] if cut < n else [values]
        if distinct:
            assert [s.tolist() for s in _partition(shards, n)] == [sorted(s) for s in shards]
        else:
            with pytest.raises(ValueError, match="shards must partition"):
                _partition(shards, n)


@pytest.mark.parametrize("values", [[2.0], [3.0, 1.0, 3.0, 0.5], [1.0, 1.0, 1.0], [0.0, 4.0]])
def test_selection_helpers_at_their_ends_match_the_sort_oracles(values):
    # m = n in farthest_m and m = 0 in radius_after_exclusions take the
    # general partition path.
    d = np.asarray(values)
    assert farthest_m(d, d.size).tolist() == oracles.farthest_by_sort(values, d.size)
    pts = [(0.0,)] + [(v,) for v in values]
    assert radius_after_exclusions(np.array([0.0, *values]), 0) == oracles.cost_excluding(pts, [0], 0)

def test_csv_loaders(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0.0,0.0\n1.5,2.0\n\n3.0,4.0\n")
    ps = load_points_csv(path)
    assert ps.n == 3 and ps.dim == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0\n2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_points_csv(bad)
    nan = tmp_path / "nan.csv"
    nan.write_text("0.0,nan\n1.0,2.0\n")
    with pytest.raises(ValueError):
        load_points_csv(nan)
    word = tmp_path / "word.csv"
    word.write_text("0.0,1.0\n2.0,abc\n")
    with pytest.raises(ValueError, match="line 2"):
        load_points_csv(word)
    blank = tmp_path / "blank.csv"
    blank.write_text("\n \n")
    with pytest.raises(ValueError, match="no points"):
        load_points_csv(blank)


def test_content_hash_tracks_values_and_mode():
    a = line_ps([0.0, 1.0])
    b = line_ps([0.0, 1.0])
    c = line_ps([0.0, 2.0])
    m = PointSet.from_distance_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()
    assert a.content_hash() != m.content_hash()

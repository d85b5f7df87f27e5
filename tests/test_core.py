import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustcenter.core import (
    CenterSet,
    ParamSet,
    PointSet,
    ceil_count,
    clustering_cost,
    cost_radius,
    euclidean_dists,
    farthest_m,
    load_distance_matrix_csv,
    load_points_csv,
    peel_weight,
    relaxed_exclusions,
    weighted_cost,
    NearestTracker,
)

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


def test_euclidean_dists_takes_the_rows_from_a():
    x = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(euclidean_dists(x, x[1]), row_wise_dists(x, x[1]))
    for a, b in ((x[1], x), (x[1:2], x)):
        with pytest.raises(ValueError):
            euclidean_dists(a, b)


def test_paramset_bounds():
    ParamSet(k=1, z=0, n=2)
    for kwargs in (
        dict(k=0, z=0, n=2),
        dict(k=1, z=-1, n=5),
        dict(k=2, z=3, n=5),
        dict(k=1, z=1, n=5, eps=0.0),
        dict(k=1, z=1, n=5, eta=0.5),
        dict(k=1, z=1, n=5, mu=1.0),
    ):
        with pytest.raises(ValueError):
            ParamSet(**kwargs)
    assert ParamSet(k=2, z=3, n=30).gamma == pytest.approx(0.1)


def test_centerset_validation():
    cs = CenterSet((4, 1, 7), (1, 1, 2))
    assert len(cs) == 3 and list(cs) == [4, 1, 7]
    with pytest.raises(ValueError):
        CenterSet((1, 1), (1, 2))
    with pytest.raises(ValueError):
        CenterSet((1, 2), (2, 1))


def test_relaxed_exclusion_counts():
    # (1 + 0.1) * 10 rounds up to 11.000000000000002 in float; the count
    # must still be 11.
    assert relaxed_exclusions(10, 0.1) == 11
    assert relaxed_exclusions(0, 2.0) == 0
    assert relaxed_exclusions(3, 1.0) == 6
    assert ceil_count(2.0) == 2
    with pytest.raises(ValueError):
        ceil_count(float("nan"))


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


@settings(max_examples=40, deadline=None)
@given(coords=coords_strategy, data=st.data())
def test_tracker_matches_naive_min(coords, data):
    ps = PointSet.from_coords(np.asarray(coords, dtype=np.float64))
    k = data.draw(st.integers(1, min(3, ps.n)))
    centers = data.draw(st.lists(st.integers(0, ps.n - 1), min_size=k, max_size=k, unique=True))
    tracker = NearestTracker.over(ps, np.asarray(centers))
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
    mat = tmp_path / "mat.csv"
    mat.write_text("0.0,1.0\n1.0,0.0\n")
    assert load_distance_matrix_csv(mat).mode == "matrix"


def test_content_hash_tracks_values_and_mode():
    a = line_ps([0.0, 1.0])
    b = line_ps([0.0, 1.0])
    c = line_ps([0.0, 2.0])
    m = PointSet.from_distance_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()
    assert a.content_hash() != m.content_hash()

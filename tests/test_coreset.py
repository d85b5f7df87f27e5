import math

import numpy as np
import pytest

from robustcenter.core import NearestTracker, ParamSet, PointSet, clustering_cost
from robustcenter.coreset import (
    WeightedCoreset,
    _weigh_centers,
    build_coreset,
    build_coreset_auto,
    compose_with_host,
)
from robustcenter.generate import GeneratorSpec, planted_instance
from robustcenter.greedy import GreedyRun
from robustcenter.solvers import brute_force_opt

import oracles


@pytest.fixture(scope="module")
def planted_400():
    spec = GeneratorSpec(
        n_inliers=392, clusters=3, dim=2, grid_dim=2, cluster_radius=1.0, outliers=8
    )
    return planted_instance(spec, 0).ps


def check_mapping(ps, cs):
    """Rebuild the entry that absorbed each point and return each point's
    distance to it, in plain numpy.  A point within map_radius of the kept
    centers, taken in coreset order, counts for the first one at its minimum
    distance; the points beyond it are covered at map_radius in index order
    (``oracles.far_cover_reference``), whose representatives and counts must
    be the far entries and their weights."""
    assert cs.total_weight() == ps.n
    m = len(cs) - cs.meta["far_count"]
    kept = cs.indices[:m].tolist()
    tracker = NearestTracker(ps)
    for c in kept:
        tracker.add_center(c)
    inside = tracker.mindist <= cs.meta["map_radius"]
    pos = {c: i for i, c in enumerate(kept)}
    counts = np.bincount([pos[o] for o in tracker.owner[inside].tolist()], minlength=len(kept))
    assert counts.tolist() == cs.weights[:m].tolist()
    far = np.flatnonzero(~inside).tolist()
    assert cs.meta["far_points"] == len(far)
    reps, absorbed, owner = oracles.far_cover_reference(ps, far, cs.meta["map_radius"])
    assert cs.indices[m:].tolist() == reps
    assert cs.weights[m:].tolist() == absorbed
    entry = tracker.owner.copy()
    entry[far] = [owner[f] for f in far]
    if ps.mode == "matrix":
        return ps.dmat[np.arange(ps.n), entry]
    x = np.ascontiguousarray(ps.coords)
    return np.sqrt(((x - x[entry]) ** 2).sum(-1))


def test_fixed_dim_build(planted_400):
    ps = planted_400
    p = ParamSet(k=3, z=8, n=ps.n, mu=0.5)
    cs = build_coreset(ps, p, 1.0, np.random.default_rng(7))
    assert not cs.meta["fallback"]
    assert cs.meta["far_count"] <= 2 * p.z
    check_mapping(ps, cs)


def test_adaptive_build(planted_400):
    ps = planted_400
    p = ParamSet(k=3, z=8, n=ps.n, mu=0.5)
    cs = build_coreset_auto(ps, p, np.random.default_rng(7))
    assert not cs.meta["fallback"]
    assert cs.meta["far_count"] <= 6 * p.z
    assert cs.meta["phase1_radius"] > 0
    assert cs.meta["map_radius"] <= (p.mu / 2) * cs.meta["phase1_radius"] + 1e-12
    check_mapping(ps, cs)


def _mapping_instance(mode):
    if mode == "matrix":
        x = np.random.default_rng(5).normal(size=(300, 2))
        return PointSet.from_distance_matrix(np.sqrt(((x[:, None] - x[None]) ** 2).sum(-1)))
    gen = GeneratorSpec(n_inliers=590, clusters=3, dim=2 if mode == "d2" else 8, grid_dim=2, cluster_radius=1.0, outliers=10)
    return planted_instance(gen, 4).ps


@pytest.mark.parametrize("mode", ["d2", "d8", "matrix"])
def test_every_point_lies_within_the_map_radius_of_its_entry(mode):
    # Both builders: far entries <= far points <= the exclusion budget (2z
    # fixed-dimension, 6z adaptive), and the cover merges far points.
    ps = _mapping_instance(mode)
    p = ParamSet(k=3, z=10, n=ps.n, mu=0.5)
    merged = 0
    for seed in range(3):
        built = [
            (build_coreset(ps, p, 1.0, np.random.default_rng(seed)), 2 * p.z),
            (build_coreset_auto(ps, p, np.random.default_rng(seed)), 6 * p.z),
        ]
        for cs, cap in built:
            assert not cs.meta["fallback"]
            assert (check_mapping(ps, cs) <= cs.meta["map_radius"]).all()
            assert cs.meta["far_count"] <= cs.meta["far_points"] <= cap
            merged += cs.meta["far_count"] < cs.meta["far_points"]
    assert merged > 0


def test_no_far_entries_without_outliers(planted_400):
    ps = planted_400
    p = ParamSet(k=3, z=0, n=ps.n, mu=0.5)
    for cs in (build_coreset(ps, p, 1.0, np.random.default_rng(1)), build_coreset_auto(ps, p, np.random.default_rng(1))):
        assert cs.meta["far_count"] == cs.meta["far_points"] == 0
        assert (check_mapping(ps, cs) <= cs.meta["map_radius"]).all()


def _weighed(coords, exclusions):
    # One center, point 0, weighed with the given exclusion budget.
    ps = PointSet.from_coords(np.array(coords, dtype=np.float64))
    return _weigh_centers(GreedyRun.resumed(ps, np.random.default_rng(0), {0: 1}, 1), exclusions, {})


def test_cover_merges_duplicated_far_points_at_zero_radius():
    cs = _weighed([0.0] * 10 + [5.0, 9.0, 5.0, 5.0, 9.0], 5)
    assert cs.meta["map_radius"] == 0.0
    assert cs.indices.tolist() == [0, 10, 11] and cs.weights.tolist() == [10, 3, 2]
    assert cs.meta["far_count"] == 2 and cs.meta["far_points"] == 5


def test_cover_absorbs_a_far_point_exactly_at_the_map_radius():
    # The map radius is 4; far point 11 (at 6) absorbs 12 (at 7) and 13 (at
    # 10, exactly 4 away).
    cs = _weighed([0.0] * 10 + [4.0, 6.0, 7.0, 10.0], 3)
    assert cs.meta["map_radius"] == 4.0
    assert cs.indices.tolist() == [0, 11] and cs.weights.tolist() == [11, 3]
    assert cs.meta["far_count"] == 1 and cs.meta["far_points"] == 3


def test_cover_counts_its_blocks_on_the_builders_point_set(planted_400, monkeypatch):
    # The cover takes one cross_dists block of at most 32 rows over the
    # uncovered far points per call, on the builder's own point set and
    # counter; the first block spans every far point.
    calls, real = [], PointSet.cross_dists

    def spy(self, rows, cols):
        out = real(self, rows, cols)
        calls.append((self, out.shape))
        return out

    monkeypatch.setattr(PointSet, "cross_dists", spy)
    ps = PointSet.from_coords(planted_400.coords)
    p = ParamSet(k=3, z=8, n=ps.n, mu=0.5)
    cs = build_coreset_auto(ps, p, np.random.default_rng(7))
    far = cs.meta["far_points"]
    assert far > 32 and len(calls) >= 2
    assert all(owner is ps for owner, _ in calls)
    assert calls[0][1] == (32, far) and all(rows <= min(32, cols) for _, (rows, cols) in calls)


def test_fixed_dim_falls_back_when_budget_exceeds_n():
    ps = PointSet.from_coords(np.arange(20.0).reshape(-1, 1))
    p = ParamSet(k=2, z=1, n=20, mu=0.1)
    cs = build_coreset(ps, p, 2.0, np.random.default_rng(0))
    assert cs.meta["fallback"]
    assert np.array_equal(cs.indices, np.arange(20))
    assert np.array_equal(cs.weights, np.ones(20, dtype=np.int64))


def test_fixed_dim_falls_back_when_budget_overflows():
    # (2/0.5)^600 overflows a float; the budget is far above n all the same.
    ps = PointSet.from_coords(np.arange(40.0).reshape(-1, 1))
    cs = build_coreset(ps, ParamSet(k=2, z=2, n=40), 600.0, np.random.default_rng(0))
    assert cs.meta["fallback"]
    assert cs.meta["reason"] == "round budget inf exceeds n=40"
    assert np.array_equal(cs.weights, np.ones(40, dtype=np.int64))


def test_fixed_dim_rejects_non_finite_or_non_positive_dimension():
    ps = PointSet.from_coords(np.arange(40.0).reshape(-1, 1))
    for dim in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="doubling dimension"):
            build_coreset(ps, ParamSet(k=2, z=2, n=40), dim, np.random.default_rng(0))


def test_adaptive_reaches_its_target_on_tie_heavy_instances():
    # Integer coordinates in {0, 1, 2} on 1-3 axes: at most 27 distinct
    # points, so most instances repeat points and tie on distances.
    rng = np.random.default_rng(2024)
    for seed in range(500):
        n = int(rng.integers(7, 41))
        coords = rng.integers(0, 3, size=(n, int(rng.integers(1, 4)))).astype(np.float64)
        ps = PointSet.from_coords(coords)
        z = int(rng.integers(0, (n - 1) // 6 + 1))
        mu = float(rng.choice([0.05, 0.25, 0.5, 0.9]))
        p = ParamSet(k=int(rng.integers(1, n - z)), z=z, n=n, mu=mu)
        cs = build_coreset_auto(ps, p, np.random.default_rng(seed))
        assert not cs.meta["fallback"]
        assert cs.meta["phase2_rounds"] < n
        assert cs.meta["map_radius"] <= (mu / 2) * cs.meta["phase1_radius"]
        check_mapping(ps, cs)


def test_duplicate_centers_are_dropped():
    ps = PointSet.from_coords(np.zeros((40, 1)))
    p = ParamSet(k=1, z=0, n=40, mu=0.5)
    cs = build_coreset(ps, p, 1.0, np.random.default_rng(3))
    assert len(cs) == 1
    assert cs.weights.tolist() == [40]
    assert cs.meta["map_radius"] == 0.0


def test_build_rejects_budget_swallowing_dataset():
    ps = PointSet.from_coords(np.arange(5.0).reshape(-1, 1))
    p = ParamSet(k=1, z=3, n=5, mu=0.5)
    with pytest.raises(ValueError):
        build_coreset(ps, p, 1.0, np.random.default_rng(0))


def test_coreset_validation():
    with pytest.raises(ValueError):
        WeightedCoreset(indices=np.array([0, 0]), weights=np.array([1, 1]), source_n=2)
    with pytest.raises(ValueError):
        WeightedCoreset(indices=np.array([0, 1]), weights=np.array([1, 0]), source_n=1)
    with pytest.raises(ValueError):
        WeightedCoreset(indices=np.array([0, 1]), weights=np.array([2, 2]), source_n=3)
    with pytest.raises(ValueError, match="integers"):
        WeightedCoreset(indices=np.array([0, 1]), weights=np.array([1.0, 2.0]), source_n=3)


def test_compose_maps_local_picks_to_source_indices():
    ps = PointSet.from_coords(np.array([[0.0], [1.0], [9.0], [10.0]]))
    cs = WeightedCoreset(
        indices=np.array([0, 1, 2, 3]), weights=np.array([1, 1, 1, 1]), source_n=4
    )
    p = ParamSet(k=2, z=0, n=4)
    got = compose_with_host(cs, ps, p, lambda sub, w, k, z: np.array([1, 2]))
    want = clustering_cost(ps, np.array([1, 2]), 0, 0.0)
    assert got.radius == want.radius
    assert got.excluded == want.excluded


def test_compose_with_weighted_solver(planted_400):
    ps = planted_400
    p = ParamSet(k=3, z=8, n=ps.n, mu=0.5)
    cs = build_coreset_auto(ps, p, np.random.default_rng(2))
    host = lambda sub, w, k, z: brute_force_opt(sub, k, z, w).opt_centers
    small = ps.subset(np.arange(30))
    small_p = ParamSet(k=2, z=2, n=30)
    small_cs = build_coreset_auto(small, small_p, np.random.default_rng(2))
    ev = compose_with_host(small_cs, small, small_p, host)
    r_opt = brute_force_opt(small, 2, 2).r_opt
    assert ev.radius >= r_opt - 1e-12
    assert len(ev.excluded) == 2

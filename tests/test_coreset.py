import numpy as np
import pytest

from robustcenter.core import ParamSet, PointSet, clustering_cost
from robustcenter.coreset import (
    WeightedCoreset,
    build_coreset,
    build_coreset_auto,
    compose_with_host,
    uniform_sample,
    uniform_sample_size,
)
from robustcenter.generate import GeneratorSpec, planted_instance
from robustcenter.solvers import brute_force_opt


def test_uniform_sample_size_frozen():
    p = ParamSet(k=2, z=1, n=20, eps=0.5, eta=0.1)
    # 12800 * ln(1600) = 94435.3...
    assert uniform_sample_size(p, 2) == 94436


def test_uniform_sample_budget_and_shape():
    ps = PointSet.from_coords(np.arange(20.0).reshape(-1, 1))
    p = ParamSet(k=2, z=2, n=20, eps=1.0)
    s = uniform_sample(ps, p, np.random.default_rng(0), size_override=12)
    assert s.indices.size == 12
    assert np.all(np.diff(s.indices) > 0)
    assert s.z_prime == 3  # ceil(2 * 0.1 * 12)


def test_uniform_sample_rejects_degenerate_setups():
    ps = PointSet.from_coords(np.arange(10.0).reshape(-1, 1))
    with pytest.raises(ValueError):
        uniform_sample(ps, ParamSet(k=2, z=0, n=10), np.random.default_rng(0))
    dmat = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
    mps = PointSet.from_distance_matrix(dmat)
    with pytest.raises(ValueError):
        uniform_sample(mps, ParamSet(k=1, z=1, n=5), np.random.default_rng(0))
    # inflated budget must stay below the sample size
    with pytest.raises(ValueError):
        uniform_sample(ps, ParamSet(k=2, z=1, n=10, eps=99.0), np.random.default_rng(0), size_override=5)


@pytest.fixture(scope="module")
def planted_400():
    spec = GeneratorSpec(
        n_inliers=392, clusters=3, dim=2, grid_dim=2, cluster_radius=1.0, outliers=8
    )
    return planted_instance(spec, 0).ps


def check_mapping(ps, cs):
    assert cs.total_weight() == ps.n
    assert cs.assignment is not None
    targets = ps.coords[cs.indices[cs.assignment]]
    gaps = np.linalg.norm(ps.coords - targets, axis=1)
    assert gaps.max() <= cs.meta["map_radius"] + 1e-9


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


def test_fixed_dim_falls_back_when_budget_exceeds_n():
    ps = PointSet.from_coords(np.arange(20.0).reshape(-1, 1))
    p = ParamSet(k=2, z=1, n=20, mu=0.1)
    cs = build_coreset(ps, p, 2.0, np.random.default_rng(0))
    assert cs.meta["fallback"]
    assert np.array_equal(cs.indices, np.arange(20))
    assert np.array_equal(cs.weights, np.ones(20, dtype=np.int64))


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


def test_json_round_trip(planted_400):
    p = ParamSet(k=3, z=8, n=planted_400.n, mu=0.5)
    cs = build_coreset_auto(planted_400, p, np.random.default_rng(1))
    back = WeightedCoreset.from_json(cs.to_json())
    assert np.array_equal(back.indices, cs.indices)
    assert np.array_equal(back.weights, cs.weights)
    assert back.meta == cs.meta
    assert back.assignment is None


def test_coreset_validation():
    with pytest.raises(ValueError):
        WeightedCoreset(indices=np.array([0, 0]), weights=np.array([1, 1]), source_n=2)
    with pytest.raises(ValueError):
        WeightedCoreset(indices=np.array([0, 1]), weights=np.array([1, 0]), source_n=1)
    with pytest.raises(ValueError):
        WeightedCoreset(indices=np.array([0, 1]), weights=np.array([2, 2]), source_n=3)


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

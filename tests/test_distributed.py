import logging
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robustcenter.distributed as distributed
from robustcenter.core import ParamSet, PointSet
from robustcenter.distributed import (
    ShardedInstance,
    SiteProfile,
    coordinator_threshold,
    outlier_budget_grid,
    run_protocol,
    site_round_one,
)
from robustcenter.generate import GeneratorSpec, planted_instance

import oracles


def test_budget_grid_frozen():
    assert outlier_budget_grid(10) == [0, 2, 4, 8, 10]
    assert outlier_budget_grid(8) == [0, 2, 4, 8]
    assert outlier_budget_grid(1) == [0, 1]
    assert outlier_budget_grid(0) == [0]
    with pytest.raises(ValueError):
        outlier_budget_grid(-1)


def profile(site_id, grid, values):
    return SiteProfile(
        site_id=site_id, grid=tuple(grid), radii=tuple(values), coresets={}, n_points=100
    )


def test_site_profile_lookup():
    with pytest.raises(ValueError, match="strictly increase"):
        profile(0, (0, 0), (2.0, 1.0))
    with pytest.raises(ValueError, match="aligned"):
        profile(0, (0,), (2.0, 1.0))


def test_monotone_repair_reuses_previous_coreset(monkeypatch):
    canned = iter([5.0, 6.0, 3.0])

    def fake_build(sub_ps, params, rng):
        return SimpleNamespace(budget=params.z, meta={"map_radius": next(canned)})

    monkeypatch.setattr(distributed, "build_coreset_auto", fake_build)
    ps = PointSet.from_coords(np.arange(20.0).reshape(-1, 1))
    prof = site_round_one(ps, ParamSet(k=1, z=2, n=20), [0, 1, 2], np.random.default_rng(0))
    assert prof.radii == (5.0, 5.0, 3.0)
    assert prof.coresets[1] is prof.coresets[0]
    assert prof.coresets[2].budget == 2


def test_coordinator_worked_example():
    profiles = [profile(0, (0, 1), (5.0, 3.0)), profile(1, (0, 1), (4.0, 2.0))]
    d = coordinator_threshold(profiles, z=1)
    assert d.value == 3.0
    assert d.site == 0
    assert d.budgets == (1, 1)
    assert oracles.minimax_oracle(profiles, 1) == 3.0
    assert max(oracles.radius_at(p, b) for p, b in zip(profiles, d.budgets)) == 3.0


def test_coordinator_all_zero_radii():
    profiles = [profile(i, (0,), (0.0,)) for i in range(3)]
    d = coordinator_threshold(profiles, z=0)
    assert d.value == 0.0
    assert d.site == 2
    assert d.budgets == (0, 0, 0)


def test_coordinator_ignores_grid_budgets_above_z():
    # Site 0 reaches the threshold only at grid budget 3 > z; it must stop at
    # its last budget within z, not take 3 and break sum(budgets) <= 2z.
    profiles = [profile(0, (0, 1, 3), (1.0, 1.0, 0.0)), profile(1, (0, 1), (0.0, 0.0))]
    d = coordinator_threshold(profiles, z=1)
    assert d.budgets == (1, 0)
    assert d == oracles.coordinator_reference(profiles, 1)
    assert max(oracles.radius_at(p, b) for p, b in zip(profiles, d.budgets)) == oracles.minimax_oracle(profiles, 1)


def test_coordinator_rank_bound():
    with pytest.raises(ValueError):
        coordinator_threshold([profile(0, (0, 1), (2.0, 1.0))], z=1)


def test_coordinator_and_profile_reject_malformed_input():
    twins = [profile(0, (0, 1), (5.0, 3.0)), profile(0, (0, 1), (4.0, 2.0))]
    with pytest.raises(ValueError, match="distinct"):
        coordinator_threshold(twins, z=1)
    with pytest.raises(ValueError, match=">= 0"):
        coordinator_threshold([profile(0, (0, 1), (5.0, 3.0))], z=-1)
    malformed = [
        ((), ()),
        ((0, 1), (1.0,)),
        ((0, 2, 1), (3.0, 2.0, 1.0)),
        ((1, 2), (2.0, 1.0)),
        ((0, 1), (1.0, 2.0)),
    ]
    for grid, radii in malformed:
        with pytest.raises(ValueError):
            profile(0, grid, radii)


# Exhaustive minimax checks run only where the allocation count stays small.
MINIMAX_ALLOCATIONS = 5_000


@st.composite
def site_tables(draw):
    s = draw(st.integers(1, 5))
    z = draw(st.integers(0, 40))
    radius = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(0.0, 1.0))
    site_ids = draw(st.lists(st.integers(0, 9), min_size=s, max_size=s, unique=True))
    top = draw(st.sampled_from([z, 2 * z + 3]))
    profiles = []
    for site_id in site_ids:
        extra = draw(st.sets(st.integers(0, top), max_size=6))
        grid = sorted({0, z} | extra)
        radii = sorted(draw(st.lists(radius, min_size=len(grid), max_size=len(grid))), reverse=True)
        profiles.append(profile(site_id, grid, radii))
    return profiles, z


@settings(max_examples=200, deadline=None)
@given(case=site_tables())
def test_coordinator_matches_pair_ranking_reference(case):
    profiles, z = case
    if 2 * z + 1 > len(profiles) * (z + 1):
        with pytest.raises(ValueError):
            coordinator_threshold(profiles, z)
        return
    d = coordinator_threshold(profiles, z)
    assert d == oracles.coordinator_reference(profiles, z)
    # Grid budgets past z are never taken, so the budgets stay a minimax
    # allocation even where a grid runs beyond z.
    assert sum(d.budgets) <= 2 * z
    assert max(d.budgets) <= z
    if (z + 1) ** len(profiles) <= MINIMAX_ALLOCATIONS:
        got = max(oracles.radius_at(p, b) for p, b in zip(profiles, d.budgets))
        assert got == oracles.minimax_oracle(profiles, z)


def test_coordinator_memory_is_bounded_by_the_grid():
    # s*(z+1) = 160,008 ranked pairs would take megabytes; the runs stay tiny.
    z = 20_000
    grid = outlier_budget_grid(z)
    profiles = [
        profile(i, grid, [float(len(grid) - j) + 0.1 * (i % 3) for j in range(len(grid))])
        for i in range(8)
    ]
    tracemalloc.start()
    try:
        d = coordinator_threshold(profiles, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert sum(d.budgets) <= 2 * z


def test_sharded_instance_validation():
    ps = PointSet.from_coords(np.arange(6.0).reshape(-1, 1))
    good = ShardedInstance.from_json(ps, {"shards": [[2, 0, 1], [3, 4, 5]]})
    assert good.s == 2
    assert [s.tolist() for s in good.shards] == [[0, 1, 2], [3, 4, 5]]
    with pytest.raises(ValueError, match="shard 0"):
        ShardedInstance.from_json(ps, {"shards": [0, [1, 2, 3, 4, 5]]})
    for blob in ({"shards": 5}, [[0, 1, 2], [3, 4, 5]], {}):
        with pytest.raises(ValueError, match="shards must be given as"):
            ShardedInstance.from_json(ps, blob)
    with pytest.raises(ValueError):
        ShardedInstance(ps=ps, shards=(np.array([0, 1, 2]), np.array([2, 3, 4, 5])))
    with pytest.raises(ValueError):
        ShardedInstance(ps=ps, shards=(np.array([0, 1, 2]),))
    with pytest.raises(ValueError):
        ShardedInstance(ps=ps, shards=(np.array([0, 1, 2]), np.array([3, 4, 9])))
    with pytest.raises(ValueError):
        ShardedInstance(ps=ps, shards=(np.arange(6), np.array([], dtype=np.intp)))


@pytest.mark.parametrize("entry", [1.9, 1.0, "1", True])
def test_sharded_instance_rejects_non_integer_entries(entry):
    # Each entry would pass as index 1 once cast, completing a partition.
    ps = PointSet.from_coords(np.arange(6.0).reshape(-1, 1))
    blob = {"shards": [[3, 4, 5], [0, entry, 2]]}
    with pytest.raises(ValueError, match="shard 1"):
        ShardedInstance.from_json(ps, blob)


def test_site_budget_clamp_on_small_shard():
    ps = PointSet.from_coords(np.arange(10.0).reshape(-1, 1))
    params = ParamSet(k=2, z=6, n=120)
    prof = site_round_one(ps, params, [0, 6], np.random.default_rng(0))
    # adaptive cap is (n_i - 1) // 6 = 1
    assert prof.clamps == {6: 1}
    assert len(prof.coresets) == 2


@pytest.fixture(scope="module")
def planted_120():
    spec = GeneratorSpec(
        n_inliers=116, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0, outliers=4
    )
    return planted_instance(spec, 0).ps


def check_protocol(ps, result, params):
    grid = set(result.profiles[0].grid)
    d = result.decision
    assert all(b in grid for b in d.budgets)
    assert sum(d.budgets) <= 2 * params.z
    cs = result.coreset
    assert cs.total_weight() == ps.n
    assert np.unique(cs.indices).size == cs.indices.size
    for p in result.profiles:
        assert all(b >= a for a, b in zip(p.radii[1:], p.radii))
    directions = [ph["direction"] for ph in result.ledger.phases]
    assert directions == ["sites_to_coordinator", "broadcast", "sites_to_coordinator"]
    s = len(result.profiles)
    assert result.ledger.phases[0]["floats"] == 2 * len(result.profiles[0].grid) * s
    assert result.ledger.phases[1]["floats"] == 2 * s
    per_point = (ps.dim + 1) if ps.dim is not None else 2
    assert result.ledger.phases[2]["floats"] == len(cs) * per_point
    got = max(oracles.radius_at(p, b) for p, b in zip(result.profiles, d.budgets))
    assert got == oracles.minimax_oracle(result.profiles, params.z)


def test_protocol_adaptive_sites(planted_120):
    ps = planted_120
    params = ParamSet(k=2, z=4, n=ps.n, seed=11)
    result = run_protocol(ps, params, s=3)
    check_protocol(ps, result, params)


def test_protocol_fixed_dim_sites(planted_120):
    ps = planted_120
    params = ParamSet(k=2, z=4, n=ps.n, mu=0.8, seed=5)
    result = run_protocol(ps, params, s=3, doubling_dim=1.0)
    check_protocol(ps, result, params)
    assert all(not cs.meta["fallback"] for p in result.profiles for cs in p.coresets.values())
    assert result.coreset.meta["fallback"] is False


def test_assembled_coreset_reports_a_site_fallback(planted_120):
    # A shard of at most k points sends itself with unit weights, so the
    # assembled coreset is a fallback too.
    ps = planted_120
    params = ParamSet(k=2, z=4, n=ps.n, seed=3)
    inst = ShardedInstance(ps, (np.arange(2), np.arange(2, ps.n)))
    result = run_protocol(ps, params, instance=inst)
    sent = [p.coresets[b] for p, b in zip(result.profiles, result.decision.budgets)]
    assert [cs.meta["fallback"] for cs in sent] == [True, False]
    assert result.coreset.meta["fallback"] is True
    assert result.coreset.total_weight() == ps.n


def test_a_small_shard_builds_and_warns_its_fallback_once(planted_120, caplog):
    # Every grid budget of a shard of at most k points reuses one fallback.
    ps = planted_120
    params = ParamSet(k=2, z=8, n=ps.n, seed=3)
    inst = ShardedInstance(ps, (np.arange(2), np.arange(2, ps.n)))
    with caplog.at_level(logging.WARNING, logger="robustcenter.coreset"):
        result = run_protocol(ps, params, instance=inst)
    assert [r.getMessage() for r in caplog.records] == [
        "site: falling back to unit weights (shard of 2 points holds at most k centers)"
    ]
    assert len(result.profiles[0].grid) == 4
    assert len({id(cs) for cs in result.profiles[0].coresets.values()}) == 1


def test_protocol_matrix_mode_charges_two_floats():
    coords = np.arange(30.0).reshape(-1, 1)
    dmat = np.abs(coords - coords.T)
    ps = PointSet.from_distance_matrix(dmat)
    params = ParamSet(k=2, z=2, n=30, seed=3)
    result = run_protocol(ps, params, s=2)
    check_protocol(ps, result, params)
    assert result.ledger.phases[2]["floats"] == 2 * len(result.coreset)


def test_protocol_argument_validation(planted_120):
    ps = planted_120
    params = ParamSet(k=2, z=4, n=ps.n)
    with pytest.raises(ValueError):
        run_protocol(ps, params)
    inst = ShardedInstance.balanced(ps, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        run_protocol(ps, params, s=2, instance=inst)
    other = PointSet.from_coords(np.arange(10.0).reshape(-1, 1))
    with pytest.raises(ValueError):
        run_protocol(other, ParamSet(k=2, z=4, n=10), instance=inst)


@pytest.mark.parametrize("s", [-1, 2.0])
def test_protocol_rejects_bad_site_count(planted_120, s):
    ps = planted_120
    with pytest.raises(ValueError, match="site count"):
        run_protocol(ps, ParamSet(k=2, z=4, n=ps.n), s=s)


def test_protocol_deterministic_for_seed(planted_120):
    ps = planted_120
    params = ParamSet(k=2, z=4, n=ps.n, seed=21)
    a = run_protocol(ps, params, s=3)
    b = run_protocol(ps, params, s=3)
    assert a.decision == b.decision
    assert np.array_equal(a.coreset.indices, b.coreset.indices)
    assert np.array_equal(a.coreset.weights, b.coreset.weights)


def test_protocol_random_runs_meet_guarantees(planted_120):
    ps = planted_120
    for seed in range(10):
        params = ParamSet(k=2, z=4, n=ps.n, seed=seed)
        result = run_protocol(ps, params, s=4)
        assert sum(result.decision.budgets) <= 2 * params.z
        got = max(oracles.radius_at(p, b) for p, b in zip(result.profiles, result.decision.budgets))
        assert got == oracles.minimax_oracle(result.profiles, params.z)

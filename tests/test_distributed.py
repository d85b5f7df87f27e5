import numpy as np
import pytest

from robustcenter.core import ParamSet, PointSet
from robustcenter.distributed import (
    ShardedInstance,
    SiteProfile,
    StepFunction,
    _repair_monotone,
    coordinator_threshold,
    minimax_oracle,
    outlier_budget_grid,
    run_protocol,
    site_round_one,
)
from robustcenter.generate import GeneratorSpec, planted_instance


def test_budget_grid_frozen():
    assert outlier_budget_grid(10) == [0, 2, 4, 8, 10]
    assert outlier_budget_grid(8) == [0, 2, 4, 8]
    assert outlier_budget_grid(1) == [0, 1]
    assert outlier_budget_grid(0) == [0]
    with pytest.raises(ValueError):
        outlier_budget_grid(-1)


def test_step_function_lookup():
    f = StepFunction(breakpoints=(0, 2, 4), values=(5.0, 3.0, 1.0))
    assert f.value(0) == 5.0
    assert f.value(1) == 5.0
    assert f.value(3) == 3.0
    assert f.value(99) == 1.0
    with pytest.raises(ValueError):
        f.value(-1)
    with pytest.raises(ValueError):
        StepFunction(breakpoints=(0, 0), values=(1.0, 2.0))
    with pytest.raises(ValueError):
        StepFunction(breakpoints=(0,), values=(1.0, 2.0))


def test_monotone_repair_reuses_previous_coreset():
    radii, coresets = _repair_monotone((0, 1, 2), [5.0, 6.0, 3.0], {0: "A", 1: "B", 2: "C"})
    assert radii == [5.0, 5.0, 3.0]
    assert coresets[1] is coresets[0]
    assert coresets[2] == "C"


def profile(site_id, grid, values):
    return SiteProfile(
        site_id=site_id,
        step=StepFunction(breakpoints=tuple(grid), values=tuple(values)),
        coresets={},
        n_points=100,
    )


def test_coordinator_worked_example():
    profiles = [profile(0, (0, 1), (5.0, 3.0)), profile(1, (0, 1), (4.0, 2.0))]
    d = coordinator_threshold(profiles, z=1)
    assert d.value == 3.0
    assert d.site == 0
    assert d.budgets == (1, 1)
    assert minimax_oracle(profiles, 1) == 3.0
    assert max(p.h(b) for p, b in zip(profiles, d.budgets)) == 3.0


def test_coordinator_all_zero_radii():
    profiles = [profile(i, (0,), (0.0,)) for i in range(3)]
    d = coordinator_threshold(profiles, z=0)
    assert d.value == 0.0
    assert d.site == 2
    assert d.budgets == (0, 0, 0)


def test_coordinator_rank_bound():
    with pytest.raises(ValueError):
        coordinator_threshold([profile(0, (0, 1), (2.0, 1.0))], z=1)


def test_sharded_instance_validation():
    ps = PointSet.from_coords(np.arange(6.0).reshape(-1, 1))
    good = ShardedInstance(ps=ps, shards=(np.array([0, 1, 2]), np.array([3, 4, 5])))
    assert good.s == 2
    back = ShardedInstance.from_json(ps, good.to_json())
    assert all(np.array_equal(a, b) for a, b in zip(back.shards, good.shards))
    with pytest.raises(ValueError):
        ShardedInstance(ps=ps, shards=(np.array([0, 1, 2]), np.array([2, 3, 4, 5])))
    with pytest.raises(ValueError):
        ShardedInstance(ps=ps, shards=(np.array([0, 1, 2]),))
    with pytest.raises(ValueError):
        ShardedInstance(ps=ps, shards=(np.array([0, 1, 2]), np.array([3, 4, 9])))
    with pytest.raises(ValueError):
        ShardedInstance(ps=ps, shards=(np.arange(6), np.array([], dtype=np.intp)))


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
    grid = set(result.grid)
    d = result.decision
    assert all(b in grid for b in d.budgets)
    assert sum(d.budgets) <= 2 * params.z
    cs = result.coreset
    assert cs.total_weight() == ps.n
    assert np.unique(cs.indices).size == cs.indices.size
    for p in result.profiles:
        assert all(b >= a for a, b in zip(p.step.values[1:], p.step.values))
    directions = [ph["direction"] for ph in result.ledger.phases]
    assert directions == ["sites_to_coordinator", "broadcast", "sites_to_coordinator"]
    s = result.instance.s
    assert result.ledger.phases[0]["floats"] == 2 * len(result.grid) * s
    assert result.ledger.phases[1]["floats"] == 2 * s
    per_point = (ps.dim + 1) if ps.dim is not None else 2
    assert result.ledger.phases[2]["floats"] == len(cs) * per_point
    got = max(p.h(b) for p, b in zip(result.profiles, d.budgets))
    assert got == minimax_oracle(result.profiles, params.z)


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
        got = max(p.h(b) for p, b in zip(result.profiles, result.decision.budgets))
        assert got == minimax_oracle(result.profiles, params.z)

import logging
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robustcenter.distributed as distributed
from robustcenter.core import ParamSet, PointSet
from robustcenter.coreset import WeightedCoreset
from robustcenter.distributed import (
    SiteProfile,
    ThresholdDecision,
    _shards_from_json,
    assemble,
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
    # An adaptive site reports phase 2's target (mu/2) r1 per budget; a
    # budget whose target would rise reuses the previous budget's picks.
    canned = iter([5.0, 6.0, 3.0])

    def fake_phase_one(sub_ps, params, rng):
        return SimpleNamespace(chosen={params.z: 1}, round_no=1), next(canned)

    monkeypatch.setattr(distributed, "_adaptive_phase_one", fake_phase_one)
    ps = PointSet.from_coords(np.arange(20.0).reshape(-1, 1))
    prof = site_round_one(ps, ParamSet(k=1, z=2, n=20, mu=0.5), [0, 1, 2], np.random.default_rng(0))
    assert prof.radii == (1.25, 1.25, 0.75)
    assert prof.coresets == {}
    assert prof.phase_one[1] is prof.phase_one[0]
    assert prof.phase_one[2].params.z == 2 and prof.phase_one[2].chosen == {2: 1}


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
    with pytest.raises(ValueError, match="at least one site"):
        coordinator_threshold([], 0)
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
    # The file format through the shard file reader, the partition of
    # range(n) through the protocol, which checks its shards before any build.
    ps = PointSet.from_coords(np.arange(6.0).reshape(-1, 1))
    good = _shards_from_json({"shards": [[2, 0, 1], [3, 4, 5]]}, ps.n)
    assert len(good) == 2
    assert [s.tolist() for s in good] == [[0, 1, 2], [3, 4, 5]]
    with pytest.raises(ValueError, match="shard 0"):
        _shards_from_json({"shards": [0, [1, 2, 3, 4, 5]]}, ps.n)
    for blob in ({"shards": 5}, [[0, 1, 2], [3, 4, 5]], {}):
        with pytest.raises(ValueError, match="shards must be given as"):
            _shards_from_json(blob, ps.n)
    params = ParamSet(k=1, z=0, n=ps.n)
    for shards in (
        (np.array([0, 1, 2]), np.array([2, 3, 4, 5])),
        (np.array([0, 1, 2]),),
        (np.array([0, 1, 2]), np.array([3, 4, 9])),
        (np.arange(6), np.array([], dtype=np.intp)),
    ):
        with pytest.raises(ValueError):
            run_protocol(ps, params, shards=shards)
    assert run_protocol(ps, params, shards=[[2, 0, 1], [3, 4, 5]]).coreset.total_weight() == ps.n


@pytest.mark.parametrize("entry", [1.9, 1.0, "1", True])
def test_sharded_instance_rejects_non_integer_entries(entry):
    # Each entry would pass as index 1 once cast, completing a partition.
    ps = PointSet.from_coords(np.arange(6.0).reshape(-1, 1))
    blob = {"shards": [[3, 4, 5], [0, entry, 2]]}
    with pytest.raises(ValueError, match="shard 1"):
        _shards_from_json(blob, ps.n)


def test_site_budget_clamp_on_small_shard():
    ps = PointSet.from_coords(np.arange(10.0).reshape(-1, 1))
    params = ParamSet(k=2, z=6, n=120)
    prof = site_round_one(ps, params, [0, 6], np.random.default_rng(0))
    # adaptive cap is (n_i - 1) // 6 = 1
    assert prof.clamps == {6: 1}
    # Round one keeps each budget's phase-1 picks and builds no coreset.
    assert prof.coresets == {}
    assert [(q, e.params.z) for q, e in prof.phase_one.items()] == [(0, 0), (6, 1)]


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
    result = run_protocol(ps, params, shards=(np.arange(2), np.arange(2, ps.n)))
    sent = [p.coresets[b] for p, b in zip(result.profiles, result.decision.budgets)]
    assert [cs.meta["fallback"] for cs in sent] == [True, False]
    assert result.coreset.meta["fallback"] is True
    assert result.coreset.total_weight() == ps.n


def test_a_small_shard_builds_and_warns_its_fallback_once(planted_120, caplog):
    # Every grid budget of a shard of at most k points reuses one fallback.
    ps = planted_120
    params = ParamSet(k=2, z=8, n=ps.n, seed=3)
    with caplog.at_level(logging.WARNING, logger="robustcenter.coreset"):
        result = run_protocol(ps, params, shards=(np.arange(2), np.arange(2, ps.n)))
    assert [r.getMessage() for r in caplog.records] == [
        "site: falling back to unit weights (shard of 2 points holds at most k centers)"
    ]
    assert len(result.profiles[0].grid) == 4
    assert len({id(cs) for cs in result.profiles[0].coresets.values()}) == 1


def test_a_fixed_dim_site_builds_and_warns_its_fallback_once(caplog):
    # The round budget, 41 at rho=1, exceeds every 14-point shard at every
    # grid budget, as it does not depend on the outlier budget.
    gen = GeneratorSpec(n_inliers=40, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0, outliers=2)
    ps = planted_instance(gen, 0).ps
    params = ParamSet(k=2, z=8, n=ps.n, seed=0)
    with caplog.at_level(logging.WARNING, logger="robustcenter.coreset"):
        result = run_protocol(ps, params, s=3, doubling_dim=1.0)
    warning = "fixed_dim: falling back to unit weights (round budget 41 exceeds n=14)"
    assert [r.getMessage() for r in caplog.records] == [warning] * 3
    for p in result.profiles:
        assert len(p.grid) == 4 and len({id(cs) for cs in p.coresets.values()}) == 1
    assert result.coreset.meta["fallback"] is True


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
    shards = np.array_split(np.random.default_rng(0).permutation(ps.n), 2)
    with pytest.raises(ValueError):
        run_protocol(ps, params, s=2, shards=shards)
    # Shards made for another point set's n.
    other = PointSet.from_coords(np.arange(10.0).reshape(-1, 1))
    with pytest.raises(ValueError, match=r"point indices must lie in \[0, 10\)"):
        run_protocol(other, ParamSet(k=2, z=4, n=10), shards=shards)


@pytest.mark.parametrize("s", [-1, 2.0])
def test_protocol_rejects_bad_site_count(planted_120, s):
    ps = planted_120
    with pytest.raises(ValueError, match="site count"):
        run_protocol(ps, ParamSet(k=2, z=4, n=ps.n), s=s)


def test_protocol_rejects_one_site_with_outliers_before_any_build(planted_120, monkeypatch):
    # One site holds z+1 ranked pairs, fewer than the threshold's rank 2z+1
    # once z >= 1: the protocol says so before it subsets or builds a shard.
    ps, made = planted_120, []
    evals = ps.stats.evals
    monkeypatch.setattr(PointSet, "subset", lambda self, idx: made.append(idx))
    params = ParamSet(k=2, z=1, n=ps.n)
    for kwargs in ({"s": 1}, {"shards": (np.arange(ps.n),)}):
        with pytest.raises(ValueError, match=r"site count 1 at z=1"):
            run_protocol(ps, params, **kwargs)
    assert not made and ps.stats.evals == evals
    monkeypatch.undo()
    result = run_protocol(ps, ParamSet(k=2, z=0, n=ps.n), s=1)
    assert result.decision.budgets == (0,) and result.coreset.total_weight() == ps.n


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


@pytest.mark.parametrize("mode", ["euclidean", "matrix"])
def test_explicit_shards_of_the_balanced_split_reproduce_the_site_count_run(planted_120, mode):
    # The balanced split is the last spawned child's permutation cut by
    # array_split; given as plain unsorted lists, it runs bit for bit alike.
    ps = planted_120
    if mode == "matrix":
        ps = PointSet.from_distance_matrix(np.sqrt(((ps.coords[:, None] - ps.coords[None]) ** 2).sum(-1)))
    s, params = 3, ParamSet(k=2, z=4, n=ps.n, seed=17)
    rng = np.random.default_rng(np.random.SeedSequence(params.seed).spawn(s + 1)[-1])
    shards = [part.tolist() for part in np.array_split(rng.permutation(ps.n), s)]
    assert all(shard != sorted(shard) for shard in shards)
    a, b = run_protocol(ps, params, s=s), run_protocol(ps, params, shards=shards)
    assert a.coreset.indices.tobytes() == b.coreset.indices.tobytes()
    assert a.coreset.weights.tobytes() == b.coreset.weights.tobytes()
    assert a.decision.budgets == b.decision.budgets
    assert a.ledger.to_json() == b.ledger.to_json()
    assert [p.radii for p in a.profiles] == [p.radii for p in b.profiles]


def test_assemble_maps_site_coresets_back_through_their_shards():
    shards = (np.array([0, 2, 5]), np.array([1, 3, 4, 6]))
    meta_a = {"far_count": 1, "far_points": 1, "map_radius": 0.5, "fallback": False}
    meta_b = {"far_count": 2, "far_points": 3, "map_radius": 1.5, "fallback": False}
    site_a = WeightedCoreset(np.array([2, 0]), np.array([1, 2]), 3, meta=meta_a)
    site_b = WeightedCoreset(np.array([1, 3]), np.array([3, 1]), 4, meta=meta_b)
    decision = ThresholdDecision(value=1.5, site=1, budgets=(1, 2))
    out = assemble(shards, 7, [site_a, site_b], decision)
    assert out.indices.tolist() == [5, 0, 3, 6]
    assert out.weights.tolist() == [1, 2, 3, 1] and out.total_weight() == out.source_n == 7
    assert out.meta["map_radius"] == 1.5 and out.meta["far_count"] == 3 and out.meta["far_points"] == 4
    assert out.meta["fallback"] is False
    site_b = WeightedCoreset(site_b.indices, site_b.weights, 4, meta={**meta_b, "fallback": True})
    assert assemble(shards, 7, [site_a, site_b], decision).meta["fallback"] is True


def _absorption_check(sub, cs):
    """Rebuild which entry absorbed each shard point and return the largest
    such distance.  A point within map_radius of the center entries goes to
    its nearest, the earlier one on ties, as the tracker assigns it; the
    points beyond it are covered at map_radius in index order
    (``oracles.far_cover_reference``).  Asserts that the absorbed counts are
    the weights and that the cover's representatives are the far entries."""
    m = len(cs) - cs.meta["far_count"]
    radius = cs.meta["map_radius"]
    d = np.stack([sub.dists_from(int(c)) for c in cs.indices[:m]])
    nearest = d.min(axis=0)
    inside = nearest <= radius
    assert np.bincount(d.argmin(axis=0)[inside], minlength=m).tolist() == cs.weights[:m].tolist()
    far = np.flatnonzero(~inside).tolist()
    reps, absorbed, owner = oracles.far_cover_reference(sub, far, radius)
    assert cs.indices[m:].tolist() == reps and cs.weights[m:].tolist() == absorbed
    return max([float(nearest[inside].max())] + [sub.dist(f, owner[f]) for f in far])


@pytest.mark.parametrize("mode", ["d2", "d8", "matrix"])
def test_adaptive_sites_upload_within_their_reported_radius(mode):
    # Round one reports phase 2's target; round two's map radius must be at
    # most that entry, and every shard point must lie within the map radius
    # of the entry that absorbed it.
    if mode == "matrix":
        x = np.random.default_rng(5).normal(size=(600, 2))
        ps = PointSet.from_distance_matrix(np.sqrt(((x[:, None] - x[None]) ** 2).sum(-1)))
    else:
        dim = 2 if mode == "d2" else 8
        gen = GeneratorSpec(n_inliers=890, clusters=3, dim=dim, grid_dim=2, cluster_radius=1.0, outliers=10)
        ps = planted_instance(gen, 4).ps
    shards = np.array_split(np.random.default_rng(9).permutation(ps.n), 3)
    compressed = 0
    for seed in range(3):
        params = ParamSet(k=3, z=10, n=ps.n, mu=0.5, seed=seed)
        result = run_protocol(ps, params, shards=shards)
        for p, b, shard in zip(result.profiles, result.decision.budgets, shards):
            (cs,) = p.coresets.values()
            assert p.coresets == {b: cs} and p.phase_one == {}
            assert cs.meta["map_radius"] <= oracles.radius_at(p, b)
            assert _absorption_check(ps.subset(np.sort(shard)), cs) <= cs.meta["map_radius"]
            compressed += len(cs) < cs.source_n
    assert compressed == 9

"""Round-budget formulas are frozen against hand-computed values before any
sampling behavior is checked."""

import logging
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from robustcenter.core import (
    CenterSet,
    DistanceStats,
    GuardError,
    ParamSet,
    PointSet,
    clustering_cost,
    cost_radius,
    relaxed_exclusions,
)
import robustcenter.coreset as coreset
import robustcenter.greedy as greedy
from robustcenter.coreset import WeightedCoreset, build_coreset, build_coreset_auto, compose_with_host
from robustcenter.distributed import (
    SiteProfile,
    coordinator_threshold,
    outlier_budget_grid,
    run_protocol,
)
from robustcenter.generate import GeneratorSpec, planted_instance
from robustcenter.greedy import (
    _round_constant,
    bicriteria,
    GreedyRun,
    boost_repetitions,
    gonzalez,
    greedy_config,
    sublinear_bicriteria,
    two_approx,
    two_approx_boosted,
)
from robustcenter.solvers import brute_force_opt, charikar_3approx

import oracles


def params_for(k, z, n, **kw):
    return ParamSet(k=k, z=z, n=n, **kw)


def test_round_constant_and_count_frozen():
    # k=4, eta=0.25: c = 2 + (2 / (4 * 0.75)) ln 4
    p = params_for(4, 1, 40, eta=0.25)
    assert _round_constant(p) == pytest.approx(2.9241962407465937, abs=1e-9)
    assert greedy_config(p).rounds == 16


def test_sample_sizes_frozen():
    # eps=1, eta=0.25: per-round draw = ceil(2 ln 4) = 3
    # gamma=0.2: seed draw = ceil(ln 4 / 0.8) = 2
    cfg = greedy_config(params_for(2, 1, 5, eps=1.0, eta=0.25))
    assert cfg.per_round_sample == 3
    assert cfg.init_sample == 2


def test_rounds_override():
    cfg = replace(greedy_config(params_for(2, 1, 5)), rounds=7)
    assert cfg.rounds == 7
    with pytest.raises(ValueError):
        replace(greedy_config(params_for(2, 1, 5)), rounds=0)


_LINE = PointSet.from_coords(np.arange(10.0))
_P = params_for(2, 1, 10)
_PROFILES = (SiteProfile(0, (0, 1), (1.0, 0.0), {}, 5), SiteProfile(1, (0, 1), (2.0, 0.0), {}, 5))
# Each entry: the count's name in the error, and a call passing a non-integer.
NON_INTEGER_COUNTS = {
    "sites": ("site count", lambda: run_protocol(_LINE, _P, s=2.5)),
    "budget_grid": ("z", lambda: outlier_budget_grid(2.5)),
    "threshold_budget": ("z", lambda: coordinator_threshold(_PROFILES, 2.5)),
    "threshold_bool_budget": ("z", lambda: coordinator_threshold(_PROFILES, True)),
    "charikar_k": ("k", lambda: charikar_3approx(_LINE, None, 1.5, 0)),
    "brute_force_k": ("k", lambda: brute_force_opt(_LINE, 1.5, 0)),
    "gonzalez_k": ("k", lambda: gonzalez(_LINE, 1.5, np.random.default_rng(0))),
    "gonzalez_bool_k": ("k", lambda: gonzalez(_LINE, True, np.random.default_rng(0))),
    "rounds": ("rounds", lambda: replace(greedy_config(_P), rounds=2.5)),
    "init_sample": ("init_sample", lambda: replace(greedy_config(_P), init_sample=1.5)),
    "per_round_sample": ("per_round_sample", lambda: replace(greedy_config(_P), per_round_sample=1.5)),
    # z=2.5 rounded up to 3 exclusions: radius 6.0 on the line, not an error.
    "cost_z": ("z", lambda: clustering_cost(_LINE, [0], 2.5)),
}


@pytest.mark.parametrize("entry", NON_INTEGER_COUNTS)
def test_every_count_entry_point_rejects_a_non_integer(entry):
    # Each was truncated to a valid-looking count or died with a bare TypeError.
    name, call = NON_INTEGER_COUNTS[entry]
    with pytest.raises(ValueError, match=rf"^{name} must .*integer"):
        call()


_FOR_30 = params_for(2, 1, 30)  # derived for 30 points; _LINE has 10
_HOST = lambda sub, w, k, z: [0]  # noqa: E731
MISMATCHED_N = {
    "bicriteria": lambda: bicriteria(_LINE, greedy_config(_FOR_30), np.random.default_rng(0)),
    "two_approx": lambda: two_approx(_LINE, _FOR_30, np.random.default_rng(0)),
    "sublinear": lambda: sublinear_bicriteria(_LINE, _FOR_30, np.random.default_rng(0)),
    "build_coreset": lambda: build_coreset(_LINE, _FOR_30, 1.0, np.random.default_rng(0)),
    "build_coreset_auto": lambda: build_coreset_auto(_LINE, _FOR_30, np.random.default_rng(0)),
    "compose_params": lambda: compose_with_host(
        WeightedCoreset(np.arange(10), np.ones(10, dtype=np.int64), 10), _LINE, _FOR_30, _HOST
    ),
    "compose_source_n": lambda: compose_with_host(WeightedCoreset(np.arange(2), np.array([10, 10]), 20), _LINE, _P, _HOST),
    "run_protocol": lambda: run_protocol(_LINE, _FOR_30, s=2),
}


@pytest.mark.parametrize("entry", MISMATCHED_N)
def test_entry_points_reject_params_or_a_coreset_made_for_another_point_set(entry):
    # Each ran silently with the other set's sample sizes and budgets.
    with pytest.raises(ValueError, match="does not match the point set's n=10"):
        MISMATCHED_N[entry]()


def test_boost_repetitions_frozen():
    # k=3, eps=1, gamma=0.05: ceil(ln 10 * (1/0.95) * 2^2) = 10
    assert boost_repetitions(params_for(3, 1, 20, eps=1.0)) == 10


@pytest.mark.parametrize(("k", "eps"), [(10, 0.1), (200, 0.001)])
def test_boosted_two_approx_guard_trips_before_any_repetition(k, eps):
    # k=10, eps=0.1 asks for 5,456,658,496 repetitions; at k=200, eps=0.001
    # the count itself overflows a float.
    ps = PointSet.from_coords(np.arange(400.0).reshape(-1, 1))
    with pytest.raises(GuardError, match="tracker passes"):
        two_approx_boosted(ps, params_for(k, 2, ps.n, eps=eps), np.random.default_rng(0))
    assert ps.stats.evals == 0


def test_sublinear_config_frozen():
    p = params_for(3, 1, 20, eps=1.0, eta=0.25)
    assert greedy._sample_plan(p) == (177, 30)


def test_sublinear_config_needs_outliers():
    with pytest.raises(ValueError):
        greedy._sample_plan(params_for(2, 0, 10))


def test_sublinear_take_must_fit_its_sample():
    # eps=0.5 at gamma=1/2 plans a take of 37 from a sample of 30.
    ps = PointSet.from_coords(np.arange(40.0))
    with pytest.raises(ValueError, match=r"^take_per_round must lie in \[1, 30\] and be an integer, got 37$"):
        sublinear_bicriteria(ps, ParamSet(k=2, z=20, n=40, eps=0.5), np.random.default_rng(0))
    assert ps.stats.evals == 0


@pytest.mark.parametrize(("helper", "eps"), [(greedy._sample_plan, 5e-324), (boost_repetitions, 1e-300)])
def test_config_helpers_reject_a_count_that_overflows(helper, eps):
    # A zero denominator and an overflowing power, each an infinite count.
    with pytest.raises(ValueError, match="non-finite"):
        helper(ParamSet(k=3, z=10, n=1000, eps=eps))


@pytest.fixture(scope="module")
def small_instance():
    spec = GeneratorSpec(
        n_inliers=18, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0, outliers=2
    )
    inst = planted_instance(spec, 0)
    r_opt = brute_force_opt(inst.ps, 2, 2).r_opt
    return inst.ps, r_opt


def test_bicriteria_deterministic(small_instance):
    ps, _ = small_instance
    p = params_for(2, 2, ps.n)
    cfg = greedy_config(p)
    a = bicriteria(ps, cfg, np.random.default_rng(5))
    b = bicriteria(ps, cfg, np.random.default_rng(5))
    assert a.indices == b.indices and a.round_of == b.round_of


@pytest.mark.parametrize("dim", [2, 8])
def test_a_pass_through_wrapper_of_dists_from_sees_every_evaluation(monkeypatch, dim):
    # A plain *args, **kwargs wrapper that sums each returned row's size, as
    # perfbench's spans count evaluations, sees every evaluation of bicriteria
    # and of clustering_cost on a fresh tracker: at D=8 the filter's keywords
    # pass through it, at D=2 every insert takes four parameters.
    spec = GeneratorSpec(n_inliers=2_970, clusters=4, dim=dim, grid_dim=dim, cluster_radius=1.0, outliers=30)
    ps, seen, dists_from = planted_instance(spec, 0).ps, [], PointSet.dists_from

    def wrapper(*args, **kwargs):
        result = dists_from(*args, **kwargs)
        seen.append((result.size, "gap" in kwargs))
        return result

    monkeypatch.setattr(PointSet, "dists_from", wrapper)
    p = params_for(4, 30, ps.n)
    cs = bicriteria(ps, greedy_config(p), np.random.default_rng(0))
    clustering_cost(ps, list(cs.indices), p.z, p.eps)
    assert sum(size for size, _ in seen) == ps.stats.evals == 2 * len(cs) * ps.n
    assert any(gap for _, gap in seen) == (dim == 8)


def test_bicriteria_center_budget(small_instance):
    ps, _ = small_instance
    cfg = greedy_config(params_for(2, 2, ps.n))
    cs = bicriteria(ps, cfg, np.random.default_rng(1))
    assert len(cs) <= cfg.init_sample + (cfg.rounds - 1) * cfg.per_round_sample
    assert all(1 <= r <= cfg.rounds for r in cs.round_of)


def test_bicriteria_covers_tiny_instances():
    ps = PointSet.from_coords(np.array([[0.0], [100.0]]))
    cfg = greedy_config(params_for(1, 0, 2))
    cs = bicriteria(ps, cfg, np.random.default_rng(0))
    assert cost_radius(ps, cs, 0, 0.0) == 0.0


def test_two_approx_returns_k_centers(small_instance):
    ps, _ = small_instance
    cs = two_approx(ps, params_for(2, 2, ps.n), np.random.default_rng(2))
    assert len(cs) == 2
    assert cs.round_of == (1, 2)


def test_boosted_two_approx_hits_planted_radius(small_instance):
    ps, r_opt = small_instance
    p = params_for(2, 2, ps.n, eps=1.0)
    hits = 0
    for seed in range(200):
        cs = two_approx_boosted(ps, p, np.random.default_rng(seed))
        if cost_radius(ps, cs, p.z, p.eps) <= 2 * r_opt + 1e-9:
            hits += 1
    # single-run success is at least (1-gamma)(eps/(1+eps))^(k-1) = 0.45;
    # boosting lifts it far above that floor
    assert hits >= 90


def test_sublinear_round_evals_track_center_count():
    spec = GeneratorSpec(
        n_inliers=190, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0, outliers=10
    )
    ps = planted_instance(spec, 3).ps
    p = params_for(3, 10, ps.n, eps=1.0, eta=0.25)
    cfg = greedy_config(p)
    logged = replace(ps, stats=oracles.EvalLog())
    cs = sublinear_bicriteria(logged, p, np.random.default_rng(4))
    draw = min(greedy._sample_plan(p)[0], ps.n)
    evals = logged.stats.increments
    added = [cs.round_of.count(j) for j in range(2, len(evals) + 2)]
    centers_before = cfg.init_sample
    for got, grew in zip(evals, added):
        assert got == draw * centers_before
        centers_before += grew
    assert len(cs) == cfg.init_sample + sum(added)


def test_sublinear_logs_its_capped_draw(caplog):
    ps = PointSet.from_coords(np.arange(40.0))
    p = params_for(2, 2, ps.n, eps=0.5)
    sample_size = greedy._sample_plan(p)[0]
    assert sample_size > ps.n
    with caplog.at_level(logging.INFO, logger="robustcenter.greedy"):
        sublinear_bicriteria(ps, p, np.random.default_rng(0))
    assert [r.getMessage() for r in caplog.records] == [
        f"sample-only greedy: per-round sample of {sample_size} capped at n=40"
    ]
    caplog.clear()
    # z=15 plans a sample of 39 on the same 40 points: nothing is capped.
    uncapped = params_for(2, 15, ps.n, eps=0.5)
    assert greedy._sample_plan(uncapped) == (39, 36)
    with caplog.at_level(logging.INFO, logger="robustcenter.greedy"):
        sublinear_bicriteria(ps, uncapped, np.random.default_rng(0))
    assert not caplog.records


def test_sublinear_counts_independent_of_n():
    counts = {}
    for n_in, z in ((950, 50), (3800, 200)):
        spec = GeneratorSpec(
            n_inliers=n_in, clusters=3, dim=2, grid_dim=2, cluster_radius=1.0, outliers=z
        )
        ps = planted_instance(spec, 0).ps
        p = params_for(3, z, ps.n, eps=1.0, eta=0.25)
        logged = replace(ps, stats=oracles.EvalLog())
        sublinear_bicriteria(logged, p, np.random.default_rng(0))
        counts[ps.n] = logged.stats.increments
    a, b = counts.values()
    assert a == b


def _sublinear_run(ps, p, seed):
    logged = replace(ps, stats=oracles.EvalLog())
    cs = sublinear_bicriteria(logged, p, np.random.default_rng(seed))
    return cs.indices, cs.round_of, logged.stats.increments


@pytest.mark.parametrize("mode", ["euclidean", "matrix"])
def test_sublinear_row_blocks_leave_centers_and_counts_unchanged(mode, monkeypatch):
    # Rounds score up to 2,904 x 274 distances, seven row blocks.
    ps = planted_instance(
        GeneratorSpec(n_inliers=1990, clusters=3, dim=2, grid_dim=2, cluster_radius=1.0, outliers=10), 2
    ).ps
    if mode == "matrix":
        ps = PointSet.from_distance_matrix(ps.cross_dists(np.arange(ps.n), np.arange(ps.n)))
    p = params_for(3, 10, ps.n, eps=0.5)
    blocked = [_sublinear_run(ps, p, seed) for seed in range(10)]
    # The former scorer: one whole draw x centers block per round.
    monkeypatch.setattr(PointSet, "nearest_dists", lambda self, rows, cols: self.cross_dists(rows, cols).min(axis=1))
    assert [_sublinear_run(ps, p, seed) for seed in range(10)] == blocked


def test_sublinear_scorer_memory_stays_bounded():
    # The whole draw x centers block was 20,000 x 1,298 doubles (208 MB).
    ps = PointSet.from_coords(np.random.default_rng(0).uniform(0, 100, size=(20_000, 2)))
    p = params_for(5, 10, ps.n, eps=0.1)
    tracemalloc.start()
    try:
        cs = sublinear_bicriteria(ps, p, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cs) > 1000
    assert peak < 8 << 20


class _RecordedRun(GreedyRun):
    """A GreedyRun that keeps its starting random state and its grow calls."""

    runs: list = []

    def __init__(self, ps, rng, init_sample):
        self.start = (rng.bit_generator.state, init_sample)
        self.calls = []
        super().__init__(ps, rng, init_sample)
        _RecordedRun.runs.append(self)

    def grow(self, *args, **kwargs):
        spent = super().grow(*args, **kwargs)
        self.calls.append((args, kwargs, spent))
        return spent


@settings(max_examples=60, deadline=None)
@given(
    coords=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=8, max_size=30),
    mode=st.sampled_from(["euclidean", "matrix"]),
    data=st.data(),
)
def test_greedy_run_matches_the_one_center_reference(coords, mode, data):
    # Duplicate points and tied distances are common on 16 cells.
    ps = PointSet.from_coords(np.asarray(coords, dtype=np.float64))
    if mode == "matrix":
        ps = PointSet.from_distance_matrix(ps.cross_dists(np.arange(ps.n), np.arange(ps.n)))
    k = data.draw(st.integers(1, 3))
    z = data.draw(st.integers(0, (ps.n - 1) // 6))
    p = params_for(k, z, ps.n, eps=data.draw(st.sampled_from([0.25, 1.0])))
    seed = data.draw(st.integers(0, 2**32 - 1))
    _RecordedRun.runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "GreedyRun", _RecordedRun)
        mp.setattr(coreset, "GreedyRun", _RecordedRun)
        cs = bicriteria(ps, greedy_config(p), np.random.default_rng(seed))
        build_coreset(ps, p, data.draw(st.sampled_from([0.5, 1.0])), np.random.default_rng(seed))
        build_coreset_auto(ps, p, np.random.default_rng(seed))
    assert len(_RecordedRun.runs) >= 2
    for run in _RecordedRun.runs:
        state, init_sample = run.start
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        ref = oracles.GreedyReference(ps, rng, init_sample)
        for args, kwargs, spent in run.calls:
            assert ref.grow(*args, **kwargs) == spent
        assert list(run.chosen.items()) == list(ref.chosen.items())
        assert run.tracker.mindist.tobytes() == np.array(ref.tracker.mindist).tobytes()
        assert run.tracker.owner.tolist() == ref.tracker.owner
    first = _RecordedRun.runs[0]
    assert cs.indices == tuple(first.chosen) and cs.round_of == tuple(first.chosen.values())


def test_grow_rejects_an_exclusion_budget_that_swallows_the_dataset():
    run = GreedyRun(PointSet.from_coords(np.arange(5.0)), np.random.default_rng(0), 1)
    with pytest.raises(ValueError, match="swallows"):
        run.grow(1, 1, 3, exclusions=5)


def test_sublinear_deterministic():
    spec = GeneratorSpec(
        n_inliers=90, clusters=2, dim=2, grid_dim=1, cluster_radius=1.0, outliers=10
    )
    ps = planted_instance(spec, 1).ps
    p = params_for(2, 10, ps.n)
    a = sublinear_bicriteria(ps, p, np.random.default_rng(8))
    b = sublinear_bicriteria(ps, p, np.random.default_rng(8))
    assert a.indices == b.indices


def test_config_math_is_self_consistent():
    p = params_for(5, 2, 100, eta=0.1)
    cfg = greedy_config(p)
    c = 2 + (2 / (5 * 0.9)) * math.log(10)
    assert _round_constant(p) == pytest.approx(c, rel=1e-12)
    assert cfg.rounds == math.ceil(c * 5 / 0.9 - 1e-9)


def test_boost_scores_each_candidate_from_its_own_run():
    ps = PointSet.from_coords(np.random.default_rng(7).normal(size=(60, 2)))
    p = params_for(3, 2, ps.n, eps=1.0)
    reps = boost_repetitions(p)
    for seed in range(5):
        before = ps.stats.evals
        cs = two_approx_boosted(ps, p, np.random.default_rng(seed))
        # k passes per repetition, none of them to score the candidate.
        assert ps.stats.evals - before == reps * p.k * ps.n
        # The same candidates, each scored by a fresh tracker; the first
        # smallest relaxed cost wins.
        rng = np.random.default_rng(seed)
        candidates = [two_approx(ps, p, rng) for _ in range(reps)]
        costs = [clustering_cost(ps, c.indices, p.z, p.eps).relaxed for c in candidates]
        assert cs == candidates[int(np.argmin(costs))]


def test_carried_distances_stay_outside_the_fields():
    ps = PointSet.from_coords(np.random.default_rng(1).normal(size=(30, 2)))
    cs = two_approx(ps, params_for(3, 2, ps.n), np.random.default_rng(0))
    plain = CenterSet(cs.indices, cs.round_of)
    assert cs == plain and hash(cs) == hash(plain) and repr(cs) == repr(plain)
    assert asdict(cs) == asdict(plain) == {"indices": cs.indices, "round_of": cs.round_of}
    assert cs._source is ps and not cs._mindist.flags.writeable
    assert replace(cs)._source is None and plain._mindist is None


def test_centers_taken_mid_run_keep_their_own_distances():
    ps = PointSet.from_coords(np.random.default_rng(2).normal(size=(50, 2)))
    run = GreedyRun(ps, np.random.default_rng(0), 2)
    early = run.centers()
    run.grow(4, 2, 3)
    assert len(run.centers()) > len(early)
    assert clustering_cost(ps, early, 3, 1.0) == clustering_cost(ps, early.indices, 3, 1.0)


def _tracker_scored(ps, centers, z, eps):
    """clustering_cost that must take one distance pass per center."""
    before = ps.stats.evals
    got = clustering_cost(ps, centers, z, eps)
    assert ps.stats.evals - before == len(centers) * ps.n
    return got


# Few distinct cells make duplicate points and tied distances common.
tie_heavy_coords = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=6, max_size=18)


@settings(max_examples=60, deadline=None)
@given(coords=tie_heavy_coords, mode=st.sampled_from(["euclidean", "matrix"]), data=st.data())
def test_carried_cost_equals_the_tracker_oracle(coords, mode, data):
    ps = PointSet.from_coords(np.asarray(coords, dtype=np.float64))
    if mode == "matrix":
        ps = PointSet.from_distance_matrix(ps.cross_dists(np.arange(ps.n), np.arange(ps.n)))
    k = data.draw(st.integers(1, 3))
    z = data.draw(st.integers(0, ps.n - k - 1))
    eps = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    assume(relaxed_exclusions(z, eps) < ps.n)
    params = params_for(k, z, ps.n, eps=data.draw(st.sampled_from([0.5, 1.0])))
    seed = data.draw(st.integers(0, 2**16))
    perm = data.draw(st.permutations(range(ps.n)))
    runs = (
        bicriteria(ps, greedy_config(params), np.random.default_rng(seed)),
        two_approx(ps, params, np.random.default_rng(seed)),
        gonzalez(ps, k, np.random.default_rng(seed)),
    )
    for cs in runs:
        # A plain tuple carries nothing, so it is scored by a fresh tracker.
        oracle = _tracker_scored(ps, cs.indices, z, eps)
        before = ps.stats.evals
        assert clustering_cost(ps, cs, z, eps) == oracle
        assert ps.stats.evals == before
        # A replaced set, a subset and a copy with its own counter each take
        # the tracker path.
        moved = replace(cs, indices=tuple(range(len(cs))))
        assert _tracker_scored(ps, moved, z, eps) == clustering_cost(ps, moved.indices, z, eps)
        sub = ps.subset(perm)
        assert _tracker_scored(sub, cs, z, eps) == clustering_cost(sub, cs.indices, z, eps)
        fresh = replace(ps, stats=DistanceStats())
        assert _tracker_scored(fresh, cs, z, eps) == oracle


@settings(max_examples=80, deadline=None)
@given(
    coords=tie_heavy_coords,
    mode=st.sampled_from(["euclidean", "matrix"]),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_gonzalez_replays_the_reference_traversal(coords, mode, k, seed):
    ps = PointSet.from_coords(np.asarray(coords, dtype=np.float64))
    if mode == "matrix":
        ps = PointSet.from_distance_matrix(ps.cross_dists(np.arange(ps.n), np.arange(ps.n)))
    k = min(k, ps.n)
    before = ps.stats.evals
    cs = gonzalez(ps, k, np.random.default_rng(seed))
    evals = ps.stats.evals - before
    indices, round_of = oracles.gonzalez_reference(ps, k, np.random.default_rng(seed))
    assert (cs.indices, cs.round_of) == (indices, round_of)
    assert ps.stats.evals - before - evals == evals == len(indices) * ps.n


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 12_000, 1 << 20])
def test_one_point_draw_is_the_integer_draw(n):
    # gonzalez starts with GreedyRun's draw of one point without replacement,
    # which numpy serves from the same stream as Generator.integers(n).
    for seed in range(50):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert a.choice(n, size=1, replace=False).tolist() == [int(b.integers(n))]

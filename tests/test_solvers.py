import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustcenter import solvers
from robustcenter.core import GuardError, ParamSet, PointSet, _max_coordinate, cost_radius, weighted_cost
from robustcenter.coreset import build_coreset_auto
from robustcenter.generate import GeneratorSpec, planted_instance
from robustcenter.greedy import gonzalez
from robustcenter.solvers import (
    _BAND_ROWS,
    _band_order,
    _band_windows,
    _candidate_radii,
    _coverage_dtype,
    _pairwise_block,
    brute_force_opt,
    charikar_3approx,
)

import oracles


def line_ps(xs):
    return PointSet.from_coords(np.asarray(xs, dtype=np.float64))


def random_instance(rng, n_max=12):
    n = int(rng.integers(4, n_max + 1))
    ps = PointSet.from_coords(rng.integers(-30, 30, size=(n, 2)).astype(np.float64))
    k = int(rng.integers(1, 4))
    z = int(rng.integers(0, 3))
    if k + z >= n:
        k, z = 1, 0
    return ps, k, z


def test_oracle_agrees_on_frozen_line():
    pts = [(0.0,), (1.0,), (5.0,), (6.0,), (100.0,)]
    r, combo = oracles.exhaustive_opt(pts, 2, 1)
    assert r == 1.0 and combo == (0, 2)


def test_brute_force_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        ps, k, z = random_instance(rng)
        pts = [tuple(row) for row in ps.coords]
        want_r, want_c = oracles.exhaustive_opt(pts, k, z)
        got = brute_force_opt(ps, k, z)
        assert got.r_opt == pytest.approx(want_r, rel=1e-12)
        assert got.opt_centers.indices == want_c


def test_brute_force_frozen_line():
    res = brute_force_opt(line_ps([0.0, 1.0, 5.0, 6.0, 100.0]), 2, 1)
    assert res.r_opt == 1.0
    assert res.opt_centers.indices == (0, 2)
    assert res.opt_excluded == frozenset({4})


def test_brute_force_lex_smallest_tie():
    res = brute_force_opt(line_ps([0.0, 1.0, 10.0, 11.0]), 2, 0)
    assert res.r_opt == 1.0
    assert res.opt_centers.indices == (0, 2)


@pytest.mark.parametrize("weights", [None, np.ones(5)])
@pytest.mark.parametrize("k", [0, 6])
def test_brute_force_rejects_k_outside_one_to_n(weights, k):
    with pytest.raises(ValueError, match="k must lie"):
        brute_force_opt(line_ps([0.0, 1.0, 2.0, 5.0, 9.0]), k, 1, weights)


def test_brute_force_unit_weights_take_a_fractional_budget():
    ps = line_ps([0.0, 1.0, 5.0, 6.0, 100.0, 104.0])
    whole, frac = brute_force_opt(ps, 2, 1), brute_force_opt(ps, 2, 1.5)
    assert frac.r_opt == whole.r_opt
    assert frac.opt_centers == whole.opt_centers


def test_brute_force_guards():
    big = PointSet.from_coords(np.zeros((300, 1)) + np.arange(300)[:, None])
    with pytest.raises(GuardError):
        brute_force_opt(big, 3, 0)
    huge = PointSet.from_coords(np.arange(4100, dtype=np.float64)[:, None])
    with pytest.raises(GuardError):
        brute_force_opt(huge, 1, 0)


@pytest.mark.parametrize(
    ("weights", "per_pair"),
    [pytest.param(None, 12, id="unit-float32"), pytest.param(0.5, 16, id="real-float64")],
)
def test_charikar_guard_names_the_bytes_of_its_blocks(weights, per_pair):
    # 4,001 points: the float64 block and the coverage matrix would need
    # 4001**2 * (8 + 4 or 8) bytes.
    n = 4_001
    ps = PointSet.from_coords(np.arange(n, dtype=np.float64)[:, None])
    w = None if weights is None else np.full(n, weights)
    with pytest.raises(GuardError, match=rf"n={n} > 4000\): .* {n * n * per_pair} bytes \({per_pair} per pair\)"):
        charikar_3approx(ps, w, 1, 0)
    assert ps.stats.evals == 0
    with pytest.raises(GuardError, match=rf" {n * n * 8} bytes \(8 per pair\)"):
        brute_force_opt(ps, 1, 0)


def test_gonzalez_frozen_line():
    # From each start the second pick is the farthest point: 2 from 0, and 0
    # from either end of the pair 10, 11.
    ps = line_ps([0.0, 10.0, 11.0])
    runs = {}
    for seed in range(20):
        cs = gonzalez(ps, 2, np.random.default_rng(seed))
        runs[cs.indices[0]] = cs.indices
        assert cs.round_of == (1, 2)
    assert runs == {0: (0, 2), 1: (1, 0), 2: (2, 0)}


def test_gonzalez_is_two_approx_without_outliers():
    rng = np.random.default_rng(5)
    for seed in range(15):
        ps, k, _ = random_instance(rng)
        pts = [tuple(row) for row in ps.coords]
        r_opt, _ = oracles.exhaustive_opt(pts, k, 0)
        cs = gonzalez(ps, k, np.random.default_rng(seed))
        assert cost_radius(ps, cs, 0, 0.0) <= 2 * r_opt + 1e-9


def test_gonzalez_random_start_stays_valid():
    ps = line_ps([0.0, 10.0, 11.0, 12.0])
    cs = gonzalez(ps, 2, rng=np.random.default_rng(9))
    assert len(cs) == 2
    assert len(set(cs.indices)) == 2


def test_charikar_frozen_pair():
    cs = charikar_3approx(line_ps([0.0, 6.0]), None, 1, 0)
    assert cs.indices == (0,)
    assert cost_radius(line_ps([0.0, 6.0]), cs, 0, 0.0) == 6.0


def test_charikar_within_three_of_optimum():
    rng = np.random.default_rng(21)
    for _ in range(20):
        ps, k, z = random_instance(rng)
        pts = [tuple(row) for row in ps.coords]
        r_opt, _ = oracles.exhaustive_opt(pts, k, z)
        cs = charikar_3approx(ps, None, k, z)
        assert cost_radius(ps, cs, z, 0.0) <= 3 * r_opt + 1e-9


def test_charikar_weights_equal_expansion():
    # duplicating a point is the same as giving it weight 2
    base = np.array([[0.0], [4.0], [9.0]])
    expanded = PointSet.from_coords(np.array([[0.0], [0.0], [4.0], [9.0]]))
    weighted = PointSet.from_coords(base)
    cs_w = charikar_3approx(weighted, np.array([2, 1, 1]), 1, 2)
    cs_e = charikar_3approx(expanded, None, 1, 2)
    r_w = max(abs(base[i, 0] - base[cs_w.indices[0], 0]) for i in range(3))
    r_e = max(abs(expanded.coords[i, 0] - expanded.coords[cs_e.indices[0], 0]) for i in range(4))
    assert r_w == r_e


def test_charikar_validates_weights():
    ps = line_ps([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        charikar_3approx(ps, np.array([1.0, 1.0]), 1, 0)
    with pytest.raises(ValueError):
        charikar_3approx(ps, np.array([1.0, 1.0, -1.0]), 1, 0)


# The weighted solvers, called as solver(ps, weights, k, z).
WEIGHTED_SOLVERS = [
    pytest.param(charikar_3approx, id="charikar_3approx"),
    pytest.param(lambda ps, w, k, z: brute_force_opt(ps, k, z, w), id="brute_force_weighted"),
]


@pytest.mark.parametrize("solver", WEIGHTED_SOLVERS)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_weighted_solvers_reject_non_finite_weights(solver, bad):
    ps = line_ps([0.0, 1.0, 2.0, 5.0])
    with pytest.raises(ValueError, match="finite"):
        solver(ps, np.array([1.0, bad, 1.0, 1.0]), 1, 1)


@pytest.mark.parametrize("solver", WEIGHTED_SOLVERS)
@pytest.mark.parametrize("z", [-1, math.nan, math.inf])
def test_weighted_solvers_reject_bad_budgets(solver, z):
    ps = line_ps([0.0, 1.0, 2.0, 5.0])
    with pytest.raises(ValueError, match="finite and non-negative"):
        solver(ps, np.ones(4), 1, z)


@pytest.mark.parametrize(
    ("weights", "z", "message"),
    [
        pytest.param([1.0, math.nan, 1.0, 1.0], 1, "finite", id="nan-weight"),
        pytest.param([1.0] * 4, -1, "finite and non-negative", id="negative-budget"),
    ],
)
def test_weighted_cost_raises_the_solvers_weight_messages(weights, z, message):
    ps = line_ps([0.0, 1.0, 2.0, 5.0])
    with pytest.raises(ValueError, match=message) as got:
        weighted_cost(ps, range(4), weights, [0], z)
    with pytest.raises(ValueError) as want:
        charikar_3approx(ps, np.asarray(weights), 1, z)
    assert str(got.value) == str(want.value)


def _pairwise(ps):
    return ps.cross_dists(range(ps.n), range(ps.n))


def _assert_matches_reference(ps, weights, k, z):
    # Integer weights keep the reference's Python sums exact.
    w = None if weights is None else np.asarray(weights)
    unit = [1] * ps.n if weights is None else weights
    got = charikar_3approx(ps, w, k, z)
    assert got.indices == oracles.charikar_reference(_pairwise(ps).tolist(), unit, k, z)


# Small integer coordinates repeat points and distances, so score and radius
# ties are common.
dup_coords_strategy = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=14
)


@settings(max_examples=80, deadline=None)
@given(coords=dup_coords_strategy, data=st.data())
def test_charikar_matches_reference_search(coords, data):
    ps = PointSet.from_coords(np.asarray(coords, dtype=np.float64))
    if data.draw(st.booleans()):
        ps = PointSet.from_distance_matrix(_pairwise(ps))
    n = ps.n
    weights = data.draw(st.none() | st.lists(st.integers(1, 5), min_size=n, max_size=n))
    total = n if weights is None else sum(weights)
    k = data.draw(st.integers(1, 4))
    _assert_matches_reference(ps, weights, k, data.draw(st.integers(0, total - 1)))


def test_charikar_matches_reference_search_seeded():
    rng = np.random.default_rng(29)
    for trial in range(24):
        n = int(rng.integers(2, 41))
        ps = PointSet.from_coords(rng.integers(-6, 7, size=(n, 2)).astype(np.float64))
        if trial % 2:
            ps = PointSet.from_distance_matrix(_pairwise(ps))
        weights = None if trial % 3 == 0 else rng.integers(1, 6, size=n).tolist()
        total = n if weights is None else sum(weights)
        z = int(rng.integers(0, total // 3 + 1))
        _assert_matches_reference(ps, weights, 1 + trial % 4, z)


@pytest.mark.parametrize("matrix", [False, True])
@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 255, 256, 257, 600])
def test_pairwise_block_evaluates_each_pair_once(n, matrix, monkeypatch):
    rng = np.random.default_rng(n)
    ps = PointSet.from_coords(rng.normal(scale=5.0, size=(n, 3)))
    if matrix:
        ps = PointSet.from_distance_matrix(_pairwise(ps))
    full = _pairwise(ps)
    shapes = []
    cross_dists = PointSet.cross_dists

    def recording(self, rows, cols):
        block = cross_dists(self, rows, cols)
        shapes.append(block.shape)
        return block

    monkeypatch.setattr(PointSet, "cross_dists", recording)
    before = ps.stats.evals
    got = _pairwise_block(ps)
    assert got.dtype == np.float64 and got.shape == (n, n)
    assert np.array_equal(got.view(np.uint64), full.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), got.T.view(np.uint64))
    # Strips of _BAND_ROWS rows whatever D is, the last one shorter.
    assert [r for r, _ in shapes] == [min(_BAND_ROWS, n - s) for s in range(0, n, _BAND_ROWS)]
    evals = ps.stats.evals - before
    assert evals == sum(r * c for r, c in shapes)
    # Each unordered pair once, plus the mirrored half of each strip's
    # leading square.
    assert evals == n * (n + 1) // 2 + sum(r * (r - 1) // 2 for r, _ in shapes)


@pytest.mark.parametrize("matrix", [False, True])
@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 255, 256, 257, 600])
def test_pairwise_block_in_a_given_order_equals_cross_dists(n, matrix, monkeypatch):
    rng = np.random.default_rng(n + 1)
    ps = PointSet.from_coords(rng.normal(scale=5.0, size=(n, 3)))
    if matrix:
        ps = PointSet.from_distance_matrix(_pairwise(ps))
    order = rng.permutation(n)
    full = ps.cross_dists(order, order)
    calls = []
    cross_dists = PointSet.cross_dists
    monkeypatch.setattr(PointSet, "cross_dists", lambda self, r, c: calls.append(1) or cross_dists(self, r, c))
    before = ps.stats.evals
    got = _pairwise_block(ps, order)
    assert np.array_equal(got.view(np.uint64), full.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), got.T.view(np.uint64))
    assert len(calls) == -(-n // _BAND_ROWS)
    before_default = ps.stats.evals
    _pairwise_block(ps)
    assert before_default - before == ps.stats.evals - before_default


# Tie-heavy integer coordinates, moved to where rounding, underflow or a
# large offset could push a window bound past a pair within r.  At x1e150
# every distance stays finite: |coordinates| <= 12.5 and D <= 5.
_BAND_SCALES = {
    "x1": lambda x: x,
    "+1e8": lambda x: x + 1e8,
    "x1e-154": lambda x: x * 1e-154,
    "x1e-160": lambda x: x * 1e-160,
    "x1e150": lambda x: x * 1e150,
}


def _band_instance(rng, dim, scale, jitter):
    # More rows than one band block, so several blocks and windows run.
    n = int(rng.integers(_BAND_ROWS + 1, 401))
    x = rng.integers(-12, 13, size=(n, dim)).astype(np.float64)
    if jitter:
        rows = rng.choice(n, n // 5, replace=False)
        x[rows] += rng.uniform(-0.5, 0.5, size=(rows.size, dim))
    return PointSet.from_coords(_BAND_SCALES[scale](x))


@pytest.mark.parametrize("jitter", [False, True])
@pytest.mark.parametrize("scale", sorted(_BAND_SCALES))
def test_banded_host_picks_equal_matrix_mode(scale, jitter):
    # Matrix mode runs one full window over the same distances, so with
    # integer weights the banded search must make the same picks.
    rng = np.random.default_rng([sorted(_BAND_SCALES).index(scale), int(jitter), 7])
    for dim in (1, 2, 3, 5):
        for _ in range(5):
            ps = _band_instance(rng, dim, scale, jitter)
            dists = ps.cross_dists(range(ps.n), range(ps.n))
            assert np.isfinite(dists).all()
            matrix = PointSet.from_distance_matrix(dists)
            w = None if rng.random() < 0.3 else rng.integers(1, 6, size=ps.n)
            total = ps.n if w is None else int(w.sum())
            k, z = int(rng.integers(1, 5)), int(rng.integers(0, total // 3 + 1))
            assert charikar_3approx(ps, w, k, z).indices == charikar_3approx(matrix, w, k, z).indices
            assert ps.stats.evals - dists.size == matrix.stats.evals


@pytest.mark.parametrize("scale", sorted(_BAND_SCALES))
def test_band_windows_leave_out_only_pairs_beyond_r(scale):
    rng = np.random.default_rng([sorted(_BAND_SCALES).index(scale), 11])
    partial = 0
    for dim in (1, 2, 3, 5):
        for jitter in (False, True):
            ps = _band_instance(rng, dim, scale, jitter)
            order, xs = _band_order(ps)
            assert (np.diff(xs) >= 0).all()
            dmat = _pairwise_block(ps, order)
            radii = _candidate_radii(dmat)
            for r in [0.0, *rng.choice(radii, size=12).tolist()]:
                for rows, cols in _band_windows(xs, ps.n, r):
                    outside = np.r_[0 : cols.start, cols.stop : ps.n]
                    assert (dmat[rows][:, outside] > r).all()
                    partial += outside.size > 0
    # Every distance at the two smallest scales lies below the 2**-500
    # floor, so there every window is full.
    assert (partial > 0) == (scale not in ("x1e-154", "x1e-160"))


def test_weighted_banded_host_within_three_of_optimum():
    # Real weights change the band's summation order, so picks may differ
    # from an unbanded search on near-ties, but not the guarantee.
    rng = np.random.default_rng(61)
    for _ in range(4):
        n = int(rng.integers(140, 201))
        ps = PointSet.from_coords(rng.normal(scale=10.0, size=(n, 2)))
        w = rng.uniform(0.1, 4.0, size=n)
        z = float(rng.uniform(0.0, 0.2 * w.sum()))
        r_opt = brute_force_opt(ps, 2, z, w).r_opt
        cs = charikar_3approx(ps, w, 2, z)
        assert weighted_cost(ps, range(n), w, cs, z) <= 3 * r_opt + 1e-9


def test_coverage_dtype_is_float32_only_for_exact_integer_scores():
    assert _coverage_dtype(np.ones(5)) is np.float32
    assert _coverage_dtype(np.array([2.0**24 - 2, 1.0])) is np.float32
    assert _coverage_dtype(np.array([2.0**24 - 1, 1.0])) is np.float64
    assert _coverage_dtype(np.array([3.0, 2.5, 1.0])) is np.float64


def test_charikar_scores_stay_exact_at_the_float32_boundary():
    # Integer weights totalling 2**25 + 1: at radius 1, point 1 covers
    # 2**24 + 1 and point 0 covers 2**24, which float32 rounds to a tie that
    # point 0 would win, and its leftover 2**24 + 1 would round into z.
    ps = line_ps([0.0, 100.0, 101.0])
    w = [2**24, 2**24, 1]
    _assert_matches_reference(ps, w, 1, 2**24)
    assert charikar_3approx(ps, np.asarray(w), 1, 2**24).indices == (1,)


def test_charikar_real_weights_below_float32_resolution():
    # Weights 1 and 1 + 2**-30 round to the same float32 value; only float64
    # tells them apart.
    ps = line_ps([0.0, 100.0])
    w = [1.0, 1.0 + 2.0**-30]
    got = charikar_3approx(ps, np.asarray(w), 1, 1.0 + 2.0**-31)
    assert got.indices == oracles.charikar_reference(_pairwise(ps).tolist(), w, 1, 1.0 + 2.0**-31) == (1,)


@pytest.mark.parametrize("matrix", [False, True])
def test_candidate_radii_equal_unique_of_triangle_and_zero(matrix):
    # Small integer coordinates repeat points and distances; n = 1 has an
    # empty strict triangle.
    rng = np.random.default_rng(53 if matrix else 59)
    for n in [1, 1, 2, 2, 3, *rng.integers(4, 60, size=25).tolist()]:
        coords = rng.integers(-3, 4, size=(n, 2)).astype(np.float64)
        ps = PointSet.from_coords(np.vstack([coords, coords[: n // 3]]))
        if matrix:
            ps = PointSet.from_distance_matrix(_pairwise(ps))
        dmat = _pairwise(ps)
        expected = np.unique(np.append(dmat[~np.tri(ps.n, dtype=bool)], 0.0))
        assert np.array_equal(_candidate_radii(dmat), expected)


@pytest.mark.parametrize("integer_weights", [True, False])
def test_weighted_charikar_within_three_of_optimum(integer_weights):
    rng = np.random.default_rng(37 if integer_weights else 41)
    for _ in range(20):
        n = int(rng.integers(4, 11))
        ps = PointSet.from_coords(rng.normal(scale=10.0, size=(n, 2)))
        if integer_weights:
            w = rng.integers(1, 6, size=n).astype(np.float64)
        else:
            w = rng.uniform(0.1, 4.0, size=n)
        k = int(rng.integers(1, 4))
        z = float(rng.uniform(0.0, 0.4 * w.sum()))
        r_opt = brute_force_opt(ps, k, z, w).r_opt
        cs = charikar_3approx(ps, w, k, z)
        assert weighted_cost(ps, range(n), w, cs, z) <= 3 * r_opt + 1e-9


def test_brute_force_weighted_matches_peel_oracle():
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(4, 9))
        ps = PointSet.from_coords(rng.integers(-20, 20, size=(n, 2)).astype(np.float64))
        pts = [tuple(row) for row in ps.coords]
        w = rng.integers(1, 4, size=n)
        k, z = 2, int(rng.integers(0, 3))
        if w.sum() <= z or k >= n:
            continue
        got = brute_force_opt(ps, k, z, w)
        best = min(
            oracles.weighted_peel(oracles.nearest_dists(pts, combo), w.tolist(), z)[0]
            for combo in itertools.combinations(range(n), k)
        )
        assert got.r_opt == pytest.approx(best, rel=1e-12)
        assert len(got.opt_centers) == k


def _tie_heavy_instance(rng, matrix):
    n = int(rng.integers(3, 10))
    ps = PointSet.from_coords(rng.integers(-3, 4, size=(n, 2)).astype(np.float64))
    if matrix:
        ps = PointSet.from_distance_matrix(_pairwise(ps))
    return ps, int(rng.integers(1, min(3, n - 1) + 1))


@pytest.mark.parametrize("matrix", [False, True])
def test_brute_force_unit_weights_equal_no_weights(matrix):
    rng = np.random.default_rng(43)
    for _ in range(40):
        ps, k = _tie_heavy_instance(rng, matrix)
        z = int(rng.integers(0, ps.n - k))
        plain = brute_force_opt(ps, k, z)
        unit = brute_force_opt(ps, k, z, np.ones(ps.n))
        assert unit.r_opt.hex() == plain.r_opt.hex()
        assert unit.opt_centers == plain.opt_centers
        assert unit.opt_excluded == plain.opt_excluded


def test_brute_force_unit_weights_equal_the_sorted_peel():
    # No weights take the partition peel; weight 2 with budget 2z peels the
    # same points through the stable sort.
    rng = np.random.default_rng(53)
    for matrix in [False, True] * 100:
        ps, k = _tie_heavy_instance(rng, matrix)
        z = float(rng.integers(0, ps.n - k)) + float(rng.choice([0.0, 0.5]))
        plain = brute_force_opt(ps, k, z)
        doubled = brute_force_opt(ps, k, 2 * z, np.full(ps.n, 2.0))
        assert plain.r_opt.hex() == doubled.r_opt.hex()
        assert plain.opt_centers == doubled.opt_centers
        assert plain.opt_excluded == doubled.opt_excluded


def test_brute_force_weights_equal_expansion():
    # giving a point weight w is the same as placing w copies of it
    rng = np.random.default_rng(47)
    for _ in range(20):
        ps, k = _tie_heavy_instance(rng, False)
        w = rng.integers(1, 4, size=ps.n)
        expanded = PointSet.from_coords(np.repeat(ps.coords, w, axis=0))
        z = int(rng.integers(0, w.sum() - k))
        assert brute_force_opt(ps, k, z, w).r_opt == brute_force_opt(expanded, k, z).r_opt


def test_brute_force_weighted_excludes_the_points_peeled_whole():
    # Integer points on a line keep every distance and weight sum exact, so
    # the radii tie as often as they do in the oracle.
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        pts = [(float(x),) for x in rng.integers(0, 12, size=n)]
        w = rng.integers(1, 4, size=n).tolist()
        k = int(rng.integers(1, 3))
        z = int(rng.integers(0, sum(w)))
        want_r, want_c, want_peeled = math.inf, None, None
        for combo in itertools.combinations(range(n), k):
            r, peeled = oracles.weighted_peel(oracles.nearest_dists(pts, combo), w, z)
            if r < want_r:
                want_r, want_c, want_peeled = r, combo, peeled
        got = brute_force_opt(PointSet.from_coords(np.asarray(pts)), k, z, np.asarray(w))
        assert got.r_opt == want_r
        assert got.opt_centers.indices == want_c
        assert got.opt_excluded == frozenset(want_peeled)


def _probe_log(monkeypatch):
    # Record each computed probe's radius and leftover.
    log = []
    greedy = solvers._coverage_greedy

    def recording(dmat, cover, w, k, r, xs, inv):
        found, leftover = greedy(dmat, cover, w, k, r, xs, inv)
        log.append((r, leftover))
        return found, leftover

    monkeypatch.setattr(solvers, "_coverage_greedy", recording)
    return log


def _solve_with_bound(monkeypatch, bound, ps, w, k, z):
    # Picks and computed probes with the farthest-first bound replaced by
    # ``bound`` (None keeps the real one).
    log = _probe_log(monkeypatch)
    if bound is not None:
        monkeypatch.setattr(solvers, "_farthest_first_bound", lambda *args: bound)
    picks = charikar_3approx(ps, w, k, z).indices
    monkeypatch.undo()
    return picks, log


def _skip_instance(rng, kind, dim):
    # Coordinates for the skip tests: "coreset" is a few weighted clusters
    # with far unit-weight points, "lattice" small integers with duplicated
    # points and distances, "tiny" and "huge" that lattice near 1e-160 and
    # near the magnitude limit M(D).
    if kind == "coreset":
        n_near, n_far = int(rng.integers(20, 160)), int(rng.integers(1, 12))
        centers = rng.normal(scale=20.0, size=(int(rng.integers(1, 6)), dim))
        near = centers[rng.integers(0, len(centers), n_near)] + rng.normal(size=(n_near, dim))
        far = rng.normal(scale=400.0, size=(n_far, dim))
        x = np.vstack([near, far])
        w = np.concatenate([rng.integers(1, 40, n_near), np.ones(n_far, dtype=np.int64)])
        return PointSet.from_coords(x), w, n_far
    x = rng.integers(-4, 5, size=(int(rng.integers(2, 60)), dim)).astype(np.float64)
    x = {"lattice": x, "tiny": x * 1e-160, "huge": x * (_max_coordinate(dim) / 4.0)}[kind]
    w = None if rng.random() < 0.3 else rng.integers(1, 6, size=len(x))
    total = len(x) if w is None else int(w.sum())
    return PointSet.from_coords(x), w, int(rng.integers(0, total // 3 + 1))


def test_farthest_first_bound_is_the_weighted_radius_of_its_picks():
    # The heaviest point, then weight times distance to the picks so far,
    # the lowest index on ties; U peels z off the picks' distances and
    # bounds the discrete optimum.
    rng = np.random.default_rng(89)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        ps = PointSet.from_coords(rng.integers(-5, 6, size=(n, 2)).astype(np.float64))
        w = rng.integers(1, 5, size=n).astype(np.float64)
        k, z = int(rng.integers(1, n + 1)), int(rng.integers(0, int(w.sum())))
        dmat = _pairwise(ps).tolist()
        picks = [max(range(n), key=lambda i: (w[i], -i))]
        for _ in range(k - 1):
            near = [min(dmat[p][i] for p in picks) for i in range(n)]
            picks.append(max(range(n), key=lambda i: (w[i] * near[i], -i)))
        near = [min(dmat[p][i] for p in picks) for i in range(n)]
        bound = solvers._farthest_first_bound(np.array(dmat), w, k, z)
        assert bound == oracles.weighted_peel(near, w.tolist(), z)[0]
        assert bound >= brute_force_opt(ps, k, z, w).r_opt


@pytest.mark.parametrize("kind", ["coreset", "lattice", "tiny", "huge"])
def test_bound_leaves_probes_and_picks_unchanged(kind, monkeypatch):
    # Skipping probes above the farthest-first bound changes neither the
    # picks nor the result of any probe that runs, and under integer
    # weights the picks equal the pure-Python search's.
    rng = np.random.default_rng(["coreset", "lattice", "tiny", "huge"].index(kind) + 70)
    skipped = 0
    for dim in range(1, 9):
        for _ in range(4):
            ps, w, z = _skip_instance(rng, kind, dim)
            k = int(rng.integers(1, 6))
            got, computed = _solve_with_bound(monkeypatch, None, ps, w, k, z)
            want, every = _solve_with_bound(monkeypatch, math.inf, ps, w, k, z)
            assert got == want
            assert set(computed) <= set(every)
            skipped += len(every) - len(computed)
            if ps.n <= 60:
                unit = [1] * ps.n if w is None else w.tolist()
                assert got == oracles.charikar_reference(_pairwise(ps).tolist(), unit, k, z)
    # Below the bound's 2**-500 floor nothing is skipped.
    assert (skipped > 0) == (kind != "tiny")


@pytest.mark.parametrize("matrix", [False, True])
def test_matrix_mode_and_real_weights_never_skip(matrix, monkeypatch):
    # A bound of 0 would skip every positive guess; matrix mode and real
    # weights must not read it.
    rng = np.random.default_rng(83 + matrix)
    for _ in range(6):
        ps = PointSet.from_coords(rng.integers(-6, 7, size=(int(rng.integers(4, 200)), 2)).astype(np.float64))
        w = rng.uniform(0.5, 3.0, size=ps.n)
        if matrix:
            ps, w = PointSet.from_distance_matrix(_pairwise(ps)), np.ceil(w)
        z = float(rng.uniform(0.0, 0.3 * w.sum()))
        got, computed = _solve_with_bound(monkeypatch, 0.0, ps, w, 2, z)
        want, every = _solve_with_bound(monkeypatch, math.inf, ps, w, 2, z)
        assert got == want and computed == every


def test_planted_coreset_host_skips_probes(monkeypatch):
    spec = GeneratorSpec(n_inliers=3000, clusters=5, dim=2, grid_dim=2, cluster_radius=1.0, outliers=60)
    ps = planted_instance(spec, 3).ps
    cs = build_coreset_auto(ps, ParamSet(k=5, z=60, n=ps.n), np.random.default_rng(0))
    sub = ps.subset(cs.indices)
    got, computed = _solve_with_bound(monkeypatch, None, sub, cs.weights, 5, 60)
    want, every = _solve_with_bound(monkeypatch, math.inf, sub, cs.weights, 5, 60)
    assert got == want and len(computed) < len(every)


def test_skipped_final_guess_runs_once_more(monkeypatch):
    # A bound just below the smallest feasible guess skips every feasible
    # probe, so the final guess runs at the end and gives the same picks;
    # a bound of 0 makes that final guess infeasible, which the guard reports.
    ps = PointSet.from_coords(np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0], [10.0, 1.0], [30.0, 5.0], [31.0, 5.0]]))
    want, every = _solve_with_bound(monkeypatch, math.inf, ps, None, 2, 1)
    r_min = min(r for r, left in every if left <= 1)
    below = max(r for r, left in every if left > 1)
    assert below < r_min
    got, computed = _solve_with_bound(monkeypatch, below, ps, None, 2, 1)
    assert got == want
    assert all(left > 1 for _, left in computed[:-1]) and computed[-1][0] == r_min
    monkeypatch.setattr(solvers, "_farthest_first_bound", lambda *args: 0.0)
    with pytest.raises(RuntimeError, match="final guess must be feasible"):
        charikar_3approx(ps, None, 2, 1)

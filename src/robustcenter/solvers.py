"""Host solvers: baselines that consume plain or weighted instances.

These are deliberately classical algorithms (the radius-guessing
3-approximation, exhaustive search) used as composition hosts and as
ground-truth oracles in tests.  Everything here is deterministic given its
inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import CenterSet, GuardError, PointSet, _checked_weights, _count, _rows_per_chunk
from .core import clustering_cost, peel_weight

__all__ = [
    "OracleResult",
    "charikar_3approx",
    "brute_force_opt",
]

ENUMERATION_GUARD = 2_000_000
_MATRIX_GUARD = 4_000  # full pairwise block above this is not desk-scale
_BAND_ROWS = 128  # host rows per block build and per coverage window (charikar_3approx)


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive-search outcome: optimal radius, the lexicographically
    smallest optimal center set, and the points peeled whole at that optimum
    (all z of them without weights; a straddling point is not excluded)."""

    r_opt: float
    opt_centers: CenterSet
    opt_excluded: frozenset[int]


def _pairwise_block(ps: PointSet, order: np.ndarray | None = None) -> np.ndarray:
    # The n x n distance block between the points taken in ``order`` (input
    # order by default): strips of up to _BAND_ROWS rows of the upper
    # triangle, diagonal included, mirrored below it.  That makes n(n+1)/2
    # evaluations plus r(r-1)/2 per strip of r rows, whatever D, so a matrix
    # twin counts the same.  Distances are exactly symmetric, so the block
    # equals ps.cross_dists(order, order) bit for bit.
    n = ps.n
    idx = np.arange(n) if order is None else order
    dmat = np.empty((n, n))
    for s in range(0, n, _BAND_ROWS):
        e = min(s + _BAND_ROWS, n)
        strip = ps.cross_dists(idx[s:e], idx[s:])
        dmat[s:e, s:] = strip
        dmat[e:, s:e] = strip[:, e - s :].T
    return dmat


def _guard_pairwise(n: int, bytes_per_pair: int, what: str) -> None:
    if n > _MATRIX_GUARD:
        raise GuardError(
            f"instance too large for {what} (n={n} > {_MATRIX_GUARD}): its n x n blocks "
            f"would need {n * n * bytes_per_pair} bytes ({bytes_per_pair} per pair)"
        )


def _coverage_dtype(w: np.ndarray) -> type:
    # Integer weights totalling below 2**24 keep every float32 score an exact
    # integer, so argmax, ties and leftovers equal float64's.
    if float(w.sum()) < 2**24 and np.array_equal(w, np.floor(w)):
        return np.float32
    return np.float64


def _band_order(ps: PointSet) -> tuple[np.ndarray, np.ndarray | None]:
    # The host's point order and, when it is banded, the sorted values of
    # the axis of largest variance.  Matrix mode and n <= _BAND_ROWS keep
    # input order and one full window.  Any axis keeps the band exact; an
    # overflowing variance only picks a weaker one.
    if ps.mode == "matrix" or ps.n <= _BAND_ROWS:
        return np.arange(ps.n), None
    with np.errstate(over="ignore", invalid="ignore"):
        axis = int(np.argmax(ps.coords.var(axis=0)))
    order = np.argsort(ps.coords[:, axis], kind="stable")
    return order, ps.coords[order, axis]


def _band_windows(xs: np.ndarray | None, n: int, r: float) -> list[tuple[slice, slice]]:
    # Blocks of _BAND_ROWS sorted rows, each with the columns whose axis
    # values lie within r' of the block's: every pair outside has a
    # distance above r (charikar_3approx gives the argument).
    if xs is None:
        return [(slice(0, n), slice(0, n))]
    starts = np.arange(0, n, _BAND_ROWS)
    ends = np.minimum(starts + _BAND_ROWS, n)
    pad = r + 2.0**-40 * (max(abs(xs[0]), abs(xs[-1])) + r) + 2.0**-500
    lo = np.searchsorted(xs, xs[starts] - pad, side="left").tolist()
    hi = np.searchsorted(xs, xs[ends - 1] + pad, side="right").tolist()
    return [(slice(s, e), slice(a, b)) for s, e, a, b in zip(starts.tolist(), ends.tolist(), lo, hi)]


def _coverage_greedy(
    dmat: np.ndarray,
    cover: np.ndarray,
    w: np.ndarray,
    k: int,
    r: float,
    xs: np.ndarray | None,
    inv: np.ndarray,
) -> tuple[list[int], float]:
    # Pick the point covering the most uncovered weight within r, then mark
    # everything within 3r covered.  ``dmat``, ``cover`` and ``w`` are in
    # host order, ``xs`` its sorted axis values (``_band_order``), and
    # ``inv`` maps input indices to it.  ``cover`` (w's dtype) is the
    # caller's n x n scratch: each window's compare lands in it as the 0/1
    # coverage block, so a pick's scores are one matrix-vector product per
    # window; entries outside the windows are never read.  Returns picks
    # (input indices, the lowest on equal scores) and leftover weight.
    windows = _band_windows(xs, dmat.shape[0], r)
    for rows, cols in windows:
        np.less_equal(dmat[rows, cols], r, out=cover[rows, cols], casting="unsafe")
    uncovered = w.copy()
    scores = np.empty_like(w)
    picks: list[int] = []
    for _ in range(k):
        for rows, cols in windows:
            np.matmul(cover[rows, cols], uncovered[cols], out=scores[rows])
        best = int(np.argmax(scores[inv]))
        if scores[inv[best]] <= 0.0:
            break
        picks.append(best)
        uncovered[dmat[inv[best]] <= 3.0 * r] = 0.0
    return picks, float(uncovered.sum())


def _candidate_radii(dmat: np.ndarray) -> np.ndarray:
    # The block is exactly symmetric with a zero diagonal, so its upper
    # triangle, diagonal included, holds zero and every distinct distance:
    # sort those rows once and keep the first value of each run.
    vals = np.concatenate([dmat[i, i:] for i in range(dmat.shape[0])])
    vals.sort()
    first = np.empty(vals.size, dtype=bool)
    first[0] = True
    np.not_equal(vals[1:], vals[:-1], out=first[1:])
    return vals[first]


def _farthest_first_bound(dmat: np.ndarray, w: np.ndarray, k: int, z: float) -> float:
    # U, the exact weighted radius (``peel_weight``) of k host points picked
    # by a weighted farthest-first traversal in host order: the heaviest
    # point first, then each pick maximising weight times distance to the
    # picks so far, the lowest index on ties.  Any k points bound the
    # optimum, so the picks only decide how tight U is.
    mind = dmat[int(np.argmax(w))].copy()
    for _ in range(min(k, dmat.shape[0]) - 1):
        np.minimum(mind, dmat[int(np.argmax(w * mind))], out=mind)
    return float(peel_weight(mind, w, z)[0])


def charikar_3approx(
    ps: PointSet, weights: np.ndarray | None, k: int, z: float
) -> CenterSet:
    """Weighted 3-approximation for k-center with outlier weight budget z.

    Binary-searches the sorted pairwise distances for the smallest radius
    guess whose coverage greedy leaves at most z weight uncovered, and returns
    the picks of that guess.  Intended for coreset-scale inputs (up to 4,000
    points): the block evaluates n(n+1)/2 pairs plus r(r-1)/2 for each
    strip of r <= _BAND_ROWS rows (``_pairwise_block``), and the host holds
    8 + 4 bytes per pair (the float64 pairwise block and a float32 coverage
    matrix), or 8 + 8 when a weight is not an integer or the total reaches
    2**24.  With integer weights the picks equal those of the pure-Python
    search in ``tests/oracles.py`` (``charikar_reference``), bit for bit.

    On coordinates of more than _BAND_ROWS points, the host sorts its
    points (stably) by the axis of largest variance and builds the block in
    that order.  For a guess r it cuts the rows into blocks of _BAND_ROWS
    and gives each block the window of columns whose axis values lie within

        r' = r + 2**-40 (M + r) + 2**-500,   M = max |axis value|,

    of the block's first and last values (``searchsorted``).  The compare
    into the coverage matrix and every pick's score product run only on
    those windows; the 3r cover update reads whole rows.  A matrix, and
    n <= _BAND_ROWS, take one full window in input order.  Picks are mapped
    back to input indices, the lowest one winning equal scores, so with
    integer weights (exact scores in any order) the picks, the probes and
    the evaluation count do not depend on the band.  Real weights sum in
    window order, so near-ties may pick differently than a full row would.

    Why a pair (i, j) outside its window has distance above r.  Let
    d = fl(x_i - x_j) on the sort axis.
    - The kernel adds rounded squares, all non-negative, so its sum is
      never below the sort axis's square fl(d*d), and the rooted distance is never
      below fl(sqrt(fl(d*d))).
    - fl(sqrt(fl(d*d))) = |d| when d*d neither overflows nor underflows, and
      the magnitude rule of ``PointSet.from_coords`` keeps d*d <= DBL_MAX / D.
    - So the distance is at least |d|, and it remains to show |d| > r.
      The column's value lies beyond fl(x_b - r') or fl(x_b + r') for the
      block's first or last value x_b, and the row's value lies on the
      block's side of x_b.  Computing r', that bound and d moves each by at
      most u = 2**-53 of a size below M + r', plus at most 2**-1075 where a
      product underflows, so |d| > r' - 5u(M + r') > r: the 2**-40 term
      covers the relative part many times over, the floor the rest.
    - The same bound keeps |d| above (1 - 5u) 2**-500, whose square is a
      normal number, so fl(d*d) does not underflow.  Without the floor,
      points a few 1e-160 apart lost pairs within r to underflowing
      squares.
    In a sweep of _BAND_ROWS over 64, 128 and 256 on 2,000-point coreset
    hosts, 64 and 128 ran the probes within a few percent of each other
    and 256 about 10% slower; 128 makes half as many products as 64.

    The search does not run the probes that Charikar et al.'s lemma
    decides.  On coordinates with integer weights (the float32 coverage
    path, whose scores are exact) the host first computes U, the exact
    weighted radius of k points from a weighted farthest-first traversal
    (``_farthest_first_bound``: k row reads and one peel, no new distance).
    A visited guess

        r > fl(fl(U (1 + 2**-40)) + 2**-500)

    is feasible, so the search moves hi to it without running its greedy;
    when the final hi is such a guess, its greedy runs once at the end.  The
    probe sequence and the picks equal those of the search without the
    bound.  A matrix, which need not obey the triangle inequality, and real
    weights, whose scores round, never skip a probe.

    Why every skipped guess is feasible.  Write d(p, q) for the kernel's
    rooted distance (the block's entry), t(p, q) for the exact distance
    between the stored coordinates, and u = 2**-53.  To first order in u:
    - Kernel error.  Each axis's difference rounds once (exactly when it
      underflows), its square once, losing at most 2**-1075 when it
      underflows, and ``core._sum_axes`` passes each square through at most
      L <= 24 + log2 D additions of non-negative terms (at most 24 up to
      128 axes, one more per halving above).  The root rounds once.  So
      (1 - e)t - a <= d <= (1 + e)t + a, with e = (L + 5)u/2 and
      a = sqrt(2D 2**-1075).  An array holds fewer than 2**60 doubles, so
      for every D that ``PointSet.from_coords`` admits, L < 84, e < 45u
      and a < 2**-506; its magnitude rule keeps every square finite.
    - Rounded triangle inequality.  Let d(c, p) <= U, d(c, q) <= U and
      d(g, q) <= r for a skipped r.  Then t(g, p) <= t(g, q) + t(q, c) +
      t(c, p) <= (r + 2U + 3a)/(1 - e), so d(g, p) <= (1 + 2e)(r + 2U +
      3a) + a.  The skip test rounds twice, so 2U < 2r(1 - 2**-40 + 2u) -
      1.99 * 2**-500, and d(g, p) < 3r - (2**-39 - 280u)r - (1.99 *
      2**-500 - 4a) < 3r(1 - u) <= fl(3.0 * r), as r > 2**-500 makes 3r a
      normal number.  The 2**-40 term covers the relative part many times
      over, the floor the absolute one.
    - Charikar et al.'s count.  Let t_1..t_k be the traversal's picks and
      O_j the points within U of t_j and of no earlier pick.  The points
      outside every O_j lie beyond U of all picks, so ``peel_weight`` peeled
      them whole and they weigh at most z (integer weights keep its float64
      running sum exact).  U < r puts each O_j in the r-disk of t_j, and
      by the inequality above, a pick whose r-disk meets O_j covers all
      of O_j within 3r.  So each greedy round either covers whole every
      remaining O_j that its disk meets, or meets none and covers, outside
      the remaining O_j, at least the uncovered weight of one of them: its
      exact score is at least t_j's.  After k rounds, or an earlier stop at
      score 0 with nothing left uncovered, at most z weight remains.
    """
    n = ps.n
    k = _count(k, "k", 1)
    w = _checked_weights(n, np.ones(n) if weights is None else weights, z)
    dtype = _coverage_dtype(w)
    _guard_pairwise(n, 8 + np.dtype(dtype).itemsize, "the radius-guessing solver")
    order, xs = _band_order(ps)
    inv = np.argsort(order)
    w = w[order]
    dmat = _pairwise_block(ps, order)
    candidates = _candidate_radii(dmat)
    feasible_above = math.inf  # every guess above it is feasible (proof above)
    if ps.mode == "euclidean" and dtype is np.float32:
        feasible_above = _farthest_first_bound(dmat, w, k, z) * (1.0 + 2.0**-40) + 2.0**-500
    w = w.astype(dtype)
    cover = np.empty((n, n), dtype=dtype)
    picks: list[int] | None = None
    lo, hi = -1, candidates.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if candidates[mid] > feasible_above:
            hi, picks = mid, None
            continue
        found, leftover = _coverage_greedy(dmat, cover, w, k, float(candidates[mid]), xs, inv)
        if leftover <= z:
            hi, picks = mid, found
        else:
            lo = mid
    if picks is None:  # the final guess is the largest distance or was skipped
        picks, leftover = _coverage_greedy(dmat, cover, w, k, float(candidates[hi]), xs, inv)
        if leftover > z:
            raise RuntimeError("the final guess must be feasible: it is the largest distance or lies above the bound")
    return CenterSet(tuple(picks), tuple(range(1, len(picks) + 1)))


def _combo_batches(n: int, k: int, batch: int):
    it = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(it, batch))
        if not block:
            return
        yield np.asarray(block, dtype=np.intp)


def brute_force_opt(
    ps: PointSet, k: int, z: float, weights: np.ndarray | None = None
) -> OracleResult:
    """Exhaustive optimum over all k-subsets of the weighted strict cost:
    each subset's radius is the straddler's distance when z units of weight
    are peeled farthest first (``core.peel_weight``).  No weights means unit
    weights, where an integer z drops exactly the z farthest points.

    Ties on the radius resolve to the lexicographically smallest center set
    (enumeration order).  Guarded to C(n, k) <= 2e6 and n <= 4000.
    """
    n = ps.n
    k = _count(k, "k", 1, n)
    w = _checked_weights(n, np.ones(n) if weights is None else weights, z)
    _guard_pairwise(n, 8, "exhaustive search")
    if math.comb(n, k) > ENUMERATION_GUARD:
        raise GuardError(f"enumeration budget exceeded: C({n},{k}) > {ENUMERATION_GUARD}")
    dmat = _pairwise_block(ps)
    best_r, best_combo, best_whole = math.inf, None, 0
    for combos in _combo_batches(n, k, _rows_per_chunk(k * n)):
        radii, whole = peel_weight(dmat[combos].min(axis=1), w, z)
        pos = int(np.argmin(radii))
        if radii[pos] < best_r:  # in-order fold keeps the lexicographic tie rule
            best_r, best_combo, best_whole = float(radii[pos]), combos[pos], int(whole[pos])
    centers = CenterSet(tuple(int(i) for i in best_combo), tuple([1] * k))
    excluded = clustering_cost(ps, centers, best_whole, 0.0).excluded
    return OracleResult(r_opt=best_r, opt_centers=centers, opt_excluded=excluded)

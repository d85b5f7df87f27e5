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

from .core import CenterSet, GuardError, PointSet, _checked_weights, _count, clustering_cost, peel_weight

__all__ = [
    "OracleResult",
    "charikar_3approx",
    "brute_force_opt",
]

ENUMERATION_GUARD = 2_000_000
_MATRIX_GUARD = 4_000  # full pairwise block above this is not desk-scale
_STRIP_ROWS = 256


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive-search outcome: optimal radius, the lexicographically
    smallest optimal center set, and the points peeled whole at that optimum
    (all z of them without weights; a straddling point is not excluded)."""

    r_opt: float
    opt_centers: CenterSet
    opt_excluded: frozenset[int]


def _pairwise_block(ps: PointSet) -> np.ndarray:
    # The n x n distance block with each unordered pair evaluated once:
    # strips of up to 256 rows of the upper triangle, diagonal included,
    # mirrored below it.  Distances are exactly symmetric, so the block
    # equals ps.cross_dists(arange(n), arange(n)) bit for bit.
    n = ps.n
    dmat = np.empty((n, n))
    for s in range(0, n, _STRIP_ROWS):
        e = min(s + _STRIP_ROWS, n)
        strip = ps.cross_dists(np.arange(s, e), np.arange(s, n))
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


def _coverage_greedy(
    dmat: np.ndarray, cover: np.ndarray, w: np.ndarray, k: int, r: float
) -> tuple[list[int], float]:
    # Pick the point covering the most uncovered weight within r, then mark
    # everything within 3r covered.  ``cover`` (w's dtype) is the caller's
    # n x n scratch: the compare lands in it as the 0/1 coverage matrix, so
    # the scores are one matrix-vector product per pick.  Returns picks and
    # leftover weight.
    np.less_equal(dmat, r, out=cover, casting="unsafe")
    uncovered = w.copy()
    picks: list[int] = []
    for _ in range(k):
        scores = cover @ uncovered
        best = int(np.argmax(scores))
        if scores[best] <= 0.0:
            break
        picks.append(best)
        uncovered[dmat[best] <= 3.0 * r] = 0.0
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


def charikar_3approx(
    ps: PointSet, weights: np.ndarray | None, k: int, z: float
) -> CenterSet:
    """Weighted 3-approximation for k-center with outlier weight budget z.

    Binary-searches the sorted pairwise distances for the smallest radius
    guess whose coverage greedy leaves at most z weight uncovered, and returns
    the picks of that guess.  Intended for coreset-scale inputs (up to 4,000
    points): each unordered pair is evaluated once, and the host holds
    8 + 4 bytes per pair (the float64 pairwise block and a float32 coverage
    matrix), or 8 + 8 when a weight is not an integer or the total reaches
    2**24.  The picks equal those of the pure-Python search
    in ``tests/oracles.py`` (``charikar_reference``), bit for bit.
    """
    n = ps.n
    k = _count(k, "k", 1)
    w = _checked_weights(n, np.ones(n) if weights is None else weights, z)
    dtype = _coverage_dtype(w)
    _guard_pairwise(n, 8 + np.dtype(dtype).itemsize, "the radius-guessing solver")
    w = w.astype(dtype)
    dmat = _pairwise_block(ps)
    candidates = _candidate_radii(dmat)
    cover = np.empty((n, n), dtype=dtype)
    picks: list[int] | None = None
    lo, hi = -1, candidates.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        found, leftover = _coverage_greedy(dmat, cover, w, k, float(candidates[mid]))
        if leftover <= z:
            hi, picks = mid, found
        else:
            lo = mid
    if picks is None:  # no guess below the largest distance was feasible
        picks, leftover = _coverage_greedy(dmat, cover, w, k, float(candidates[hi]))
        if leftover > z:
            raise RuntimeError("largest pairwise distance must be feasible")
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
    for combos in _combo_batches(n, k, max(64, (1 << 21) // max(1, k * n))):
        radii, whole = peel_weight(dmat[combos].min(axis=1), w, z)
        pos = int(np.argmin(radii))
        if radii[pos] < best_r:  # in-order fold keeps the lexicographic tie rule
            best_r, best_combo, best_whole = float(radii[pos]), combos[pos], int(whole[pos])
    centers = CenterSet(tuple(int(i) for i in best_combo), tuple([1] * k))
    excluded = clustering_cost(ps, centers, best_whole, 0.0).excluded
    return OracleResult(r_opt=best_r, opt_centers=centers, opt_excluded=excluded)

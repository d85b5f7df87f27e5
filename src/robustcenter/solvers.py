"""Host solvers: baselines that consume plain or weighted instances.

These are deliberately classical algorithms (farthest-first traversal, the
radius-guessing 3-approximation, exhaustive search) used as composition hosts
and as ground-truth oracles in tests.  Everything here is deterministic given
its inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import CenterSet, GuardError, NearestTracker, PointSet, _checked_weights, clustering_cost, peel_weight

__all__ = [
    "OracleResult",
    "gonzalez",
    "charikar_3approx",
    "brute_force_opt",
]

ENUMERATION_GUARD = 2_000_000
_MATRIX_GUARD = 4_000  # full pairwise block above this is not desk-scale


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive-search outcome: optimal radius, the lexicographically
    smallest optimal center set, and the points peeled whole at that optimum
    (all z of them without weights; a straddling point is not excluded)."""

    r_opt: float
    opt_centers: CenterSet
    opt_excluded: frozenset[int]


def gonzalez(ps: PointSet, k: int, rng: np.random.Generator | None = None) -> CenterSet:
    """Farthest-first traversal; 2-approximation for the no-outlier problem.

    The start point is uniform when an rng is given and index 0 otherwise;
    every later pick is the point farthest from the chosen set, lower index
    winning ties.  The result carries the traversal's distances for
    ``clustering_cost`` on ``ps``.
    """
    if not 1 <= k <= ps.n:
        raise ValueError("k must lie in [1, n]")
    start = int(rng.integers(ps.n)) if rng is not None else 0
    tracker = NearestTracker(ps)
    tracker.add_center(start)
    for _ in range(k - 1):
        if float(tracker.mindist.max()) == 0.0:
            break
        tracker.add_center(int(np.argmax(tracker.mindist)))
    return CenterSet._from_tracker(tracker, tuple(range(1, len(tracker.centers) + 1)))


def _coverage_greedy(
    dmat: np.ndarray, near: np.ndarray, w: np.ndarray, k: int, r: float
) -> tuple[list[int], float]:
    # Pick the point covering the most uncovered weight within r, then mark
    # everything within 3r covered.  ``near`` is the caller's n x n float64
    # scratch, refilled here with the 0/1 coverage matrix of radius r, so the
    # scores are one float matrix-vector product per pick.  Returns picks and
    # leftover weight.
    np.less_equal(dmat, r, out=near)
    uncovered = w.copy()
    picks: list[int] = []
    for _ in range(k):
        scores = near @ uncovered
        best = int(np.argmax(scores))
        if scores[best] <= 0.0:
            break
        picks.append(best)
        uncovered[dmat[best] <= 3.0 * r] = 0.0
    return picks, float(uncovered.sum())


def _candidate_radii(dmat: np.ndarray) -> np.ndarray:
    # The block is exactly symmetric with a zero diagonal, so its upper
    # triangle, diagonal included, holds zero and every distinct distance.
    return np.unique(dmat[~np.tri(dmat.shape[0], k=-1, dtype=bool)])


def charikar_3approx(
    ps: PointSet, weights: np.ndarray | None, k: int, z: float
) -> CenterSet:
    """Weighted 3-approximation for k-center with outlier weight budget z.

    Binary-searches the sorted pairwise distances for the smallest radius
    guess whose coverage greedy leaves at most z weight uncovered, and returns
    the picks of that guess.  Intended for coreset-scale inputs: besides the
    float64 pairwise block it holds one float64 n x n coverage matrix, refilled
    at each guess.  The picks equal those of the pure-Python search in
    ``tests/oracles.py`` (``charikar_reference``), bit for bit.
    """
    n = ps.n
    if k < 1:
        raise ValueError("k must be >= 1")
    if n > _MATRIX_GUARD:
        raise GuardError(f"instance too large for the radius-guessing solver (n={n})")
    w = _checked_weights(n, np.ones(n) if weights is None else weights, z)
    dmat = ps.cross_dists(np.arange(n), np.arange(n))
    candidates = _candidate_radii(dmat)
    near = np.empty_like(dmat)
    picks: list[int] | None = None
    lo, hi = -1, candidates.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        found, leftover = _coverage_greedy(dmat, near, w, k, float(candidates[mid]))
        if leftover <= z:
            hi, picks = mid, found
        else:
            lo = mid
    if picks is None:  # no guess below the largest distance was feasible
        picks, leftover = _coverage_greedy(dmat, near, w, k, float(candidates[hi]))
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
    if not 1 <= k <= n:
        raise ValueError("k must lie in [1, n]")
    w = _checked_weights(n, np.ones(n) if weights is None else weights, z)
    if n > _MATRIX_GUARD:
        raise GuardError(f"instance too large for exhaustive search (n={n})")
    if math.comb(n, k) > ENUMERATION_GUARD:
        raise GuardError(f"enumeration budget exceeded: C({n},{k}) > {ENUMERATION_GUARD}")
    dmat = ps.cross_dists(np.arange(n), np.arange(n))
    best_r, best_combo, best_whole = math.inf, None, 0
    for combos in _combo_batches(n, k, max(64, (1 << 21) // max(1, k * n))):
        radii, whole = peel_weight(dmat[combos].min(axis=1), w, z)
        pos = int(np.argmin(radii))
        if radii[pos] < best_r:  # in-order fold keeps the lexicographic tie rule
            best_r, best_combo, best_whole = float(radii[pos]), combos[pos], int(whole[pos])
    centers = CenterSet(tuple(int(i) for i in best_combo), tuple([1] * k))
    excluded = clustering_cost(ps, centers, best_whole, 0.0).excluded
    return OracleResult(r_opt=best_r, opt_centers=centers, opt_excluded=excluded)

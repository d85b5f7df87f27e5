"""Pure-python reference implementations used to cross-check the library.

Everything here avoids numpy on purpose: distances go through math.dist and
selection is done with sorted() so the two code paths share nothing beyond
float64 arithmetic.
"""

import itertools
import math
from fractions import Fraction

from robustcenter.core import GuardError

ALLOCATION_GUARD = 2_000_000


def exclusion_count(z: int, eps) -> int:
    """ceil((1 + eps) * z) computed exactly through Fraction."""
    return max(0, math.ceil(Fraction(str(eps)) * z + z))


def nearest_dists(points, centers):
    return [min(math.dist(p, points[c]) for c in centers) for p in points]


def cost_excluding(points, centers, m: int) -> float:
    dists = nearest_dists(points, centers)
    order = sorted(range(len(points)), key=lambda i: (-dists[i], i))
    kept = order[m:]
    if not kept:
        raise ValueError("excluded everything")
    return max(dists[i] for i in kept)


def naive_cost(points, centers, z: int, eps=0) -> float:
    return cost_excluding(points, centers, exclusion_count(z, eps))


def exhaustive_opt(points, k: int, z: int):
    """Smallest radius over every k-subset; ties resolved to the
    lexicographically smallest center tuple."""
    best_r, best_c = math.inf, None
    for combo in itertools.combinations(range(len(points)), k):
        r = cost_excluding(points, combo, z)
        if r < best_r:
            best_r, best_c = r, combo
    return best_r, best_c


def weighted_peel(dists, weights, z):
    """Drop exactly z weight units farthest-first, lower index first on ties;
    a straddling point stays.  Returns the straddler's distance and the
    indices peeled whole, in peel order."""
    shed = 0
    peeled = []
    for i in sorted(range(len(dists)), key=lambda i: (-dists[i], i)):
        shed += weights[i]
        if shed > z:
            return dists[i], peeled
        peeled.append(i)
    raise ValueError("budget swallowed the whole set")


def farthest_by_sort(dists, m: int):
    """Indices of the m largest values, low index first on ties, ascending."""
    order = sorted(range(len(dists)), key=lambda i: (-dists[i], i))
    return sorted(order[:m])


def _coverage_greedy(dist_rows, weights, k: int, r: float):
    # Index-order sums; the first maximum (lowest index) wins ties.
    uncovered = list(weights)
    picks = []
    for _ in range(k):
        scores = [
            sum(u for d, u in zip(row, uncovered) if d <= r) for row in dist_rows
        ]
        best = scores.index(max(scores))
        if scores[best] <= 0:
            break
        picks.append(best)
        uncovered = [
            0 if d <= 3.0 * r else u for d, u in zip(dist_rows[best], uncovered)
        ]
    return picks, sum(uncovered)


def charikar_reference(dist_rows, weights, k: int, z):
    """Radius-guessing 3-approximation of Charikar et al. on a list of distance
    rows: binary search over the sorted distinct distances for the smallest
    guess whose coverage greedy leaves at most z weight, then the greedy's
    picks at that guess."""
    candidates = sorted({d for row in dist_rows for d in row})
    lo, hi = -1, len(candidates) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _coverage_greedy(dist_rows, weights, k, candidates[mid])[1] <= z:
            hi = mid
        else:
            lo = mid
    picks, leftover = _coverage_greedy(dist_rows, weights, k, candidates[hi])
    if leftover > z:
        raise ValueError("largest distance is infeasible")
    return tuple(picks)


def minimax_oracle(profiles, z: int) -> float:
    """Exhaustive min over budget allocations summing to at most 2z of the
    worst reported site radius."""
    s = len(profiles)
    if (z + 1) ** s > ALLOCATION_GUARD:
        raise GuardError(f"{(z + 1) ** s} allocations exceed the enumeration guard")
    best = None
    for alloc in itertools.product(range(z + 1), repeat=s):
        if sum(alloc) > 2 * z:
            continue
        worst = max(p.h(q) for p, q in zip(profiles, alloc))
        if best is None or worst < best:
            best = worst
    if best is None:
        raise ValueError("no feasible allocation")
    return float(best)

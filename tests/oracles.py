"""Pure-python reference implementations used to cross-check the library.

Everything here avoids numpy on purpose: distances go through math.dist and
selection is done with sorted() so the two code paths share nothing beyond
float64 arithmetic.  The greedy references are the one exception: to replay
a run bit for bit they draw from numpy's random stream and take each center's
distances from the library's one-point pass.  ``EvalLog`` is a test-side
recorder of the library's distance counter.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from robustcenter.core import DistanceStats, GuardError
from robustcenter.distributed import ThresholdDecision

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


class OneAtATimeTracker:
    """Nearest-center distances and owners: one ``dists_from`` pass per
    center, folded point by point; a later center takes a point only on
    strict improvement."""

    def __init__(self, ps):
        self.ps = ps
        self.mindist = [math.inf] * ps.n
        self.owner = [-1] * ps.n

    def add_center(self, c: int) -> None:
        for i, d in enumerate(self.ps.dists_from(c).tolist()):
            if d < self.mindist[i]:
                self.mindist[i], self.owner[i] = d, c


def gonzalez_reference(ps, k: int, rng):
    """Farthest-first traversal as a loop of its own: a start at
    ``rng.integers(n)``, then the first point of largest distance, until k
    centers are chosen or every point is covered.  Returns indices and
    rounds."""
    tracker = OneAtATimeTracker(ps)
    centers = [int(rng.integers(ps.n))]
    tracker.add_center(centers[0])
    while len(centers) < k and max(tracker.mindist) > 0:
        centers.append(tracker.mindist.index(max(tracker.mindist)))
        tracker.add_center(centers[-1])
    return tuple(centers), tuple(range(1, len(centers) + 1))


@dataclass
class EvalLog(DistanceStats):
    """A distance counter that also logs every increment, in order; give it
    to a run with ``dataclasses.replace(ps, stats=EvalLog())``."""

    increments: list = field(default_factory=list)

    def __setattr__(self, name, value):
        if name == "evals" and "increments" in self.__dict__:
            self.increments.append(value - self.evals)
        super().__setattr__(name, value)


class GreedyReference:
    """GreedyRun replayed one center at a time: the stop test and the pool
    come from sorting, and each round draws from the pool list itself."""

    def __init__(self, ps, rng, init_sample: int):
        self.rng = rng
        self.tracker = OneAtATimeTracker(ps)
        self.chosen = {}
        self.round_no = 1
        self._add(rng.choice(ps.n, size=min(init_sample, ps.n), replace=False))

    def _add(self, picks) -> None:
        for p in picks.tolist():
            if p not in self.chosen:
                self.chosen[p] = self.round_no
                self.tracker.add_center(p)

    def grow(self, pool_size, sample_count, max_rounds, exclusions=0, target=0.0) -> int:
        mindist = self.tracker.mindist
        pool_size = min(max(1, pool_size), len(mindist))
        for spent in range(max_rounds):
            if sorted(mindist, reverse=True)[exclusions] <= target:
                return spent
            pool = farthest_by_sort(mindist, pool_size)
            self.round_no += 1
            self._add(self.rng.choice(pool, size=min(sample_count, len(pool)), replace=False))
        return max_rounds


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


def lattice_reference(count: int, grid_dim: int):
    """First ``count`` tuples of the smallest centered odd-side integer cube
    holding ``count`` points, sorted by (squared norm, tuple): the whole cube
    is enumerated and sorted."""
    side = 1
    while side**grid_dim < count:
        side += 2
    half = (side - 1) // 2
    offsets = sorted(
        itertools.product(range(-half, half + 1), repeat=grid_dim),
        key=lambda v: (sum(c * c for c in v), v),
    )
    return offsets[:count]


def radius_at(profile, q: int) -> float:
    """A site's reported radius at budget q: the entry of its largest grid
    budget <= q."""
    if q < 0:
        raise ValueError(f"budget {q} is negative")
    return [r for g, r in zip(profile.grid, profile.radii) if g <= q][-1]


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
        worst = max(radius_at(p, q) for p, q in zip(profiles, alloc))
        if best is None or worst < best:
            best = worst
    if best is None:
        raise ValueError("no feasible allocation")
    return float(best)


def coordinator_reference(profiles, z: int):
    """Rank all s*(z+1) (radius, site) pairs over budgets 0..z and pick the
    (2z+1)-th.

    Pairs sort descending by (value, site id); each non-selected site takes
    the first grid budget q <= z whose pair falls strictly below the threshold
    pair (else its last grid budget q <= z), and the selected site takes its
    smallest grid budget achieving the threshold value.
    """
    s = len(profiles)
    if s < 1:
        raise ValueError("need at least one site")
    if 2 * z + 1 > s * (z + 1):
        raise ValueError("rank 2z+1 exceeds the s(z+1) available pairs")
    pairs = [(radius_at(p, q), p.site_id) for p in profiles for q in range(z + 1)]
    pairs.sort(reverse=True)
    t_value, t_site = pairs[2 * z]
    budgets = []
    for p in profiles:
        grid = [q for q in p.grid if q <= z]
        if p.site_id == t_site:
            chosen = next(q for q, r in zip(grid, p.radii) if r == t_value)
        else:
            chosen = next(
                (q for q in grid if (radius_at(p, q), p.site_id) < (t_value, t_site)), grid[-1]
            )
        budgets.append(int(chosen))
    return ThresholdDecision(value=float(t_value), site=int(t_site), budgets=tuple(budgets))

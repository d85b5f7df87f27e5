"""Randomized greedy center selection.

One loop, randomized Gonzalez, backs every full-data algorithm: ``GreedyRun``
seeds with a small uniform sample, then repeatedly samples from the current
farthest set until a stop rule holds.  ``bicriteria``, ``two_approx`` and both
coreset builders (``coreset.build_coreset``, ``coreset.build_coreset_auto``)
differ only in the pool size, the sample count and the stop rule.  The
sublinear variant touches only a fresh uniform sample each round, so its
per-round distance work is independent of n.

All uniform draws are without replacement (capped at the population size) and
results are deduplicated against the current center set, so a round's growth
is deterministic in size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CenterSet,
    NearestTracker,
    ParamSet,
    PointSet,
    ceil_count,
    clustering_cost,
    farthest_m,
    radius_after_exclusions,
    relaxed_exclusions,
)

__all__ = [
    "GreedyConfig",
    "SublinearConfig",
    "greedy_config",
    "sublinear_config",
    "boost_repetitions",
    "GreedyRun",
    "bicriteria",
    "two_approx",
    "two_approx_boosted",
    "sublinear_bicriteria",
]


@dataclass(frozen=True)
class GreedyConfig:
    """Round budget and sample sizes for the bi-criteria loop."""

    params: ParamSet
    rounds: int
    round_constant: float
    init_sample: int
    per_round_sample: int

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("round count must be >= 1")
        if self.init_sample < 1 or self.per_round_sample < 1:
            raise ValueError("sample counts must be >= 1")
        if self.round_constant <= 0:
            raise ValueError("round constant must be positive")


def greedy_config(params: ParamSet, rounds_override: int | None = None) -> GreedyConfig:
    """Derive the round budget and sample sizes from the parameters.

    round_constant c = 2 + (2 / (k (1 - eta))) ln(1/eta); the default round
    count is ceil(c k / (1 - eta)).  rounds_override replaces the count while
    keeping c (callers that enlarge the budget reuse it).
    """
    k, eta, eps, gamma = params.k, params.eta, params.eps, params.gamma
    log_term = math.log(1.0 / eta)
    c = 2.0 + (2.0 / (k * (1.0 - eta))) * log_term
    rounds = ceil_count(c * k / (1.0 - eta)) if rounds_override is None else int(rounds_override)
    return GreedyConfig(
        params=params,
        rounds=rounds,
        round_constant=c,
        init_sample=ceil_count(log_term / (1.0 - gamma)),
        per_round_sample=ceil_count(((1.0 + eps) / eps) * log_term),
    )


@dataclass(frozen=True)
class SublinearConfig:
    """Per-round sampling plan for the sample-only variant."""

    sigma: float
    sample_size: int
    take_per_round: int

    def __post_init__(self) -> None:
        if not 0 < self.sigma < 1:
            raise ValueError("sigma must lie in (0, 1)")
        if self.sample_size < 1:
            raise ValueError("per-round sample size must be >= 1")
        if not 0 < self.take_per_round <= self.sample_size:
            raise ValueError("take_per_round must lie in [1, sample_size]")


def sublinear_config(params: ParamSet) -> SublinearConfig:
    """sigma = 2 / (1 + sqrt(1 + 4(1+eps)/(3 eps))); the sample size makes the
    farthest-set hit count concentrate within a (1 +- sigma) factor."""
    eps, gamma, eta = params.eps, params.gamma, params.eta
    if gamma == 0:
        raise ValueError("sample-only selection needs outliers (z >= 1)")
    sigma = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * (1.0 + eps) / (3.0 * eps)))
    sample_size = ceil_count(3.0 / (sigma * sigma * (1.0 + eps) * gamma) * math.log(4.0 / eta))
    take = ceil_count((1.0 + sigma) * (1.0 + eps) * gamma * sample_size)
    return SublinearConfig(sigma=sigma, sample_size=sample_size, take_per_round=take)


def boost_repetitions(params: ParamSet) -> int:
    """Repetition count driving the boosted failure probability below 10%."""
    ratio = (1.0 + params.eps) / params.eps
    return ceil_count(math.log(10.0) * (1.0 / (1.0 - params.gamma)) * ratio ** (params.k - 1))


def _add_new(chosen: dict[int, int], picks: np.ndarray, round_no: int) -> list[int]:
    """Record the picks not chosen before under round_no and return them in
    order; ``chosen`` maps every center index to its round, oldest first."""
    new = [p for p in dict.fromkeys(np.atleast_1d(picks).tolist()) if p not in chosen]
    chosen.update(dict.fromkeys(new, round_no))
    return new


class GreedyRun:
    """Randomized Gonzalez selection over all points.

    The constructor draws round 1, a uniform sample of ``init_sample`` points;
    ``grow`` then samples from the current farthest set round by round.  A
    NearestTracker holds every point's distance to its nearest pick.
    """

    def __init__(self, ps: PointSet, rng: np.random.Generator, init_sample: int):
        self.ps = ps
        self.rng = rng
        self.tracker = NearestTracker(ps)
        self.chosen: dict[int, int] = {}
        self.round_no = 1
        self._add(rng.choice(ps.n, size=min(init_sample, ps.n), replace=False))

    def _add(self, picks: np.ndarray) -> None:
        self.tracker.add_centers(_add_new(self.chosen, picks, self.round_no))

    def grow(
        self,
        pool_size: int,
        sample_count: int,
        max_rounds: int,
        exclusions: int = 0,
        target: float = 0.0,
    ) -> int:
        """Run up to max_rounds rounds, each drawing sample_count points from
        the pool_size farthest; stop once the radius after dropping the
        ``exclusions`` farthest points is <= target (by default: once every
        point is covered).  Returns the number of rounds run."""
        # z = 0 would empty the pool; clamp so rounds still make progress.
        pool_size = min(max(1, pool_size), self.ps.n)
        for spent in range(max_rounds):
            if radius_after_exclusions(self.tracker.mindist, exclusions) <= target:
                return spent
            pool = farthest_m(self.tracker, pool_size)
            self.round_no += 1
            self._add(self.rng.choice(pool, size=min(sample_count, pool.size), replace=False))
        return max_rounds

    def centers(self) -> CenterSet:
        return CenterSet(tuple(self.chosen), tuple(self.chosen.values()))


def bicriteria(ps: PointSet, cfg: GreedyConfig, rng: np.random.Generator) -> CenterSet:
    """Multi-draw greedy: seed, then per round sample per_round_sample
    vertices from the current farthest set.  Output size is at most
    init_sample + (rounds - 1) * per_round_sample."""
    run = GreedyRun(ps, rng, cfg.init_sample)
    pool_size = relaxed_exclusions(cfg.params.z, cfg.params.eps)
    run.grow(pool_size, cfg.per_round_sample, cfg.rounds - 1)
    return run.centers()


def two_approx(ps: PointSet, params: ParamSet, rng: np.random.Generator) -> CenterSet:
    """One uniform seed plus k-1 single draws from the farthest set."""
    run = GreedyRun(ps, rng, 1)
    run.grow(relaxed_exclusions(params.z, params.eps), 1, params.k - 1)
    return run.centers()


def two_approx_boosted(ps: PointSet, params: ParamSet, rng: np.random.Generator) -> CenterSet:
    """Repeat two_approx boost_repetitions(params) times and keep the
    candidate with the smallest relaxed cost, which caps the failure
    probability at 10%."""
    best: CenterSet | None = None
    best_cost = math.inf
    for _ in range(boost_repetitions(params)):
        candidate = two_approx(ps, params, rng)
        cost = clustering_cost(ps, candidate, params.z, params.eps).relaxed
        if cost < best_cost:
            best, best_cost = candidate, cost
    assert best is not None
    return best


def sublinear_bicriteria(
    ps: PointSet,
    cfg: GreedyConfig,
    sub: SublinearConfig,
    rng: np.random.Generator,
    stats: dict | None = None,
) -> CenterSet:
    """Sample-only greedy: each round scores a fresh uniform sample against
    the current centers and keeps the take_per_round farthest sampled points.

    No tracker over the full set is maintained; a round evaluates exactly
    |sample| * |centers| distances, independent of n.
    """
    n = ps.n
    chosen: dict[int, int] = {}
    _add_new(chosen, rng.choice(n, size=min(cfg.init_sample, n), replace=False), 1)

    draw = min(sub.sample_size, n)
    for j in range(2, cfg.rounds + 1):
        before = ps.stats.evals
        sample = rng.choice(n, size=draw, replace=False)
        dists = ps.cross_dists(sample, list(chosen)).min(axis=1)
        if stats is not None:
            stats.setdefault("round_dist_evals", []).append(ps.stats.evals - before)
        if float(dists.max()) == 0.0:
            break
        take = min(sub.take_per_round, draw)
        added = _add_new(chosen, sample[farthest_m(dists, take)], j)
        if stats is not None:
            stats.setdefault("round_added", []).append(len(added))
    return CenterSet(tuple(chosen), tuple(chosen.values()))

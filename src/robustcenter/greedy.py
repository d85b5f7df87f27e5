"""Randomized greedy center selection.

One loop, randomized Gonzalez, backs every full-data algorithm: ``GreedyRun``
seeds with a small uniform sample, then repeatedly samples from the current
farthest set until a stop rule holds.  ``bicriteria``, ``two_approx``,
``gonzalez`` and both coreset builders (``coreset.build_coreset``,
``coreset.build_coreset_auto``) differ only in the pool size, the sample count
and the stop rule.  The sublinear variant touches only a fresh uniform sample
each round, so its per-round distance work is independent of n.

All uniform draws are without replacement (capped at the population size) and
results are deduplicated against the current center set, so a round's growth
is deterministic in size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CenterSet,
    GuardError,
    NearestTracker,
    ParamSet,
    PointSet,
    _check_n,
    _count,
    ceil_count,
    clustering_cost,
    farthest_m,
    relaxed_exclusions,
)
from .solvers import ENUMERATION_GUARD

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
    "gonzalez",
    "sublinear_bicriteria",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GreedyConfig:
    """Round budget and sample sizes for the bi-criteria loop."""

    params: ParamSet
    rounds: int
    init_sample: int
    per_round_sample: int

    def __post_init__(self) -> None:
        for name in ("rounds", "init_sample", "per_round_sample"):
            _count(getattr(self, name), name, 1)


def _round_constant(params: ParamSet) -> float:
    """c = 2 + (2 / (k (1 - eta))) ln(1/eta)."""
    return 2.0 + (2.0 / (params.k * (1.0 - params.eta))) * math.log(1.0 / params.eta)


def greedy_config(params: ParamSet) -> GreedyConfig:
    """Derive the round budget and sample sizes from the parameters: the
    round count is ceil(c k / (1 - eta)) for c = _round_constant(params).  A
    different budget is ``dataclasses.replace(cfg, rounds=...)``."""
    log_term = math.log(1.0 / params.eta)
    return GreedyConfig(
        params=params,
        rounds=ceil_count(_round_constant(params) * params.k / (1.0 - params.eta)),
        init_sample=ceil_count(log_term / (1.0 - params.gamma)),
        per_round_sample=ceil_count(((1.0 + params.eps) / params.eps) * log_term),
    )


@dataclass(frozen=True)
class SublinearConfig:
    """Per-round sampling plan for the sample-only variant."""

    sample_size: int
    take_per_round: int

    def __post_init__(self) -> None:
        size = _count(self.sample_size, "sample_size", 1)
        _count(self.take_per_round, "take_per_round", 1, size)


def sublinear_config(params: ParamSet) -> SublinearConfig:
    """sigma = 2 / (1 + sqrt(1 + 4(1+eps)/(3 eps))); the sample size makes the
    farthest-set hit count concentrate within a (1 +- sigma) factor."""
    eps, gamma, eta = params.eps, params.gamma, params.eta
    if gamma == 0:
        raise ValueError("sample-only selection needs outliers (z >= 1)")
    sigma = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * (1.0 + eps) / (3.0 * eps)))
    # A tiny eps underflows the denominator to 0; that count is infinite.
    denominator = sigma * sigma * (1.0 + eps) * gamma
    sample_size = ceil_count(3.0 / denominator * math.log(4.0 / eta) if denominator else math.inf)
    take = ceil_count((1.0 + sigma) * (1.0 + eps) * gamma * sample_size)
    return SublinearConfig(sample_size=sample_size, take_per_round=take)


def boost_repetitions(params: ParamSet) -> int:
    """Repetition count driving the boosted failure probability below 10%."""
    ratio = (1.0 + params.eps) / params.eps
    try:
        power = ratio ** (params.k - 1)
    except OverflowError:  # float ** raises where * and / give inf
        power = math.inf
    return ceil_count(math.log(10.0) * (1.0 / (1.0 - params.gamma)) * power)


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
        for c in _add_new(self.chosen, picks, self.round_no):
            self.tracker.add_center(c)

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
        if exclusions >= self.ps.n:
            raise ValueError("exclusion budget swallows the dataset")
        # z = 0 would empty the pool; clamp so rounds still make progress.
        pool_size = min(max(1, pool_size), self.ps.n)
        for spent in range(max_rounds):
            # The radius after dropping the farthest ``exclusions`` points is
            # <= target exactly when at most that many points lie beyond it.
            if np.count_nonzero(self.tracker.mindist > target) <= exclusions:
                return spent
            pool = farthest_m(self.tracker.mindist, pool_size)
            self.round_no += 1
            self._add(pool[self.rng.choice(pool.size, size=min(sample_count, pool.size), replace=False)])
        return max_rounds

    def centers(self) -> CenterSet:
        """The picks so far, carrying the tracker's distances for
        ``clustering_cost`` on this run's PointSet."""
        return CenterSet._from_tracker(self.tracker, self.chosen)


def _bicriteria_run(ps: PointSet, cfg: GreedyConfig, rng: np.random.Generator) -> GreedyRun:
    """Seed init_sample points, then grow rounds - 1 rounds of
    per_round_sample draws from the ceil((1+eps) z) farthest."""
    _check_n(ps, cfg.params.n)
    run = GreedyRun(ps, rng, cfg.init_sample)
    pool_size = relaxed_exclusions(cfg.params.z, cfg.params.eps)
    run.grow(pool_size, cfg.per_round_sample, cfg.rounds - 1)
    return run


def bicriteria(ps: PointSet, cfg: GreedyConfig, rng: np.random.Generator) -> CenterSet:
    """Multi-draw greedy: seed, then per round sample per_round_sample
    vertices from the current farthest set.  Output size is at most
    init_sample + (rounds - 1) * per_round_sample."""
    return _bicriteria_run(ps, cfg, rng).centers()


def two_approx(ps: PointSet, params: ParamSet, rng: np.random.Generator) -> CenterSet:
    """The bi-criteria loop with k one-point rounds: one uniform seed plus
    k-1 single draws from the farthest set."""
    return bicriteria(ps, GreedyConfig(params, rounds=params.k, init_sample=1, per_round_sample=1), rng)


def gonzalez(ps: PointSet, k: int, rng: np.random.Generator) -> CenterSet:
    """Farthest-first traversal (Gonzalez 1985); 2-approximation for the
    no-outlier problem.

    The greedy loop with a one-point pool: a uniform start, then up to k-1
    picks of the point farthest from the chosen set, lower index winning
    ties, stopping once every point is covered.
    """
    k = _count(k, "k", 1, ps.n)
    run = GreedyRun(ps, rng, 1)
    run.grow(1, 1, k - 1)
    return run.centers()


def two_approx_boosted(ps: PointSet, params: ParamSet, rng: np.random.Generator) -> CenterSet:
    """Repeat two_approx boost_repetitions(params) times and keep the
    candidate with the smallest relaxed cost, which caps the failure
    probability at 10%.  Each candidate is scored from its own run's
    distances, so the boost makes repetitions x k tracker passes (fewer only
    when a run covers every point early); raises GuardError up front when
    that count exceeds ENUMERATION_GUARD."""
    # ratio ** (k - 1) alone is a lower bound on the repetitions; comparing
    # it in logs first keeps boost_repetitions from overflowing a float.
    log_floor = (params.k - 1) * math.log((1.0 + params.eps) / params.eps)
    reps = math.inf if log_floor > math.log(ENUMERATION_GUARD) else boost_repetitions(params)
    if reps * params.k > ENUMERATION_GUARD:
        raise GuardError(f"boosting needs repetitions x k={params.k} tracker passes, more than {ENUMERATION_GUARD}")
    return min(  # min keeps the first of equal costs
        (two_approx(ps, params, rng) for _ in range(reps)),
        key=lambda candidate: clustering_cost(ps, candidate, params.z, params.eps).relaxed,
    )


def sublinear_bicriteria(
    ps: PointSet,
    cfg: GreedyConfig,
    sub: SublinearConfig,
    rng: np.random.Generator,
) -> CenterSet:
    """Sample-only greedy: each round scores a fresh uniform sample against
    the current centers and keeps the take_per_round farthest sampled points.

    No tracker over the full set is maintained; a round evaluates exactly
    |sample| * |centers| distances, independent of n, in row blocks of at
    most 2**17 distances each.
    """
    _check_n(ps, cfg.params.n)
    n = ps.n
    chosen: dict[int, int] = {}
    _add_new(chosen, rng.choice(n, size=min(cfg.init_sample, n), replace=False), 1)

    draw = min(sub.sample_size, n)
    if draw < sub.sample_size:
        log.info("sample-only greedy: per-round sample of %d capped at n=%d", sub.sample_size, n)
    for j in range(2, cfg.rounds + 1):
        sample = rng.choice(n, size=draw, replace=False)
        dists = ps.nearest_dists(sample, list(chosen))
        if float(dists.max()) == 0.0:
            break
        _add_new(chosen, sample[farthest_m(dists, min(sub.take_per_round, draw))], j)
    return CenterSet(tuple(chosen), tuple(chosen.values()))

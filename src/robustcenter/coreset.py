"""Weighted coresets for k-center with outliers.

A coreset entry is an original point index plus a positive integer weight;
weights always sum to the source size n.  Builders select centers with the
greedy loop, snap every near point onto its nearest selected center, and
cover the far points at the map radius, each cover point weighted by the far
points it absorbs; so each original point sits within ``meta["map_radius"]``
of the entry that absorbed it.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ClusteringEval,
    ParamSet,
    PointSet,
    _check_n,
    _exclusion_budget,
    _point_indices,
    ceil_count,
    clustering_cost,
    radius_after_exclusions,
    relaxed_exclusions,
)
from .greedy import GreedyRun, _bicriteria_run, _round_constant, greedy_config

__all__ = [
    "WeightedCoreset",
    "build_coreset",
    "build_coreset_auto",
    "compose_with_host",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class WeightedCoreset:
    """Immutable weighted subset standing in for the full point set."""

    indices: np.ndarray
    weights: np.ndarray
    source_n: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        idx = _point_indices(self.indices, self.source_n, distinct=True)
        w = np.asarray(self.weights)
        if w.shape != idx.shape or w.dtype.kind not in "iu" or (w < 1).any():
            raise ValueError("weights must be positive integers aligned with the indices")
        w = w.astype(np.int64, copy=False)
        if int(w.sum()) != self.source_n:
            raise ValueError("total weight must equal the source size")
        idx.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return int(self.indices.size)

    def total_weight(self) -> int:
        return int(self.weights.sum())


def _identity_coreset(ps: PointSet, builder: str, reason: str) -> WeightedCoreset:
    log.warning("%s: falling back to unit weights (%s)", builder, reason)
    n = ps.n
    return WeightedCoreset(
        indices=np.arange(n, dtype=np.intp),
        weights=np.ones(n, dtype=np.int64),
        source_n=n,
        meta={
            "builder": builder,
            "fallback": True,
            "reason": reason,
            "map_radius": 0.0,
            "far_count": 0,
            "far_points": 0,
            "selected": n,
        },
    )


# Rows per block of ``_far_cover``: one distance call per block, not one per
# representative; wider blocks spend more evaluations on rows an earlier row
# of the block covers.
_COVER_ROWS = 32


def _far_cover(ps: PointSet, far: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The cover of the far points (ascending) at ``radius``: the lowest-index
    uncovered far point represents, and absorbs, every uncovered far point at
    distance <= radius, itself included.  Returns the representatives and
    their absorbed counts.  Each block of the uncovered points' first rows
    takes one counted ``cross_dists`` call; a row resolves in order and is
    skipped once an earlier row of its block covers its point, so the cover
    is the one-row-per-representative cover."""
    reps, counts = [], []
    left = far
    while left.size:
        within = ps.cross_dists(left[:_COVER_ROWS], left) <= radius
        free = np.ones(left.size, dtype=bool)
        for i, row in enumerate(within):
            if free[i]:
                row &= free
                free ^= row
                reps.append(left[i])
                counts.append(np.count_nonzero(row))
        left = left[free]
    return np.array(reps, dtype=np.intp), np.array(counts, dtype=np.int64)


def _weigh_centers(run: GreedyRun, exclusions: int, meta: dict) -> WeightedCoreset:
    """Snap the points within the map radius delta, the radius after
    ``exclusions``, onto their nearest center, and cover the far points, those
    beyond delta, at delta: walked in index order, the lowest-index uncovered
    far point becomes an entry that absorbs every uncovered far point at
    distance <= delta, weighted by their count (``_far_cover``).

    So every point lies within delta of the entry that absorbed it, as it did
    when each far point was its own unit-weight entry.  The sandwich bound,
    the composed bound and the coordinator's table bound rest on that
    displacement alone, so they hold unchanged, and the cover only merges far
    entries.  It draws nothing.  ``meta`` gains ``map_radius``, the far
    entries as ``far_count``, the far points as ``far_points``, and
    ``selected``."""
    ps, tracker = run.ps, run.tracker
    radius = radius_after_exclusions(tracker.mindist, exclusions)
    inside = tracker.mindist <= radius
    far = np.flatnonzero(~inside)
    reps, absorbed = _far_cover(ps, far, radius)
    cidx = np.fromiter(run.chosen, dtype=np.intp, count=len(run.chosen))
    counts = np.bincount(tracker.owner[inside], minlength=ps.n)[cidx]
    keep = counts > 0
    return WeightedCoreset(
        indices=np.concatenate([cidx[keep], reps]),
        weights=np.concatenate([counts[keep], absorbed]),
        source_n=ps.n,
        meta=dict(
            meta,
            map_radius=float(radius),
            far_count=int(reps.size),
            far_points=int(far.size),
            selected=int(cidx.size),
        ),
    )


def _fixed_dim_exclusions(z: int, n: int) -> int:
    """``build_coreset``'s exclusion budget 2z, checked against n."""
    return _exclusion_budget(z, 1.0, n, "2z")


def _adaptive_exclusions(z: int, n: int) -> int:
    """``build_coreset_auto``'s exclusion budget 6z, checked against n."""
    return _exclusion_budget(z, 5.0, n, "6z")


def _check_doubling_dim(doubling_dim: float) -> None:
    if not 0 < doubling_dim < math.inf:
        raise ValueError("doubling dimension must be positive and finite")


def build_coreset(
    ps: PointSet,
    params: ParamSet,
    doubling_dim: float,
    rng: np.random.Generator,
) -> WeightedCoreset:
    """Coreset for data of known doubling dimension, at relaxation eps=1.

    Expands the greedy target to l = ceil((2/mu)^dim * k) and runs the
    bi-criteria loop for ceil(c l / (1 - eta)) rounds; if that budget exceeds
    n the unit-weight fallback is returned instead.
    """
    _check_n(ps, params.n)
    _check_doubling_dim(doubling_dim)
    exclusions = _fixed_dim_exclusions(params.z, ps.n)
    raw_rounds = math.inf  # (2/mu)^dim > n already puts the budget above n
    if doubling_dim * math.log(2.0 / params.mu) <= math.log(ps.n):
        target = ceil_count((2.0 / params.mu) ** doubling_dim * params.k)
        raw_rounds = _round_constant(params) * target / (1.0 - params.eta)
    if raw_rounds > ps.n:
        return _identity_coreset(ps, "fixed_dim", f"round budget {raw_rounds:.0f} exceeds n={ps.n}")
    cfg = greedy_config(dataclasses.replace(params, eps=1.0))
    run = _bicriteria_run(ps, dataclasses.replace(cfg, rounds=ceil_count(raw_rounds)), rng)
    return _weigh_centers(run, exclusions, {"builder": "fixed_dim", "fallback": False})


def _adaptive_phase_one(ps: PointSet, params: ParamSet, rng: np.random.Generator) -> tuple[GreedyRun, float]:
    """Phase 1 of the adaptive builder: the standard round budget at
    relaxation 1, and r1, its radius after the 2z relaxed exclusions."""
    _check_n(ps, params.n)
    _adaptive_exclusions(params.z, ps.n)
    run = _bicriteria_run(ps, greedy_config(dataclasses.replace(params, eps=1.0)), rng)
    return run, radius_after_exclusions(run.tracker.mindist, relaxed_exclusions(params.z, 1.0))


def _adaptive_target(params: ParamSet, r_phase1: float) -> float:
    """Phase 2's target: (mu/2) r1."""
    return (params.mu / 2.0) * r_phase1


def _adaptive_phase_two(run: GreedyRun, params: ParamSet, r_phase1: float) -> WeightedCoreset:
    """Phase 2 of the adaptive builder: grow ``run`` until its radius after
    6z exclusions is at most the target, then weigh it."""
    exclusions = _adaptive_exclusions(params.z, run.ps.n)
    per_round = greedy_config(dataclasses.replace(params, eps=1.0)).per_round_sample
    # While the radius after 6z exclusions is above the target, every pool
    # point is at positive distance, so each round adds a center: n rounds
    # always reach the target.
    target = _adaptive_target(params, r_phase1)
    spent = run.grow(exclusions, per_round, run.ps.n, exclusions=exclusions, target=target)
    meta = {"builder": "adaptive", "fallback": False, "phase1_radius": r_phase1, "phase2_rounds": spent}
    return _weigh_centers(run, exclusions, meta)


def build_coreset_auto(ps: PointSet, params: ParamSet, rng: np.random.Generator) -> WeightedCoreset:
    """Coreset for data of unknown doubling dimension.

    Phase 1 runs the standard round budget at relaxation 1 and records its
    radius; phase 2 keeps sampling from the farthest set with the outlier
    budget tripled until the cost excluding 6z points drops to (mu/2) times
    the phase-1 radius.
    """
    run, r_phase1 = _adaptive_phase_one(ps, params, rng)
    return _adaptive_phase_two(run, params, r_phase1)


def compose_with_host(cs: WeightedCoreset, ps: PointSet, params: ParamSet, host) -> ClusteringEval:
    """Solve on the coreset with ``host`` and evaluate on the full set.

    ``host(sub_ps, weights, k, z)`` must return center picks as positions
    into the coreset; they are mapped back to original indices before the
    strict cost is evaluated.
    """
    _check_n(ps, params.n)
    _check_n(ps, cs.source_n, "the coreset's source_n")
    sub = ps.subset(cs.indices)
    picks = host(sub, cs.weights, params.k, params.z)
    return clustering_cost(ps, cs.indices[_point_indices(picks, len(cs))], params.z, 0.0)

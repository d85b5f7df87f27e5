"""Weighted coresets for k-center with outliers.

A coreset entry is an original point index plus a positive integer weight;
weights always sum to the source size n.  Builders select centers with the
greedy loop, snap every near point onto its nearest selected center, and
append the far points with unit weight, so each original point sits within
``meta["map_radius"]`` of the entry that absorbed it.
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
            "selected": n,
        },
    )


def _weigh_centers(run: GreedyRun, exclusions: int, meta: dict) -> WeightedCoreset:
    """Snap points within the exclusion radius onto their nearest center,
    append the rest with unit weight."""
    ps, tracker = run.ps, run.tracker
    radius = radius_after_exclusions(tracker.mindist, exclusions)
    inside = tracker.mindist <= radius
    far = np.flatnonzero(~inside)
    cidx = np.fromiter(run.chosen, dtype=np.intp, count=len(run.chosen))
    counts = np.bincount(tracker.owner[inside], minlength=ps.n)[cidx]
    keep = counts > 0
    return WeightedCoreset(
        indices=np.concatenate([cidx[keep], far]),
        weights=np.concatenate([counts[keep], np.ones(far.size, dtype=np.int64)]),
        source_n=ps.n,
        meta=dict(meta, map_radius=float(radius), far_count=int(far.size), selected=int(cidx.size)),
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


def build_coreset_auto(ps: PointSet, params: ParamSet, rng: np.random.Generator) -> WeightedCoreset:
    """Coreset for data of unknown doubling dimension.

    Phase 1 runs the standard round budget at relaxation 1 and records its
    radius; phase 2 keeps sampling from the farthest set with the outlier
    budget tripled until the cost excluding 6z points drops to (mu/2) times
    the phase-1 radius.
    """
    _check_n(ps, params.n)
    exclusions = _adaptive_exclusions(params.z, ps.n)
    cfg = greedy_config(dataclasses.replace(params, eps=1.0))
    run = _bicriteria_run(ps, cfg, rng)
    r_phase1 = radius_after_exclusions(run.tracker.mindist, relaxed_exclusions(params.z, 1.0))
    # While the radius after 6z exclusions is above the target, every pool
    # point is at positive distance, so each round adds a center: n rounds
    # always reach the target.
    target = (params.mu / 2.0) * r_phase1
    spent = run.grow(exclusions, cfg.per_round_sample, ps.n, exclusions=exclusions, target=target)
    meta = {"builder": "adaptive", "fallback": False, "phase1_radius": float(r_phase1), "phase2_rounds": spent}
    return _weigh_centers(run, exclusions, meta)


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

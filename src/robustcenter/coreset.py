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
    CenterSet,
    ClusteringEval,
    ParamSet,
    PointSet,
    ceil_count,
    clustering_cost,
    radius_after_exclusions,
    relaxed_exclusions,
    weighted_cost,
)
from .greedy import GreedyRun, greedy_config

__all__ = [
    "WeightedCoreset",
    "UniformSample",
    "uniform_sample_size",
    "uniform_sample",
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
    assignment: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.intp)
        w = np.asarray(self.weights, dtype=np.int64)
        if idx.ndim != 1 or idx.shape != w.shape or idx.size < 1:
            raise ValueError("indices and weights must be aligned non-empty vectors")
        if np.unique(idx).size != idx.size:
            raise ValueError("coreset indices must be distinct")
        if (w < 1).any():
            raise ValueError("weights must be positive integers")
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

    def cost(self, ps: PointSet, centers, z: float) -> float:
        return weighted_cost(ps, self.indices, self.weights, centers, z)



@dataclass(frozen=True)
class UniformSample:
    """Uniform subsample plus the inflated outlier budget to use on it."""

    indices: np.ndarray
    z_prime: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.intp)
        if np.unique(idx).size != idx.size:
            raise ValueError("sample indices must be distinct")
        if not 0 <= self.z_prime < idx.size:
            raise ValueError("inflated outlier budget must stay below the sample size")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)


def uniform_sample_size(params: ParamSet, dim: int) -> int:
    """Default sample size: ceil((40 / (eps^2 gamma)) k dim ln(k dim / (eps gamma eta)))."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    eps, gamma, eta, k = params.eps, params.gamma, params.eta, params.k
    if gamma == 0:
        raise ValueError("no outliers: use plain k-center sampling")
    lead = 40.0 / (eps * eps * gamma) * k * dim
    return ceil_count(lead * math.log(k * dim / (eps * gamma * eta)))


def uniform_sample(
    ps: PointSet,
    params: ParamSet,
    rng: np.random.Generator,
    size_override: int | None = None,
) -> UniformSample:
    """Uniform subsample (without replacement) with z' = ceil((1+eps) gamma |S|)."""
    if params.gamma == 0:
        raise ValueError("no outliers: use plain k-center sampling")
    if size_override is None:
        if ps.dim is None:
            raise ValueError("default sample size needs Euclidean coordinates; pass size_override")
        size = min(ps.n, uniform_sample_size(params, ps.dim))
    else:
        size = int(size_override)
        if not 1 <= size <= ps.n:
            raise ValueError("sample size must lie in [1, n]")
    indices = np.sort(rng.choice(ps.n, size=size, replace=False))
    z_prime = ceil_count((1.0 + params.eps) * params.gamma * size)
    return UniformSample(indices=indices, z_prime=z_prime)


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
        assignment=np.arange(n, dtype=np.intp),
    )


def _weigh_centers(run: GreedyRun, exclusions: int, meta: dict) -> WeightedCoreset:
    """Snap points within the exclusion radius onto their nearest center,
    append the rest with unit weight."""
    ps, tracker = run.ps, run.tracker
    radius = radius_after_exclusions(tracker.mindist, exclusions)
    inside = tracker.mindist <= radius
    far = np.flatnonzero(~inside)
    cidx = run.centers().as_array()
    pos_of = np.full(ps.n, -1, dtype=np.intp)
    pos_of[cidx] = np.arange(cidx.size)
    owner_pos = pos_of[tracker.owner[inside]]
    counts = np.bincount(owner_pos, minlength=cidx.size)
    keep = counts > 0
    remap = np.full(cidx.size, -1, dtype=np.intp)
    remap[keep] = np.arange(int(keep.sum()))
    assignment = np.full(ps.n, -1, dtype=np.intp)
    assignment[inside] = remap[owner_pos]
    assignment[far] = int(keep.sum()) + np.arange(far.size)
    indices = np.concatenate([cidx[keep], far])
    weights = np.concatenate([counts[keep], np.ones(far.size, dtype=np.int64)])
    meta = dict(meta, map_radius=float(radius), far_count=int(far.size), selected=int(cidx.size))
    return WeightedCoreset(
        indices=indices,
        weights=weights,
        source_n=ps.n,
        meta=meta,
        assignment=assignment,
    )


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
    if doubling_dim <= 0:
        raise ValueError("doubling dimension must be positive")
    exclusions = relaxed_exclusions(params.z, 1.0)
    if exclusions >= ps.n:
        raise ValueError("relaxed exclusion budget swallows the dataset")
    run_params = dataclasses.replace(params, eps=1.0)
    target = ceil_count((2.0 / params.mu) ** doubling_dim * params.k)
    base = greedy_config(run_params)
    raw_rounds = base.round_constant * target / (1.0 - params.eta)
    meta = {
        "builder": "fixed_dim",
        "fallback": False,
        "doubling_dim": float(doubling_dim),
        "k": params.k,
        "z": params.z,
        "eps": 1.0,
        "mu": float(params.mu),
    }
    if raw_rounds > ps.n:
        return _identity_coreset(ps, "fixed_dim", f"round budget {raw_rounds:.0f} exceeds n={ps.n}")
    cfg = greedy_config(run_params, rounds_override=ceil_count(raw_rounds))
    run = GreedyRun(ps, rng, cfg.init_sample)
    run.grow(exclusions, cfg.per_round_sample, cfg.rounds - 1)
    return _weigh_centers(run, exclusions, meta)


def build_coreset_auto(ps: PointSet, params: ParamSet, rng: np.random.Generator) -> WeightedCoreset:
    """Coreset for data of unknown doubling dimension.

    Phase 1 runs the standard round budget at relaxation 1 and records its
    radius; phase 2 keeps sampling from the farthest set with the outlier
    budget tripled until the cost excluding 6z points drops below (mu/2)
    times the phase-1 radius.  A cap of n phase-2 rounds guards
    non-termination (each round must add a new center); hitting it falls
    back to unit weights.
    """
    exclusions_phase1 = relaxed_exclusions(params.z, 1.0)
    exclusions_final = relaxed_exclusions(params.z, 5.0)
    if exclusions_final >= ps.n:
        raise ValueError("relaxed exclusion budget (6z) swallows the dataset")
    cfg = greedy_config(dataclasses.replace(params, eps=1.0))
    run = GreedyRun(ps, rng, cfg.init_sample)
    run.grow(exclusions_phase1, cfg.per_round_sample, cfg.rounds - 1)
    r_phase1 = radius_after_exclusions(run.tracker.mindist, exclusions_phase1)
    target = (params.mu / 2.0) * r_phase1
    spent = run.grow(
        exclusions_final, cfg.per_round_sample, ps.n, exclusions=exclusions_final, target=target
    )
    if radius_after_exclusions(run.tracker.mindist, exclusions_final) > target:
        log.warning("adaptive: phase-2 cap hit after %d rounds", spent)
        return _identity_coreset(ps, "adaptive", "phase-2 round cap hit")
    meta = {
        "builder": "adaptive",
        "fallback": False,
        "k": params.k,
        "z": params.z,
        "mu": float(params.mu),
        "phase1_radius": float(r_phase1),
        "phase2_rounds": spent,
    }
    return _weigh_centers(run, exclusions_final, meta)


def compose_with_host(cs: WeightedCoreset, ps: PointSet, params: ParamSet, host) -> ClusteringEval:
    """Solve on the coreset with ``host`` and evaluate on the full set.

    ``host(sub_ps, weights, k, z)`` must return center picks as positions
    into the coreset; they are mapped back to original indices before the
    strict cost is evaluated.
    """
    sub = ps.subset(cs.indices)
    picks = host(sub, cs.weights, params.k, params.z)
    local = picks.as_array() if isinstance(picks, CenterSet) else np.asarray(picks, dtype=np.intp)
    if local.size < 1:
        raise ValueError("host returned no centers")
    centers = cs.indices[local]
    return clustering_cost(ps, centers, params.z, 0.0)

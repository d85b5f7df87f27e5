"""Two-round distributed coreset protocol.

Sites hold disjoint shards of one point set.  Round one: every site builds a
coreset per budget on a shared geometric grid and uploads the (budget, radius)
pairs.  The coordinator ranks all s*(z+1) step-function values, broadcasts the
(2z+1)-th largest as the threshold, and each site derives its own outlier
budget from it; the budgets always sum to at most 2z.  Round two: each site
uploads the coreset built at its derived budget.  A ledger records float
traffic per phase; point transfers cost dim+1 floats each (coordinates plus
weight), or 2 in matrix mode (index plus weight).
"""

from __future__ import annotations

import bisect
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .core import GuardError, ParamSet, PointSet
from .coreset import WeightedCoreset, _identity_coreset, build_coreset, build_coreset_auto

__all__ = [
    "ALLOCATION_GUARD",
    "outlier_budget_grid",
    "StepFunction",
    "ShardedInstance",
    "SiteProfile",
    "CommLedger",
    "ThresholdDecision",
    "ProtocolResult",
    "site_round_one",
    "coordinator_threshold",
    "assemble",
    "run_protocol",
    "minimax_oracle",
]

log = logging.getLogger(__name__)

ALLOCATION_GUARD = 2_000_000


def outlier_budget_grid(z: int) -> list[int]:
    """Budget grid {0, z} plus every power of two up to z."""
    if z < 0:
        raise ValueError("outlier budget must be >= 0")
    labels = {0, int(z)}
    p = 2
    while p <= z:
        labels.add(p)
        p *= 2
    return sorted(labels)


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step lookup: value(q) reads the largest breakpoint <= q."""

    breakpoints: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.values) or not self.breakpoints:
            raise ValueError("breakpoints and values must be aligned and non-empty")
        if any(b >= a for a, b in zip(self.breakpoints[1:], self.breakpoints)):
            raise ValueError("breakpoints must be strictly increasing")

    def value(self, q: int) -> float:
        pos = bisect.bisect_right(self.breakpoints, q) - 1
        if pos < 0:
            raise ValueError(f"query {q} precedes the first breakpoint")
        return self.values[pos]


@dataclass(frozen=True, eq=False)
class ShardedInstance:
    """Disjoint shards covering every index of one point set."""

    ps: PointSet
    shards: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        cleaned = []
        total = 0
        for shard in self.shards:
            idx = np.sort(np.asarray(shard, dtype=np.intp))
            if idx.size < 1:
                raise ValueError("shards must be non-empty")
            if idx[0] < 0 or idx[-1] >= self.ps.n:
                raise ValueError("shard index out of range")
            idx.flags.writeable = False
            cleaned.append(idx)
            total += idx.size
        if total != self.ps.n or np.unique(np.concatenate(cleaned)).size != self.ps.n:
            raise ValueError("shards must partition the point set")
        object.__setattr__(self, "shards", tuple(cleaned))

    @property
    def s(self) -> int:
        return len(self.shards)

    @classmethod
    def balanced(cls, ps: PointSet, s: int, rng: np.random.Generator) -> "ShardedInstance":
        if not 1 <= s <= ps.n:
            raise ValueError("site count must lie in [1, n]")
        perm = rng.permutation(ps.n)
        return cls(ps=ps, shards=tuple(np.array_split(perm, s)))

    @classmethod
    def from_json(cls, ps: PointSet, blob: dict) -> "ShardedInstance":
        return cls(ps=ps, shards=tuple(np.asarray(s, dtype=np.intp) for s in blob["shards"]))

    def to_json(self) -> dict:
        return {"shards": [s.tolist() for s in self.shards]}


@dataclass(frozen=True)
class SiteProfile:
    """One site's round-one output: per-budget radii (monotone) and coresets.

    ``dist_evals`` counts the distance evaluations made on the shard, whose
    point set carries its own counter."""

    site_id: int
    step: StepFunction
    coresets: dict[int, WeightedCoreset]
    n_points: int
    clamps: dict[int, int] = field(default_factory=dict)
    dist_evals: int = 0

    def h(self, q: int) -> float:
        return self.step.value(q)


@dataclass
class CommLedger:
    """Float traffic per protocol phase."""

    phases: list[dict] = field(default_factory=list)

    def add(self, direction: str, floats: int, note: str = "") -> None:
        self.phases.append(
            {"phase": len(self.phases) + 1, "direction": direction, "floats": int(floats), "note": note}
        )

    @property
    def total_floats(self) -> int:
        return sum(p["floats"] for p in self.phases)

    def count(self, direction: str) -> int:
        return sum(1 for p in self.phases if p["direction"] == direction)

    def to_json(self) -> dict:
        return {"phases": [dict(p) for p in self.phases], "total_floats": self.total_floats}


@dataclass(frozen=True)
class ThresholdDecision:
    value: float
    site: int
    budgets: tuple[int, ...]


@dataclass(frozen=True)
class ProtocolResult:
    coreset: WeightedCoreset
    decision: ThresholdDecision
    profiles: tuple[SiteProfile, ...]
    ledger: CommLedger
    grid: tuple[int, ...]
    instance: ShardedInstance


def _repair_monotone(grid, radii, coresets):
    """Radii must not increase with budget; a violating entry is replaced by
    the previous budget's coreset, whose radius it inherits."""
    fixed_r = list(radii)
    fixed_c = dict(coresets)
    for j in range(1, len(grid)):
        if fixed_r[j] > fixed_r[j - 1]:
            fixed_r[j] = fixed_r[j - 1]
            fixed_c[grid[j]] = fixed_c[grid[j - 1]]
    return fixed_r, fixed_c


def site_round_one(
    sub_ps: PointSet,
    params: ParamSet,
    grid: list[int],
    rng: np.random.Generator,
    site_id: int = 0,
    doubling_dim: float | None = None,
) -> SiteProfile:
    """Build one coreset per grid budget on this site's shard.

    Budgets are clamped so the shard can absorb them (the relaxed exclusion
    set must leave at least one point, and k + z < n must hold); a clamped
    build still reports under its original grid label, which only raises the
    reported radius and stays safe for the coordinator's rank argument.
    """
    n_i = sub_ps.n
    k = params.k
    evals_before = sub_ps.stats.evals
    radii: list[float] = []
    coresets: dict[int, WeightedCoreset] = {}
    clamps: dict[int, int] = {}
    for q in grid:
        if n_i <= k:
            cs = _identity_coreset(sub_ps, "site", f"shard of {n_i} points holds at most k centers")
        else:
            cap = n_i - k - 1
            cap = min(cap, (n_i - 1) // 2 if doubling_dim is not None else (n_i - 1) // 6)
            q_eff = min(q, cap)
            if q_eff != q:
                clamps[q] = q_eff
                log.info("site %d: budget %d clamped to %d (shard size %d)", site_id, q, q_eff, n_i)
            site_params = ParamSet(
                k=k, z=q_eff, n=n_i, eps=1.0, eta=params.eta, mu=params.mu, seed=params.seed
            )
            if doubling_dim is None:
                cs = build_coreset_auto(sub_ps, site_params, rng)
            else:
                cs = build_coreset(sub_ps, site_params, doubling_dim, rng)
        coresets[q] = cs
        radii.append(float(cs.meta["map_radius"]))
    radii, coresets = _repair_monotone(grid, radii, coresets)
    return SiteProfile(
        site_id=site_id,
        step=StepFunction(breakpoints=tuple(grid), values=tuple(radii)),
        coresets=coresets,
        n_points=n_i,
        clamps=clamps,
        dist_evals=sub_ps.stats.evals - evals_before,
    )


def coordinator_threshold(profiles, z: int) -> ThresholdDecision:
    """Rank all (radius, site) pairs over budgets 0..z and pick the (2z+1)-th.

    Pairs sort descending by (value, site id); each non-selected site takes
    the first grid budget whose pair falls strictly below the threshold pair
    (else z), and the selected site takes its smallest grid budget achieving
    the threshold value.
    """
    s = len(profiles)
    if s < 1:
        raise ValueError("need at least one site")
    if 2 * z + 1 > s * (z + 1):
        raise ValueError("rank 2z+1 exceeds the s(z+1) available pairs")
    pairs = [(p.h(q), p.site_id) for p in profiles for q in range(z + 1)]
    pairs.sort(reverse=True)
    t_value, t_site = pairs[2 * z]
    budgets = []
    for p in profiles:
        grid = p.step.breakpoints
        if p.site_id == t_site:
            chosen = next(q for q, r in zip(grid, p.step.values) if r == t_value)
        else:
            chosen = next(
                (q for q in grid if (p.h(q), p.site_id) < (t_value, t_site)), grid[-1]
            )
        budgets.append(int(chosen))
    return ThresholdDecision(value=float(t_value), site=int(t_site), budgets=tuple(budgets))


def assemble(
    instance: ShardedInstance,
    site_coresets,
    decision: ThresholdDecision,
) -> WeightedCoreset:
    """Map each site coreset back to global indices and concatenate."""
    indices = np.concatenate(
        [shard[cs.indices] for shard, cs in zip(instance.shards, site_coresets)]
    )
    weights = np.concatenate([cs.weights for cs in site_coresets])
    far_total = sum(int(cs.meta.get("far_count", 0)) for cs in site_coresets)
    return WeightedCoreset(
        indices=indices,
        weights=weights,
        source_n=instance.ps.n,
        meta={
            "builder": "two_round_protocol",
            "budgets": list(decision.budgets),
            "threshold_value": decision.value,
            "threshold_site": decision.site,
            "far_count": far_total,
            "map_radius": max(float(cs.meta.get("map_radius", 0.0)) for cs in site_coresets),
        },
    )


def run_protocol(
    ps: PointSet,
    params: ParamSet,
    s: int | None = None,
    instance: ShardedInstance | None = None,
    doubling_dim: float | None = None,
) -> ProtocolResult:
    """Drive both rounds end to end and account every transfer.

    Exactly two site-to-coordinator phases and one broadcast are recorded.
    Site randomness is spawned per site from the instance seed, so results
    are reproducible for a fixed (seed, s) regardless of scheduling.
    """
    if (s is None) == (instance is None):
        raise ValueError("pass exactly one of s or instance")
    ss = np.random.SeedSequence(params.seed)
    if instance is None:
        children = ss.spawn(s + 1)
        instance = ShardedInstance.balanced(ps, s, np.random.default_rng(children[-1]))
    else:
        if instance.ps is not ps:
            raise ValueError("instance must shard the same point set")
        children = ss.spawn(instance.s + 1)
    grid = outlier_budget_grid(params.z)
    ledger = CommLedger()
    profiles = tuple(
        site_round_one(
            ps.subset(shard),
            params,
            grid,
            np.random.default_rng(children[i]),
            site_id=i,
            doubling_dim=doubling_dim,
        )
        for i, shard in enumerate(instance.shards)
    )
    ledger.add(
        "sites_to_coordinator",
        2 * len(grid) * instance.s,
        note="(budget, radius) pairs from every site",
    )
    decision = coordinator_threshold(profiles, params.z)
    if sum(decision.budgets) > 2 * params.z:
        raise RuntimeError("derived budgets exceed 2z")
    ledger.add("broadcast", 2 * instance.s, note="threshold value and owning site to every site")
    round_two = [p.coresets[b] for p, b in zip(profiles, decision.budgets)]
    per_point = (ps.dim + 1) if ps.dim is not None else 2
    ledger.add(
        "sites_to_coordinator",
        sum(len(cs) for cs in round_two) * per_point,
        note="coreset points with weights",
    )
    coreset = assemble(instance, round_two, decision)
    return ProtocolResult(
        coreset=coreset,
        decision=decision,
        profiles=profiles,
        ledger=ledger,
        grid=tuple(grid),
        instance=instance,
    )


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

"""Two-round distributed coreset protocol.

Sites hold disjoint shards of one point set.  Round one: every site builds a
coreset per budget on a shared geometric grid and uploads its radius table.
The coordinator ranks the tables' runs over budgets 0..z, broadcasts the
(2z+1)-th largest radius as the threshold, and each site derives its own
outlier budget from it; the budgets always sum to at most 2z.  Round two:
each site uploads the coreset built at its derived budget.  A ledger records
float traffic per phase; point transfers cost dim+1 floats each (coordinates
plus weight), or 2 in matrix mode (index plus weight).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ParamSet, PointSet, _all_distinct, _check_n, _count, _point_indices
from .coreset import WeightedCoreset, _identity_coreset, build_coreset, build_coreset_auto

__all__ = [
    "outlier_budget_grid",
    "SiteProfile",
    "CommLedger",
    "ThresholdDecision",
    "ProtocolResult",
    "site_round_one",
    "coordinator_threshold",
    "assemble",
    "run_protocol",
]

log = logging.getLogger(__name__)


def outlier_budget_grid(z: int) -> list[int]:
    """Budget grid {0, z} plus every power of two up to z."""
    z = _count(z, "z", 0)
    return sorted({0, z, *(1 << i for i in range(1, z.bit_length()))})


def _partition(shards, n: int) -> tuple[np.ndarray, ...]:
    """``shards`` as sorted read-only index vectors under the index rule; a
    ValueError unless they partition range(n)."""
    cleaned = [np.sort(_point_indices(shard, n)) for shard in shards]
    for idx in cleaned:
        idx.flags.writeable = False
    if sum(idx.size for idx in cleaned) != n or not _all_distinct(np.concatenate(cleaned)):
        raise ValueError("shards must partition the point set")
    return tuple(cleaned)


def _shards_from_json(blob, n: int) -> tuple[np.ndarray, ...]:
    """The shards of ``{"shards": [[index, ...], ...]}`` over n points; every
    index must be a JSON integer (no float, string or boolean) and the
    shards must partition range(n).  It needs only n, so a shard file is
    checked before any instance is planted."""
    shards = blob.get("shards") if isinstance(blob, dict) else None
    if not isinstance(shards, list):
        raise ValueError('shards must be given as {"shards": [[index, ...], ...]}')
    for i, shard in enumerate(shards):
        if not isinstance(shard, list) or any(type(v) is not int for v in shard):
            raise ValueError(f"shard {i} must be a list of integer indices")
    return _partition(shards, n)


@dataclass(frozen=True)
class SiteProfile:
    """One site's round-one output: its radius table (grid strictly increasing
    from 0, radii never increasing) and the coreset built at each grid budget.

    ``dist_evals`` counts the distance evaluations made on the shard, whose
    point set carries its own counter."""

    site_id: int
    grid: tuple[int, ...]
    radii: tuple[float, ...]
    coresets: dict[int, WeightedCoreset]
    n_points: int
    clamps: dict[int, int] = field(default_factory=dict)
    dist_evals: int = 0

    def __post_init__(self) -> None:
        if not self.grid or len(self.grid) != len(self.radii):
            raise ValueError("grid and radii must be aligned and non-empty")
        if self.grid[0] != 0 or any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must start at 0 and strictly increase")
        if any(b > a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must not increase with the budget")


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
    reported radius and stays safe for the coordinator's rank argument.  A
    budget whose radius would rise reuses the previous coreset and radius.
    A unit-weight fallback, for a shard of at most k points or a
    fixed-dimension round budget (which ignores the outlier budget) past the
    shard, is built once and reused at every later budget.
    """
    n_i = sub_ps.n
    k = params.k
    evals_before = sub_ps.stats.evals
    radii: list[float] = []
    coresets: dict[int, WeightedCoreset] = {}
    clamps: dict[int, int] = {}
    small = n_i <= k
    reason = f"shard of {n_i} points holds at most k centers"
    fallback = _identity_coreset(sub_ps, "site", reason) if small else None
    for j, q in enumerate(grid):
        q_eff = q if small else min(q, n_i - k - 1, (n_i - 1) // (6 if doubling_dim is None else 2))
        if q_eff != q:
            clamps[q] = q_eff
            log.info("site %d: budget %d clamped to %d (shard size %d)", site_id, q, q_eff, n_i)
        if fallback is not None:
            cs = fallback
        elif doubling_dim is None:
            cs = build_coreset_auto(sub_ps, replace(params, z=q_eff, n=n_i), rng)
        else:
            cs = build_coreset(sub_ps, replace(params, z=q_eff, n=n_i), doubling_dim, rng)
            fallback = cs if cs.meta["fallback"] else None
        r = float(cs.meta["map_radius"])
        if j and r > radii[-1]:
            cs, r = coresets[grid[j - 1]], radii[-1]
        coresets[q] = cs
        radii.append(r)
    return SiteProfile(
        site_id=site_id,
        grid=tuple(grid),
        radii=tuple(radii),
        coresets=coresets,
        n_points=n_i,
        clamps=clamps,
        dist_evals=sub_ps.stats.evals - evals_before,
    )


def _check_rank(s: int, z: int) -> None:
    """The rank rule: s sites hold s(z+1) pairs over budgets 0..z, fewer than
    the threshold's rank 2z+1 only when one site meets z >= 1."""
    if 2 * z + 1 > s * (z + 1):
        raise ValueError(f"site count {s} at z={z}: rank 2z+1 exceeds the s(z+1) ranked pairs; use two or more sites")


def _site_count(s, n: int, z: int) -> int:
    """The site count rule: an integer in [1, n] that meets the rank rule."""
    s = _count(s, "site count", 1, n)
    _check_rank(s, z)
    return s


def coordinator_threshold(profiles, z: int) -> ThresholdDecision:
    """Pick the (2z+1)-th largest (h(q), site id) pair over budgets q = 0..z.

    Each grid budget q <= z is one run of h(q) up to the next grid budget (or
    z+1); runs sort descending and their lengths add up to rank 2z+1, in
    O(s*|grid|).  Each site takes its first grid budget q <= z whose pair is
    at or below the threshold pair, else its last grid budget q <= z; so no
    site exceeds z and the budgets add up to at most 2z.
    """
    s = len(profiles)
    if s < 1:
        raise ValueError("need at least one site")
    z = _count(z, "z", 0)
    if len({p.site_id for p in profiles}) != s:
        raise ValueError("site ids must be distinct")
    _check_rank(s, z)
    runs = [
        (r, p.site_id, min(nxt, z + 1) - q)
        for p in profiles
        for q, r, nxt in zip(p.grid, p.radii, (*p.grid[1:], z + 1))
        if q <= z
    ]
    runs.sort(reverse=True)
    seen = 0
    for t_value, t_site, length in runs:
        seen += length
        if seen > 2 * z:
            break
    threshold = (t_value, t_site)
    budgets = []
    for p in profiles:
        within = [(q, r) for q, r in zip(p.grid, p.radii) if q <= z]
        below = (q for q, r in within if (r, p.site_id) <= threshold)
        budgets.append(int(next(below, within[-1][0])))
    return ThresholdDecision(value=float(t_value), site=int(t_site), budgets=tuple(budgets))


def assemble(
    shards: tuple[np.ndarray, ...],
    n: int,
    site_coresets,
    decision: ThresholdDecision,
) -> WeightedCoreset:
    """Map each site coreset back to global indices through its shard of the
    n points and concatenate.  The result is a fallback when any site sent
    its unit-weight fallback."""
    indices = np.concatenate([shard[cs.indices] for shard, cs in zip(shards, site_coresets)])
    weights = np.concatenate([cs.weights for cs in site_coresets])
    far_total = sum(int(cs.meta["far_count"]) for cs in site_coresets)
    return WeightedCoreset(
        indices=indices,
        weights=weights,
        source_n=n,
        meta={
            "builder": "two_round_protocol",
            "fallback": any(cs.meta["fallback"] for cs in site_coresets),
            "budgets": list(decision.budgets),
            "threshold_value": decision.value,
            "threshold_site": decision.site,
            "far_count": far_total,
            "map_radius": max(float(cs.meta["map_radius"]) for cs in site_coresets),
        },
    )


def run_protocol(
    ps: PointSet,
    params: ParamSet,
    s: int | None = None,
    shards=None,
    doubling_dim: float | None = None,
) -> ProtocolResult:
    """Drive both rounds end to end and account every transfer.

    The sites hold either ``s`` balanced shards, a seeded split of a random
    permutation, or the given ``shards``: index vectors under the index rule
    that partition range(n).  Exactly two site-to-coordinator phases and one
    broadcast are recorded.  Site randomness is spawned per site from the
    instance seed, so results are reproducible for a fixed (seed, s)
    regardless of scheduling.
    """
    if (s is None) == (shards is None):
        raise ValueError("pass exactly one of s or shards")
    _check_n(ps, params.n)
    if shards is not None:
        shards = _partition(shards, ps.n)
    sites = _site_count(s if shards is None else len(shards), ps.n, params.z)
    children = np.random.SeedSequence(params.seed).spawn(sites + 1)
    if shards is None:
        rng = np.random.default_rng(children[-1])
        shards = _partition(np.array_split(rng.permutation(ps.n), sites), ps.n)
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
        for i, shard in enumerate(shards)
    )
    ledger.add(
        "sites_to_coordinator",
        2 * len(grid) * sites,
        note="(budget, radius) pairs from every site",
    )
    decision = coordinator_threshold(profiles, params.z)
    if sum(decision.budgets) > 2 * params.z:
        raise RuntimeError("derived budgets exceed 2z")
    ledger.add("broadcast", 2 * sites, note="threshold value and owning site to every site")
    round_two = [p.coresets[b] for p, b in zip(profiles, decision.budgets)]
    per_point = (ps.dim + 1) if ps.dim is not None else 2
    ledger.add(
        "sites_to_coordinator",
        sum(len(cs) for cs in round_two) * per_point,
        note="coreset points with weights",
    )
    coreset = assemble(shards, ps.n, round_two, decision)
    return ProtocolResult(
        coreset=coreset,
        decision=decision,
        profiles=profiles,
        ledger=ledger,
    )

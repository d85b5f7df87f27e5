"""Two-round distributed coreset protocol.

Sites hold disjoint shards of one point set.  Round one: every site reports
a radius per budget on a shared geometric grid.  A fixed-dimension site
builds its coreset at each budget and reports its map radius; an adaptive
site runs only phase 1 at each budget and reports phase 2's target, keeping
the phase-1 picks.  The coordinator ranks the tables' runs over budgets
0..z, broadcasts the (2z+1)-th largest radius as the threshold, and each
site derives its own outlier budget from it; the budgets always sum to at
most 2z.  Round two: an adaptive site grows phase 2 at its derived budget
only, and each site uploads the coreset at that budget.  A ledger records
float traffic per phase; point transfers cost dim+1 floats each
(coordinates plus weight), or 2 in matrix mode (index plus weight).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ParamSet, PointSet, _all_distinct, _check_n, _count, _point_indices
from .coreset import (
    WeightedCoreset,
    _adaptive_phase_one,
    _adaptive_phase_two,
    _adaptive_target,
    _identity_coreset,
    build_coreset,
    build_coreset_auto,  # noqa: F401  (a module attribute that perfbench's spans wrap)
)
from .greedy import GreedyRun

__all__ = [
    "outlier_budget_grid",
    "SiteProfile",
    "CommLedger",
    "ThresholdDecision",
    "ProtocolResult",
    "site_round_one",
    "coordinator_threshold",
    "site_round_two",
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
class _PhaseOne:
    """An adaptive site's phase-1 run at one budget, kept as its picks and
    round number: its tracker is dropped, and round two rebuilds it."""

    params: ParamSet
    chosen: dict[int, int]
    round_no: int
    r_phase1: float


@dataclass(frozen=True)
class SiteProfile:
    """One site's radius table (grid strictly increasing from 0, radii never
    increasing) and its coresets.

    After round one, ``coresets`` holds the coreset built at each grid
    budget on the fixed-dimension path, or a shard's unit-weight fallback,
    and ``phase_one`` holds an adaptive site's phase-1 picks per budget,
    whose radii are phase 2's targets.  After round two, ``coresets`` holds
    only the uploaded coreset, keyed by its budget, and ``phase_one`` is
    empty.

    ``dist_evals`` counts the distance evaluations made on the shard, whose
    point set carries its own counter, in the rounds the profile has seen."""

    site_id: int
    grid: tuple[int, ...]
    radii: tuple[float, ...]
    coresets: dict[int, WeightedCoreset]
    n_points: int
    clamps: dict[int, int] = field(default_factory=dict)
    dist_evals: int = 0
    phase_one: dict[int, _PhaseOne] = field(default_factory=dict, repr=False)

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
    """This site's radius table over the grid budgets.

    A fixed-dimension site builds its coreset at each budget and reports its
    map radius.  An adaptive site (``doubling_dim is None``) runs only
    phase 1 of ``build_coreset_auto`` at each budget q, keeps the picks, and
    reports phase 2's target (mu/2) r1(q); ``site_round_two`` grows phase 2
    at the one budget the coordinator assigns.

    Why a target serves as the radius: phase 2 stops only once the radius
    after 6q exclusions is at most its target, and n rounds always reach it,
    so the uploaded map radius is at most the reported radius at its budget,
    and the coordinator's table bound holds unchanged.  That bound rests on
    the bi-criteria guarantee of phase 1: with probability at least
    1 - 2 eta, r1(q), the radius after 2q exclusions, is at most
    2 OPT_i(k, q), the shard's optimum with q outliers.  So the target is at
    most mu OPT_i(k, q), as a built coreset's map radius is.

    Budgets are clamped so the shard can absorb them (the relaxed exclusion
    set must leave at least one point, and k + z < n must hold); a clamped
    budget still reports under its original grid label, which only raises the
    reported radius and stays safe for the coordinator's rank argument.  A
    budget whose radius would rise reuses the previous budget's coreset or
    picks, and its radius.  A unit-weight fallback, for a shard of at most k
    points or a fixed-dimension round budget (which ignores the outlier
    budget) past the shard, is built once and reused at every later budget.
    """
    n_i = sub_ps.n
    k = params.k
    evals_before = sub_ps.stats.evals
    radii: list[float] = []
    built: dict[int, WeightedCoreset | _PhaseOne] = {}
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
            entry, r = fallback, 0.0
        elif doubling_dim is None:
            site_params = replace(params, z=q_eff, n=n_i)
            run, r_phase1 = _adaptive_phase_one(sub_ps, site_params, rng)
            entry = _PhaseOne(site_params, run.chosen, run.round_no, r_phase1)
            r = _adaptive_target(site_params, r_phase1)
        else:
            entry = build_coreset(sub_ps, replace(params, z=q_eff, n=n_i), doubling_dim, rng)
            r = float(entry.meta["map_radius"])
            fallback = entry if entry.meta["fallback"] else None
        if j and r > radii[-1]:
            entry, r = built[grid[j - 1]], radii[-1]
        built[q] = entry
        radii.append(r)
    return SiteProfile(
        site_id=site_id,
        grid=tuple(grid),
        radii=tuple(radii),
        coresets={q: e for q, e in built.items() if isinstance(e, WeightedCoreset)},
        n_points=n_i,
        clamps=clamps,
        dist_evals=sub_ps.stats.evals - evals_before,
        phase_one={q: e for q, e in built.items() if isinstance(e, _PhaseOne)},
    )


def site_round_two(sub_ps: PointSet, profile: SiteProfile, budget: int, rng: np.random.Generator) -> SiteProfile:
    """The profile after round two: ``coresets`` holds only the coreset at
    ``budget``, and ``dist_evals`` adds this round's evaluations.  An
    adaptive site rebuilds the tracker of its phase-1 picks at that budget,
    which draws nothing, then grows phase 2 to the target it reported."""
    evals_before = sub_ps.stats.evals
    cs = profile.coresets.get(budget)
    if cs is None:
        entry = profile.phase_one[budget]
        run = GreedyRun.resumed(sub_ps, rng, entry.chosen, entry.round_no)
        cs = _adaptive_phase_two(run, entry.params, entry.r_phase1)
    return replace(
        profile,
        coresets={budget: cs},
        phase_one={},
        dist_evals=profile.dist_evals + sub_ps.stats.evals - evals_before,
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
    n points and concatenate, summing the sites' far entries and far points.
    The result is a fallback when any site sent its unit-weight fallback."""
    indices = np.concatenate([shard[cs.indices] for shard, cs in zip(shards, site_coresets)])
    weights = np.concatenate([cs.weights for cs in site_coresets])
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
            "far_count": sum(int(cs.meta["far_count"]) for cs in site_coresets),
            "far_points": sum(int(cs.meta["far_points"]) for cs in site_coresets),
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
    subs = [ps.subset(shard) for shard in shards]
    rngs = [np.random.default_rng(child) for child in children[:sites]]
    profiles = tuple(
        site_round_one(sub, params, grid, rng, site_id=i, doubling_dim=doubling_dim)
        for i, (sub, rng) in enumerate(zip(subs, rngs))
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
    profiles = tuple(site_round_two(*site) for site in zip(subs, profiles, decision.budgets, rngs))
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

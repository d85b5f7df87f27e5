"""The benchmark's workloads: one planted instance each, one solve per op.

Every instance is ``planted_instance`` with 5 clusters on a 2-D lattice
(``cluster_radius=1.0``), solved with k=5, eps=1, eta=0.25, mu=0.5 and z equal
to the number of planted outliers.  The workload seed plants the instance; op
``i`` solves it with algorithm seed ``i`` (``ParamSet(seed=i)`` and
``default_rng(i)``).  The library only ever receives the generated inputs.

An op's timed part is ``Workload.solve``; ``Workload.check`` then verifies
deterministic invariants of its outputs, untimed, and returns an ``Outcome``
holding the failed checks, the op's headline numbers and an output digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import robustcenter.core as core
import robustcenter.coreset as coreset
import robustcenter.distributed as distributed
import robustcenter.generate as generate
import robustcenter.greedy as greedy
import robustcenter.solvers as solvers

K = 5
CLUSTERS = 5
GRID_DIM = 2
CLUSTER_RADIUS = 1.0
EPS = 1.0
ETA = 0.25
MU = 0.5


@dataclass
class Outcome:
    """What one op produced, as far as the benchmark reports it."""

    problems: list[str]
    radius: float = 0.0
    output_size: int = 0
    comm_floats: int = 0
    digest: str = ""


class _Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def ints(self, label: str, values) -> None:
        arr = np.ascontiguousarray(np.asarray(values, dtype=np.int64))
        self._h.update(f"{label}:{arr.size};".encode())
        self._h.update(arr.tobytes())

    def text(self, label: str, value) -> None:
        self._h.update(f"{label}={value!r};".encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _distinct_in_range(values, n: int, label: str, problems: list[str]) -> None:
    arr = np.asarray(values, dtype=np.int64)
    if arr.size < 1 or np.unique(arr).size != arr.size:
        problems.append(f"{label}: empty or repeated indices")
    elif arr.min() < 0 or arr.max() >= n:
        problems.append(f"{label}: index out of range [0, {n})")


def _check_coreset(cs, n: int, label: str, problems: list[str]) -> None:
    _distinct_in_range(cs.indices, n, f"{label} indices", problems)
    if int(cs.weights.sum()) != n:
        problems.append(f"{label}: weights sum to {int(cs.weights.sum())}, not n={n}")
    if cs.meta.get("fallback", False):
        problems.append(f"{label}: unit-weight fallback")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "greedy", "coreset_host" or "protocol"
    n_inliers: int
    outliers: int
    dim: int
    counted_ops: int  # count and quality metrics cover ops 0..counted_ops-1
    sites: int = 0

    @property
    def n(self) -> int:
        return self.n_inliers + self.outliers

    @property
    def z(self) -> int:
        return self.outliers

    def spec(self) -> generate.GeneratorSpec:
        return generate.GeneratorSpec(
            n_inliers=self.n_inliers,
            clusters=CLUSTERS,
            dim=self.dim,
            grid_dim=GRID_DIM,
            cluster_radius=CLUSTER_RADIUS,
            outliers=self.outliers,
        )

    def plant(self, seed: int) -> generate.PlantedInstance:
        return generate.planted_instance(self.spec(), seed)

    def params(self, seed: int) -> core.ParamSet:
        return core.ParamSet(k=K, z=self.z, n=self.n, eps=EPS, eta=ETA, mu=MU, seed=seed)

    def working_set_bytes(self, output_size: int) -> dict[str, int]:
        """Computed bytes of the arrays an op streams over."""
        sizes = {"coords": self.n * self.dim * 8}
        if self.kind == "coreset_host":
            # The host's float64 pairwise block plus its two bool coverage masks.
            sizes["host_block"] = output_size * output_size * (8 + 1 + 1)
        if self.sites:
            sizes["shard_coords"] = (self.n // self.sites + 1) * self.dim * 8
        return sizes

    def solve(self, ps, seed: int):
        params = self.params(seed)
        rng = np.random.default_rng(seed)
        if self.kind == "greedy":
            cfg = greedy.greedy_config(params)
            centers = greedy.bicriteria(ps, cfg, rng)
            strict = core.clustering_cost(ps, centers, params.z, 0.0)
            relaxed = core.cost_radius(ps, centers, params.z, params.eps)
            return cfg, centers, strict, relaxed
        if self.kind == "coreset_host":
            picks: list = []

            def host(sub_ps, weights, k, z):
                chosen = solvers.charikar_3approx(sub_ps, weights, k, z)
                picks.append(chosen)
                return chosen

            cs = coreset.build_coreset_auto(ps, params, rng)
            composed = coreset.compose_with_host(cs, ps, params, host)
            return cs, picks, composed
        if self.kind == "protocol":
            return distributed.run_protocol(ps, params, s=self.sites)
        raise ValueError(f"unknown workload kind {self.kind!r}")

    def check(self, ps, seed: int, raw) -> Outcome:
        params = self.params(seed)
        problems: list[str] = []
        digest = _Digest()
        out = Outcome(problems)
        if self.kind == "greedy":
            cfg, centers, strict, relaxed = raw
            _distinct_in_range(centers.indices, ps.n, "centers", problems)
            if relaxed > strict.radius:
                problems.append(f"relaxed cost {relaxed!r} above strict cost {strict.radius!r}")
            cap = cfg.init_sample + (cfg.rounds - 1) * cfg.per_round_sample
            if len(centers) > cap:
                problems.append(f"{len(centers)} centers exceed the bicriteria cap {cap}")
            digest.ints("centers", centers.indices)
            digest.ints("round_of", centers.round_of)
            digest.text("strict", strict.radius.hex())
            digest.text("relaxed", relaxed.hex())
            out.radius = strict.radius
            out.output_size = len(centers)
            # The centers returned to the caller, as coordinates.
            out.comm_floats = len(centers) * ps.dim
        elif self.kind == "coreset_host":
            cs, picks, composed = raw
            _check_coreset(cs, ps.n, "coreset", problems)
            if len(picks) != 1:
                problems.append(f"host called {len(picks)} times, expected once")
            else:
                local = picks[0].as_array()
                if local.size > params.k:
                    problems.append(f"host returned {local.size} picks, more than k={params.k}")
                _distinct_in_range(local, len(cs), "host picks", problems)
                digest.ints("host_picks", local)
            digest.ints("coreset_indices", cs.indices)
            digest.ints("coreset_weights", cs.weights)
            digest.text("composed", composed.radius.hex())
            out.radius = composed.radius
            out.output_size = len(cs)
            # Coreset points shipped to the host: coordinates plus weight.
            out.comm_floats = len(cs) * (ps.dim + 1)
        else:
            result = raw
            cs = result.coreset
            _check_coreset(cs, ps.n, "assembled coreset", problems)
            budgets = result.decision.budgets
            for profile, budget in zip(result.profiles, budgets):
                _check_coreset(profile.coresets[budget], profile.n_points, f"site {profile.site_id}", problems)
            if sum(budgets) > 2 * params.z:
                problems.append(f"budgets {budgets} sum above 2z={2 * params.z}")
            ledger = result.ledger
            if ledger.count("sites_to_coordinator") != 2 or ledger.count("broadcast") != 1:
                problems.append(f"ledger phases {[p['direction'] for p in ledger.phases]}")
            elif ledger.phases[-1]["floats"] != len(cs) * (ps.dim + 1):
                problems.append(
                    f"round-two floats {ledger.phases[-1]['floats']} != {len(cs)} points x {ps.dim + 1}"
                )
            digest.ints("coreset_indices", cs.indices)
            digest.ints("coreset_weights", cs.weights)
            digest.ints("budgets", budgets)
            digest.text("ledger", ledger.to_json())
            digest.text("map_radius", float(cs.meta["map_radius"]).hex())
            out.radius = float(cs.meta["map_radius"])
            out.output_size = len(cs)
            out.comm_floats = ledger.total_floats
        if not out.radius > 0.0:
            problems.append(f"final radius {out.radius!r} is not positive")
        out.digest = digest.hexdigest()
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="greedy-100k",
            kind="greedy",
            n_inliers=95_000,
            outliers=5_000,
            dim=8,
            counted_ops=25,
        ),
        Workload(
            name="coreset-host-20k",
            kind="coreset_host",
            n_inliers=19_700,
            outliers=300,
            dim=2,
            counted_ops=18,
        ),
        Workload(
            name="protocol-40k",
            kind="protocol",
            n_inliers=39_900,
            outliers=100,
            dim=2,
            counted_ops=7,
            sites=4,
        ),
    )
}

"""Experiment harness: one record per (seed, algorithm) plus aggregates.

Each run owns its RNG and distance counter.  A generated instance is planted
and hashed once per seed, and a CSV input and a shard file are read once per
experiment; the runs share their read-only arrays, and records are sorted
before writing.  Output is JSON
lines (runs then aggregates) and a CSV summary of the aggregates.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    DistanceStats,
    ParamSet,
    PointSet,
    clustering_cost,
    load_points_csv,
)
from .coreset import build_coreset, build_coreset_auto, compose_with_host
from .distributed import ShardedInstance, run_protocol
from .generate import GeneratorSpec, planted_instance
from .greedy import (
    bicriteria,
    gonzalez,
    greedy_config,
    sublinear_bicriteria,
    sublinear_config,
    two_approx_boosted,
)
from .solvers import brute_force_opt, charikar_3approx

__all__ = ["ALGORITHMS", "ExperimentSpec", "run_experiment"]

ALGORITHMS = (
    "bicriteria",
    "two_approx",
    "sublinear",
    "gonzalez",
    "charikar",
    "brute_force",
    "coreset",
    "coreset_auto",
    "distributed",
)

_METRICS = (
    "cost_strict",
    "cost_relaxed",
    "composed_radius",
    "wall_time_s",
    "dist_evals",
    "centers_count",
    "coreset_size",
    "points_sent",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated recipe for a batch of runs."""

    algos: tuple[str, ...]
    k: int
    z: int
    seeds: tuple[int, ...]
    source: str | GeneratorSpec
    out: str | None = None
    eps: float = ParamSet.eps
    mu: float = ParamSet.mu
    eta: float = ParamSet.eta
    sites: int = 0
    doubling_dim: float | None = None
    shards_path: str | None = None

    def __post_init__(self) -> None:
        if not self.algos or not self.seeds:
            raise ValueError("need at least one algorithm and one seed")
        unknown = [a for a in self.algos if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms: {unknown}; choose from {ALGORITHMS}")
        if self.out == "":
            raise ValueError("the output base path is empty")
        repeated = sorted({a for a in self.algos if self.algos.count(a) > 1})
        if repeated:
            raise ValueError(f"repeated algorithms: {repeated}; name each once")
        if "coreset" in self.algos and self.doubling_dim is None:
            raise ValueError("the fixed-dimension coreset needs --rho")
        if "distributed" in self.algos and self.sites < 1 and self.shards_path is None:
            raise ValueError("distributed runs need --sites or --shards")
        if self.sites >= 1 and self.shards_path is not None:
            raise ValueError("--sites and --shards are alternatives; pass one of them")
        if isinstance(self.source, str) and not Path(self.source).exists():
            raise ValueError(f"input file not found: {self.source}")


def _run_one(
    spec: ExperimentSpec, algo: str, params: ParamSet, shared: PointSet, instance_hash: str,
    injected: np.ndarray | None, shards: dict | None
) -> dict:
    ps = replace(shared, stats=DistanceStats())  # the shared arrays, with this run's own counter
    rng = np.random.default_rng(params.seed)
    rec = {
        "type": "run",
        "algo": algo,
        "seed": params.seed,
        "n": ps.n,
        "dim": ps.dim,
        "instance_hash": instance_hash,
        "k": spec.k,
        "z": spec.z,
        "eps": spec.eps,
        "mu": spec.mu,
        "eta": spec.eta,
    }
    centers = coreset = protocol = None
    evals_before = ps.stats.evals
    t0 = time.perf_counter()
    if algo == "bicriteria":
        centers = bicriteria(ps, greedy_config(params), rng)
    elif algo == "two_approx":
        centers = two_approx_boosted(ps, params, rng)
    elif algo == "sublinear":
        centers = sublinear_bicriteria(ps, greedy_config(params), sublinear_config(params), rng)
    elif algo == "gonzalez":
        centers = gonzalez(ps, params.k, rng)
    elif algo == "charikar":
        centers = charikar_3approx(ps, None, params.k, params.z)
    elif algo == "brute_force":
        oracle = brute_force_opt(ps, params.k, params.z)
        centers = oracle.opt_centers
        rec["r_opt"] = oracle.r_opt
    elif algo == "coreset":
        coreset = build_coreset(ps, params, spec.doubling_dim, rng)
    elif algo == "coreset_auto":
        coreset = build_coreset_auto(ps, params, rng)
    elif algo == "distributed":
        if shards is not None:
            instance = ShardedInstance.from_json(ps, shards)
            protocol = run_protocol(ps, params, instance=instance, doubling_dim=spec.doubling_dim)
        else:
            protocol = run_protocol(ps, params, s=spec.sites, doubling_dim=spec.doubling_dim)
        coreset = protocol.coreset
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    rec["wall_time_s"] = time.perf_counter() - t0
    rec["dist_evals"] = ps.stats.evals - evals_before
    if protocol is not None:
        rec["dist_evals"] += sum(p.dist_evals for p in protocol.profiles)

    excluded = None
    if centers is not None:
        cost = clustering_cost(ps, centers, params.z, params.eps)
        rec["centers_count"] = len(centers)
        rec["cost_strict"] = cost.radius
        rec["cost_relaxed"] = cost.relaxed
        excluded = cost.excluded
    if coreset is not None:
        composed = compose_with_host(coreset, ps, params, charikar_3approx)
        rec["coreset_size"] = len(coreset)
        rec["weight_total"] = coreset.total_weight()
        rec["fallback"] = bool(coreset.meta.get("fallback", False))
        rec["map_radius"] = float(coreset.meta["map_radius"])
        rec["composed_radius"] = composed.radius
        excluded = composed.excluded
    if protocol is not None:
        far = int(protocol.coreset.meta["far_count"])
        rec["budgets"] = [int(b) for b in protocol.decision.budgets]
        rec["budget_total"] = int(sum(protocol.decision.budgets))
        rec["threshold_value"] = protocol.decision.value
        rec["threshold_site"] = protocol.decision.site
        rec["points_sent"] = len(protocol.coreset)
        rec["far_points"] = far
        rec["machinery"] = len(protocol.coreset) - far
        rec["ledger"] = protocol.ledger.to_json()
    if injected is not None and injected.size > 0 and excluded is not None:
        hit = len(excluded.intersection(injected.tolist()))
        rec["outlier_recall"] = hit / injected.size
    return rec


def _aggregate(spec: ExperimentSpec, records: list[dict]) -> list[dict]:
    out = []
    for algo in spec.algos:
        rows = [r for r in records if r["algo"] == algo]
        agg: dict = {"type": "aggregate", "algo": algo, "count": len(rows)}
        hashes = {r["instance_hash"] for r in rows}
        agg["instance_hash"] = hashes.pop() if len(hashes) == 1 else None
        for metric in _METRICS:
            vals = [r[metric] for r in rows if metric in r]
            if vals and len(vals) == len(rows):
                agg[f"{metric}_mean"] = float(np.mean(vals))
                agg[f"{metric}_std"] = float(np.std(vals))
        out.append(agg)
    return out


def _output_paths(out: str) -> tuple[Path, Path]:
    """The JSONL and CSV files an output base path names; a trailing
    ``.jsonl`` belongs to the JSONL file, not to the base."""
    base = out[: -len(".jsonl")] if out.endswith(".jsonl") else out
    return Path(base + ".jsonl"), Path(base + ".csv")


def _write_outputs(out: str, records: list[dict], aggregates: list[dict]) -> None:
    jsonl_path, csv_path = _output_paths(out)
    with jsonl_path.open("w") as fh:
        for rec in records + aggregates:
            fh.write(json.dumps(rec) + "\n")
    columns = ["algo", "count", "instance_hash"]
    for metric in _METRICS:
        key = f"{metric}_mean"
        if any(key in a for a in aggregates):
            columns += [key, f"{metric}_std"]
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for agg in aggregates:
            writer.writerow(agg)


def run_experiment(spec: ExperimentSpec):
    """Run every (algorithm, seed) pair, seed by seed; returns (records,
    aggregates) and writes them when the spec names an output base path.

    Every seed's parameters are checked, and the shard file read, before
    any instance is planted."""
    loaded = None if isinstance(spec.source, GeneratorSpec) else load_points_csv(spec.source)
    n = spec.source.n_inliers + spec.source.outliers if loaded is None else loaded.n
    params = ParamSet(k=spec.k, z=spec.z, n=n, eps=spec.eps, eta=spec.eta, mu=spec.mu)
    per_seed = [replace(params, seed=seed) for seed in spec.seeds]
    shards = None if spec.shards_path is None else json.loads(Path(spec.shards_path).read_text())
    records = []
    for seed_params in per_seed:
        if loaded is None:
            inst = planted_instance(spec.source, seed_params.seed)
            shared, injected = inst.ps, inst.outlier_indices
        else:
            shared, injected = loaded, None
        digest = shared.content_hash()
        records += [_run_one(spec, algo, seed_params, shared, digest, injected, shards) for algo in spec.algos]
    order = {algo: i for i, algo in enumerate(spec.algos)}
    records.sort(key=lambda r: (order[r["algo"]], r["seed"]))
    aggregates = _aggregate(spec, records)
    if spec.out is not None:
        _write_outputs(spec.out, records, aggregates)
    return records, aggregates

"""Command line front end for the experiment harness.

Exit codes: 0 on success, 2 for a bad spec or unreadable input, 3 when an
enumeration guard trips.
"""

from __future__ import annotations

import argparse
import sys

from .bench import ALGORITHMS, ExperimentSpec, _output_paths, run_experiment
from .core import GuardError, ParamSet
from .generate import GeneratorSpec

_GENERATE_KEYS = {
    "n": ("n_inliers", int),
    "clusters": ("clusters", int),
    "dim": ("dim", int),
    "grid": ("grid_dim", int),
    "radius": ("cluster_radius", float),
    "outliers": ("outliers", int),
    "scale": ("outlier_scale", float),
}


def parse_generator(text: str) -> GeneratorSpec:
    """Comma-separated key=value pairs, e.g.
    ``n=300,clusters=3,dim=2,grid=2,radius=1.0,outliers=15``."""
    kwargs = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ValueError(f"bad generator field {chunk!r}; expected key=value")
        key, _, raw = chunk.partition("=")
        key = key.strip()
        if key not in _GENERATE_KEYS:
            raise ValueError(f"unknown generator key {key!r}; choose from {sorted(_GENERATE_KEYS)}")
        name, cast = _GENERATE_KEYS[key]
        kwargs[name] = cast(raw)
    return GeneratorSpec(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustcenter",
        description="k-center clustering with outliers: greedy solvers, coresets, "
        "and a simulated two-round distributed protocol",
    )
    parser.add_argument("--algo", required=True, help=f"comma-separated list from {ALGORITHMS}")
    parser.add_argument("--k", required=True, type=int, help="number of centers")
    parser.add_argument("--z", required=True, type=int, help="outlier budget")
    parser.add_argument("--eps", type=float, default=ParamSet.eps, help="exclusion relaxation (default %(default)s)")
    parser.add_argument("--mu", type=float, default=ParamSet.mu, help="coreset accuracy (default %(default)s)")
    parser.add_argument("--eta", type=float, default=ParamSet.eta, help="per-round failure rate (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    parser.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds (default 1)")
    parser.add_argument("--sites", type=int, default=0, help="site count for distributed runs")
    parser.add_argument("--rho", type=float, default=None, help="doubling dimension for the fixed-dimension coreset")
    parser.add_argument("--shards", default=None, help="JSON file with explicit shard index lists")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="CSV of points, one comma-separated row per point")
    source.add_argument("--generate", help="planted instance recipe, key=value pairs (see README)")
    parser.add_argument("--out", default="results", help="output base path (default 'results')")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        source = parse_generator(args.generate) if args.generate else args.input
        spec = ExperimentSpec(
            algos=tuple(a.strip() for a in args.algo.split(",") if a.strip()),
            k=args.k,
            z=args.z,
            seeds=tuple(range(args.seed, args.seed + args.seeds)),
            source=source,
            out=args.out,
            eps=args.eps,
            mu=args.mu,
            eta=args.eta,
            sites=args.sites,
            doubling_dim=args.rho,
            shards_path=args.shards,
        )
        records, aggregates = run_experiment(spec)
    except GuardError as exc:
        print(f"guard tripped: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for agg in aggregates:
        bits = [f"{agg['algo']}: {agg['count']} runs"]
        for key in ("cost_strict_mean", "composed_radius_mean"):
            if key in agg:
                bits.append(f"{key}={agg[key]:.6g}")
        print("  ".join(bits))
    jsonl_path, csv_path = _output_paths(args.out)
    print(f"wrote {jsonl_path} and {csv_path} ({len(records)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

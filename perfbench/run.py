"""Benchmark of robustcenter on seeded planted workloads.

Run from the repository root:

    python3 perfbench/run.py --workload greedy-100k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics; BENCHMARK.json at the repository root lists both with their units.
The report goes to standard output as one ``name value unit`` line per metric
and a JSON line with the run's details; the last line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own process, so peak memory stays per workload.

The package is imported from ``src/`` beside this directory, never from an
installed copy; without that tree the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("greedy-100k", "coreset-host-20k", "protocol-40k")


def _limit_blas_threads() -> None:
    # Must run before numpy is imported: BLAS may use at most one thread per core.
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= int(cores):
            os.environ[var] = cores


def _import_harness():
    sys.path.insert(0, str(SRC))
    import robustcenter

    loaded = Path(robustcenter.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise ImportError(f"robustcenter was imported from {loaded}, not from {SRC}")
    import harness
    import workloads

    return harness, workloads


def run_one(args) -> int:
    harness, workloads = _import_harness()
    wl = workloads.WORKLOADS[args.workload]
    report = harness.measure(wl, args.seed, args.seconds, bool(args.trace))
    metrics = report.pop("metrics")
    for name, metric in metrics.items():
        print(f"{wl.name} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", required=True, type=int, help="workload seed (plants the instance)")
    parser.add_argument("--seconds", required=True, type=float, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (SRC / "robustcenter" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

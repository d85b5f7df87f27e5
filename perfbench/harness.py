"""Closed-loop measurement of one workload: set-up, timed ops, checks, metrics.

One process runs one op at a time.  With ``trace=False`` ops run without spans
and the run reports the end-to-end metrics; the reference kernel of
``reference.py`` runs between set-ups and between ops, and their wall times are
reported scaled to the reference speed.  With ``trace=True`` ops run with
spans and the run reports per-layer means per op; the first ``PAIRED_SEEDS``
seeds are also solved without spans, which gives the tracing overhead.  Both
modes require every op's checks to pass, seed 0 to give the same digest when
re-run at the end, and (traced) the traced and untraced solves of a seed to
give identical digests and distance counts.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from reference import NOMINAL_SECONDS, Reference
from spans import Instrument, Tracer
from workloads import Outcome, Workload

SETUP_REPS = 7
PAIRED_SEEDS = 3  # traced runs also solve these seeds untraced, for the overhead

END_TO_END = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "dist_evals_per_solve": "count",
    "radius_ratio": "ratio",
    "output_size": "points",
    "comm_floats": "floats",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

# Spans whose call counts and self times are reported.
_CALLS = (
    "core.dists_from",
    "core.cross_dists",
    "core.tracker_add",
    "core.farthest_m",
    "core.cost_eval",
    "core.radius_excl",
    "core.subset",
    "coreset.build_auto",
)
_SELF = _CALLS + (
    "greedy.bicriteria",
    "coreset.compose",
    "solvers.charikar",
    "distributed.run_protocol",
    "distributed.coordinator",
    "distributed.assemble",
)
_COUNTS = {
    "core.dist_evals": "count",
    "core.cross_dists.evals": "count",
    "greedy.bicriteria.rounds": "count",
    "greedy.bicriteria.centers": "count",
    "coreset.phase2_rounds": "count",
    "coreset.size": "points",
    "coreset.far_count": "points",
    "coreset.fallbacks": "count",
    "solvers.charikar.host_n": "points",
    "distributed.site_builds": "count",
    "distributed.clamps": "count",
    "distributed.round1_floats": "floats",
    "distributed.round2_floats": "floats",
}
PER_LAYER = {
    **{f"{span}.calls": "count" for span in _CALLS},
    **{f"{span}.self_s": "s" for span in _SELF},
    "core.dists_from.gb_per_s": "GB/s",
    "core.dist_evals_top": "count",
    **_COUNTS,
    "solvers.charikar.guard_trips": "count",
    "distributed.site_round_one.sum_s": "s",
    "distributed.site_round_one.max_s": "s",
    "generate.planted_instance.s": "s",
    "trace.overhead": "ratio",
}


@dataclass
class OpRecord:
    seed: int
    seconds: float
    ref_seconds: float = 0.0  # reference time around the op; see Reference.around
    evals_top: int = 0
    evals_total: int = 0
    outcome: Outcome | None = None
    error: str = ""  # exception type, or "check" when an output check failed

    @property
    def ok(self) -> bool:
        return not self.error


def run_op(wl: Workload, ps, seed: int, hooks: Instrument) -> OpRecord:
    """Solve once (timed), then check the outputs (untimed)."""
    before = ps.stats.evals
    hooks.child_evals()
    t0 = perf_counter()
    try:
        raw = wl.solve(ps, seed)
    except Exception as exc:  # counted as a failed op; the run goes on
        print(f"op seed={seed} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return OpRecord(seed, perf_counter() - t0, error=type(exc).__name__)
    seconds = perf_counter() - t0
    top = ps.stats.evals - before
    rec = OpRecord(seed, seconds, evals_top=top, evals_total=top + hooks.child_evals())
    rec.outcome = wl.check(ps, seed, raw)
    if wl.kind == "greedy" and rec.evals_top != rec.evals_total:
        rec.outcome.problems.append(f"top-level count {rec.evals_top} != total {rec.evals_total}")
    if rec.outcome.problems:
        rec.error = "check"
        for problem in rec.outcome.problems:
            print(f"op seed={seed} check failed: {problem}", file=sys.stderr)
    return rec


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten ops beyond it, but
    never below the median: with twenty ops or fewer it is the op just above
    the middle.

    Returns (value, percentile, ops beyond it).
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def _layer_snapshot(t: Tracer, ps_top_evals: int) -> dict[str, float]:
    snap: dict[str, float] = {}
    for span in _CALLS:
        snap[f"{span}.calls"] = t.calls[span]
    for span in _SELF:
        snap[f"{span}.self_s"] = t.self_s[span]
    for name in _COUNTS:
        snap[name] = t.counts[name]
    snap["core.dist_evals_top"] = ps_top_evals
    snap["core.dists_from.bytes"] = t.counts["core.dists_from.bytes"]
    snap["solvers.charikar.guard_trips"] = t.counts["solvers.charikar.raised.GuardError"]
    snap["distributed.site_round_one.sum_s"] = t.incl_s["distributed.site_round_one"]
    snap["distributed.site_round_one.max_s"] = t.max_s["distributed.site_round_one"]
    return snap


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload.  The report holds ``correct``, ``attempted``,
    ``failed``, ``metrics`` (name to value and unit) and the run's details."""
    tracer = Tracer() if trace else None
    problems: list[str] = []
    timed: list[OpRecord] = []  # traced solves when tracing, else untraced ones
    twins: list[tuple[OpRecord, OpRecord]] = []  # (traced, untraced) of one seed
    layers: list[dict[str, float]] = []
    setup_s, setup_ref, planted_s = [], [], []
    with nullcontext() if trace else Reference() as reference:
        for _ in range(SETUP_REPS):
            with Instrument(tracer):
                if tracer:
                    tracer.reset()
                t0 = perf_counter()
                inst = wl.plant(seed)
                setup_s.append(perf_counter() - t0)
                if tracer:
                    planted_s.append(tracer.incl_s["generate.planted_instance"])
            if reference:
                setup_ref.append(reference.around())
        ps = inst.ps

        start = perf_counter()
        op_seed = 0
        while op_seed < wl.counted_ops or perf_counter() - start < seconds:
            with Instrument(tracer) as hooks:
                if tracer:
                    tracer.reset()
                rec = run_op(wl, ps, op_seed, hooks)
            if reference:
                rec.ref_seconds = reference.around()
            timed.append(rec)
            if tracer:
                layers.append(_layer_snapshot(tracer, rec.evals_top))
                if rec.ok and layers[-1]["core.dist_evals"] != rec.evals_total:
                    problems.append(
                        f"seed {op_seed}: span-summed evaluations {layers[-1]['core.dist_evals']:.0f} "
                        f"!= counted {rec.evals_total}"
                    )
                if op_seed < PAIRED_SEEDS:
                    with Instrument() as hooks:
                        plain = run_op(wl, ps, op_seed, hooks)
                    twins.append((rec, plain))
                    if rec.ok and plain.ok and (rec.outcome.digest, rec.evals_total) != (
                        plain.outcome.digest,
                        plain.evals_total,
                    ):
                        problems.append(f"seed {op_seed}: traced and untraced solves differ")
            op_seed += 1
    with Instrument() as hooks:
        again = run_op(wl, ps, 0, hooks)
    first = timed[0]
    if not (again.ok and first.ok and again.outcome.digest == first.outcome.digest):
        problems.append("re-running seed 0 did not reproduce its digest")

    all_ops = timed + [plain for _, plain in twins]
    failures = Counter(r.error for r in all_ops if not r.ok)
    problems += [f"op seed={r.seed}: {p}" for r in all_ops if r.outcome for p in r.outcome.problems]
    timed_ok = [r for r in timed if r.ok] or timed
    times = [r.seconds for r in timed_ok]
    tail_s, tail_pct, beyond = tail(times)
    counted = [r for r in timed[: wl.counted_ops] if r.ok]

    report = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": sum(failures.values()),
        "failures_by_type": dict(failures),
        "problems": problems[:20],
        "setup_seconds": [round(t, 4) for t in setup_s],
        "ops_timed": len(times),
        "op_seconds": [round(r.seconds, 4) for r in timed],
        "solve_s_p50_wall": statistics.median(times),
        "solve_s_tail_wall": tail_s,
        "solve_s_tail_percentile": tail_pct,
        "solve_s_tail_ops_beyond": beyond,
        "counted_ops": len(counted),
        "digest_seed0": first.outcome.digest if first.outcome else "",
        "dist_evals_top_per_solve": _mean([r.evals_top for r in counted]),
        "environment": environment(wl, _median([r.outcome.output_size for r in counted])),
    }
    if not trace:
        # Wall times scaled to the reference speed; see reference.py.
        setup_scaled = [NOMINAL_SECONDS * t / r for t, r in zip(setup_s, setup_ref)]
        scaled = [NOMINAL_SECONDS * r.seconds / r.ref_seconds for r in timed_ok]
        report["setup_s_wall"] = statistics.median(setup_s)
        report["ref_seconds_p50"] = statistics.median(setup_ref + [r.ref_seconds for r in timed])
        report["op_seconds_scaled"] = [round(x, 4) for x in scaled]
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "solve_s_p50": statistics.median(scaled),
            "solve_s_tail": tail(scaled)[0],
            "dist_evals_per_solve": _mean([r.evals_total for r in counted]),
            "radius_ratio": _median([r.outcome.radius for r in counted]) / inst.analytic_radius,
            "output_size": _median([r.outcome.output_size for r in counted]),
            "comm_floats": _median([r.outcome.comm_floats for r in counted]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - report["failed"] / report["attempted"],
        }
        units = END_TO_END
    else:
        counted_layers = layers[: wl.counted_ops]
        metrics = {name: _mean([snap[name] for snap in counted_layers]) for name in layers[0]}
        bytes_moved = metrics.pop("core.dists_from.bytes")
        dists_self = metrics["core.dists_from.self_s"]
        metrics["core.dists_from.gb_per_s"] = bytes_moved / dists_self / 1e9 if dists_self else 0.0
        metrics["generate.planted_instance.s"] = statistics.median(planted_s)
        # Paired by seed, so the op-to-op spread of the workload cancels.
        metrics["trace.overhead"] = _median([t.seconds / u.seconds - 1.0 for t, u in twins if t.ok and u.ok])
        units = PER_LAYER
    report["metrics"] = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}
    return report


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(wl: Workload, output_size: float) -> dict:
    """Software, hardware and the workload's computed working set, labelled
    cache-resident when it fits in the last-level cache."""
    caches = _cache_sizes()
    working_set = wl.working_set_bytes(int(output_size))
    llc = _size_bytes(caches[max(caches)]) if caches else 0
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "cpu": _cpu_model(),
        "caches": caches,
        "working_set_bytes": working_set,
        "working_set": "cache-resident" if 0 < sum(working_set.values()) <= llc else "exceeds last-level cache",
    }


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)

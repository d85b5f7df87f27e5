"""Spans and counters recorded by wrapping robustcenter's public functions.

Nothing under ``src/`` is edited: ``Instrument`` swaps wrappers into the module
namespaces and classes where the library looks the names up, and puts the
originals back when it is closed.  Modules import each other's names with
``from .core import ...``, so a function is wrapped in every module that calls
it, and a method once on its class.

A span's self time is its duration minus the time covered by the spans nested
directly inside it.  Counters are recorded at the same boundaries from the
arguments and results of the wrapped call.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import robustcenter.core as core
import robustcenter.coreset as coreset
import robustcenter.distributed as distributed
import robustcenter.generate as generate
import robustcenter.greedy as greedy
import robustcenter.solvers as solvers


class Tracer:
    """Per-op span totals: calls, inclusive and self seconds, maxima, counters."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [span name, seconds covered by children]
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.max_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] += amount

    def wrap(self, name: str, fn, count=None):
        """Span around ``fn``; ``count(tracer, args, result)`` runs after a
        successful call, and a raised exception is counted by its type."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.add(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.calls[name] += 1
                self.incl_s[name] += dt
                self.self_s[name] += dt - frame[1]
                self.max_s[name] = max(self.max_s[name], dt)
            if count is not None:
                count(self, args, result)
            return result

        return wrapper


def _count_dists_from(t: Tracer, args, result) -> None:
    ps = args[0]
    t.add("core.dist_evals", result.size)
    # Coordinates read plus distances written: n * (D + 1) doubles per pass.
    t.add("core.dists_from.bytes", result.size * ((ps.dim or 0) + 1) * 8)


def _count_cross_dists(t: Tracer, args, result) -> None:
    t.add("core.dist_evals", result.size)
    t.add("core.cross_dists.evals", result.size)


def _count_dist(t: Tracer, args, result) -> None:
    t.add("core.dist_evals", 1)


def _count_bicriteria(t: Tracer, args, result) -> None:
    t.add("greedy.bicriteria.rounds", max(result.round_of))
    t.add("greedy.bicriteria.centers", len(result))


def _count_build_auto(t: Tracer, args, result) -> None:
    meta = result.meta
    t.add("coreset.phase2_rounds", meta.get("phase2_rounds", 0))
    t.add("coreset.size", len(result))
    t.add("coreset.far_count", meta.get("far_count", 0))
    t.add("coreset.fallbacks", bool(meta.get("fallback", False)))
    if t.inside("distributed.site_round_one"):
        t.add("distributed.site_builds")


def _count_charikar(t: Tracer, args, result) -> None:
    t.add("solvers.charikar.host_n", args[0].n)


def _count_site_round_one(t: Tracer, args, result) -> None:
    t.add("distributed.clamps", len(result.clamps))


def _count_run_protocol(t: Tracer, args, result) -> None:
    phases = result.ledger.phases
    t.add("distributed.round2_floats", phases[-1]["floats"])
    t.add("distributed.round1_floats", sum(p["floats"] for p in phases[:-1]))


# (owner, attribute, span name, counter).  Functions are listed once per
# module that looks them up; the benchmark's own ops call the library through
# these module attributes too.
_TARGETS = (
    (core.PointSet, "dists_from", "core.dists_from", _count_dists_from),
    (core.PointSet, "cross_dists", "core.cross_dists", _count_cross_dists),
    (core.PointSet, "dist", "core.dist", _count_dist),
    (core.NearestTracker, "add_center", "core.tracker_add", None),
    (core, "farthest_m", "core.farthest_m", None),
    (greedy, "farthest_m", "core.farthest_m", None),
    (core, "clustering_cost", "core.cost_eval", None),
    (core, "cost_radius", "core.cost_eval", None),
    (core, "weighted_cost", "core.cost_eval", None),
    (coreset, "clustering_cost", "core.cost_eval", None),
    (solvers, "clustering_cost", "core.cost_eval", None),
    (coreset, "radius_after_exclusions", "core.radius_excl", None),
    (greedy, "bicriteria", "greedy.bicriteria", _count_bicriteria),
    (coreset, "build_coreset_auto", "coreset.build_auto", _count_build_auto),
    (distributed, "build_coreset_auto", "coreset.build_auto", _count_build_auto),
    (coreset, "compose_with_host", "coreset.compose", None),
    (solvers, "charikar_3approx", "solvers.charikar", _count_charikar),
    (distributed, "run_protocol", "distributed.run_protocol", _count_run_protocol),
    (distributed, "site_round_one", "distributed.site_round_one", _count_site_round_one),
    (distributed, "coordinator_threshold", "distributed.coordinator", None),
    (distributed, "assemble", "distributed.assemble", None),
    (generate, "planted_instance", "generate.planted_instance", None),
)


class Instrument:
    """Installs the benchmark's hooks and restores the library on close.

    Every run installs one hook on ``PointSet.subset``, which only keeps the
    distance counter of each child point set, so that ``child_evals`` can sum
    the evaluations the library makes on subsets (the top-level counter misses
    them).  With a tracer, every target above is wrapped in a span as well.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self._children: list[core.DistanceStats] = []
        self._saved: list[tuple[object, str, object]] = []
        subset = core.PointSet.subset
        if tracer is not None:
            subset = tracer.wrap("core.subset", subset)

        def counted_subset(ps, indices):
            child = subset(ps, indices)
            self._children.append(child.stats)
            return child

        self._patch(core.PointSet, "subset", functools.wraps(subset)(counted_subset))
        if tracer is not None:
            for owner, attr, name, count in _TARGETS:
                self._patch(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def child_evals(self) -> int:
        """Evaluations made on subsets since the last call; forgets them."""
        total = sum(stats.evals for stats in self._children)
        self._children.clear()
        return total

    def close(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Instrument":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

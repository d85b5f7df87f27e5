"""Core types and cost functions for k-center clustering with outliers.

Instances are either Euclidean (an n x D coordinate array) or explicit metric
(an n x n distance matrix).  All distance evaluations go through the PointSet
methods so an instrumentation counter sees every one of them, and all
tie-breaking is by ascending point index so runs are bit-reproducible.

Coordinates are stored coordinate-major (Fortran order), so each axis is one
contiguous column.  Distances are summed axis by axis over whole columns, in
the order numpy's pairwise sum uses along one contiguous row, which keeps
them bit-equal to ``np.sqrt(((x - c)**2).sum(-1))`` on row-major data.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GuardError",
    "DistanceStats",
    "PointSet",
    "ParamSet",
    "CenterSet",
    "NearestTracker",
    "ClusteringEval",
    "ceil_count",
    "relaxed_exclusions",
    "farthest_m",
    "euclidean_dists",
    "clustering_cost",
    "cost_radius",
    "radius_after_exclusions",
    "peel_weight",
    "weighted_cost",
    "load_points_csv",
    "load_distance_matrix_csv",
]

# Absorbs binary-float fuzz in count formulas: (1 + 0.1) * 10 is
# 11.000000000000002 in doubles and must count as 11, not 12.
_CEIL_SLACK = 1e-9


class GuardError(RuntimeError):
    """A desk-scale enumeration or round guard tripped."""


def ceil_count(x: float) -> int:
    if not math.isfinite(x):
        raise ValueError(f"count formula produced a non-finite value: {x!r}")
    return max(0, math.ceil(x - _CEIL_SLACK))


def relaxed_exclusions(z: int, eps: float) -> int:
    """Points dropped by the relaxed cost: ceil((1+eps) * z)."""
    if z < 0:
        raise ValueError("outlier count must be non-negative")
    if eps < 0:
        raise ValueError("relaxation parameter must be non-negative")
    return ceil_count((1.0 + eps) * z)


@dataclass
class DistanceStats:
    """Mutable instrumentation cell; every pairwise evaluation adds one."""

    evals: int = 0


def _sum_axes(sq: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Add the slabs sq[lo+1:hi] into sq[lo] in place and return sq[lo].

    The order is numpy's pairwise sum over one contiguous row: one by one
    below 8 slabs; up to 128, eight running sums over the full blocks of 8,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover
    slabs; above 128, the two halves split at a multiple of 8.
    """
    m = hi - lo
    if m < 8:
        for j in range(lo + 1, hi):
            sq[lo] += sq[j]
    elif m <= 128:
        full = hi - m % 8
        for i in range(lo + 8, full, 8):
            sq[lo : lo + 8] += sq[i : i + 8]
        for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
            sq[lo + a] += sq[lo + b]
        for j in range(full, hi):
            sq[lo] += sq[j]
    else:
        half = m // 2 - (m // 2) % 8
        _sum_axes(sq, lo, lo + half)
        sq[lo] += _sum_axes(sq, lo + half, hi)
    return sq[lo]


def _dists_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    # One contiguous slab of squared differences per coordinate axis.
    sq = np.empty((a.shape[-1],) + out.shape)
    for j in range(a.shape[-1]):
        np.subtract(a[..., j], b[..., j], out=sq[j])
    np.square(sq, out=sq)
    np.sqrt(_sum_axes(sq, 0, a.shape[-1]), out=out)


def euclidean_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between a and b over their last (coordinate) axis.

    The first axis of ``a`` indexes the result's rows and ``b`` has fewer
    axes than ``a``; the axes in between broadcast.  Squared differences are
    summed axis by axis in numpy's pairwise order, so the result equals
    np.sqrt(((a - b)**2).sum(-1)) on row-major operands bit for bit.  Counts
    nothing.
    """
    if b.ndim >= a.ndim:
        raise ValueError("b must have fewer axes than a, whose first axis indexes the rows")
    shape = np.broadcast(a, b).shape
    out = np.empty(shape[:-1])
    # Row chunks keep each (D x chunk) temporary near 1 MB, small enough to
    # stay in cache between the passes over it.
    step = max(1, (1 << 17) // max(1, shape[-1] * math.prod(shape[1:-1])))
    for s in range(0, shape[0], step):
        _dists_into(a[s : s + step], b, out[s : s + step])
    return out


@dataclass(frozen=True, eq=False)
class PointSet:
    """Immutable point collection, Euclidean or explicit-metric.

    Arrays are stored read-only, coordinates coordinate-major.  ``stats`` is
    an instrumentation counter and not part of the value: sharing a PointSet
    across readers is safe, the counter is only meaningful for
    single-threaded measurements.
    """

    mode: str
    coords: np.ndarray | None
    dmat: np.ndarray | None
    stats: DistanceStats = field(default_factory=DistanceStats, repr=False)

    @classmethod
    def from_coords(cls, coords: np.ndarray | Sequence[Sequence[float]]) -> "PointSet":
        arr = np.array(coords, dtype=np.float64, order="F")
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("coordinates must form a non-empty 2-D array")
        if not np.isfinite(arr).all():
            raise ValueError("coordinates must be finite (no NaN/Inf)")
        arr.flags.writeable = False
        return cls(mode="euclidean", coords=arr, dmat=None)

    @classmethod
    def from_distance_matrix(cls, dmat: np.ndarray | Sequence[Sequence[float]]) -> "PointSet":
        arr = np.array(dmat, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("distance matrix must be square and non-empty")
        if not np.isfinite(arr).all():
            raise ValueError("distance matrix must be finite (no NaN/Inf)")
        if (arr < 0).any():
            raise ValueError("distances must be non-negative")
        if not np.array_equal(arr, arr.T):
            raise ValueError("distance matrix must be symmetric")
        if np.diagonal(arr).any():
            raise ValueError("distance matrix diagonal must be zero")
        arr.flags.writeable = False
        return cls(mode="matrix", coords=None, dmat=arr)

    @property
    def n(self) -> int:
        base = self.coords if self.mode == "euclidean" else self.dmat
        assert base is not None
        return base.shape[0]

    @property
    def dim(self) -> int | None:
        return self.coords.shape[1] if self.mode == "euclidean" else None

    def dist(self, i: int, j: int) -> float:
        self.stats.evals += 1
        if self.mode == "matrix":
            return float(self.dmat[i, j])
        return float(euclidean_dists(self.coords[i : i + 1], self.coords[j])[0])

    def dists_from(self, i: int) -> np.ndarray:
        """Distances from point i to every point."""
        self.stats.evals += self.n
        if self.mode == "matrix":
            return self.dmat[i].copy()
        return euclidean_dists(self.coords, self.coords[i])

    def cross_dists(self, rows: Iterable[int], cols: Iterable[int]) -> np.ndarray:
        """|rows| x |cols| distance block."""
        r = np.asarray(rows, dtype=np.intp)
        c = np.asarray(cols, dtype=np.intp)
        self.stats.evals += int(r.size) * int(c.size)
        if self.mode == "matrix":
            return self.dmat[np.ix_(r, c)].copy()
        return euclidean_dists(self.coords[r][:, None, :], self.coords[c])

    def subset(self, indices: Iterable[int]) -> "PointSet":
        """New PointSet restricted to ``indices`` (fresh counter)."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size < 1:
            raise ValueError("subset must be non-empty")
        if self.mode == "matrix":
            return PointSet.from_distance_matrix(self.dmat[np.ix_(idx, idx)])
        return PointSet.from_coords(self.coords[idx])

    def content_hash(self) -> str:
        base = self.coords if self.mode == "euclidean" else self.dmat
        h = hashlib.sha256()
        h.update(self.mode.encode())
        h.update(str(base.shape).encode())
        h.update(np.ascontiguousarray(base).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class ParamSet:
    """Shared problem parameters, validated once at construction.

    gamma is derived (z/n) rather than stored; k + z < n rejects instances
    where excluding the outliers leaves nothing to cluster.
    """

    k: int
    z: int
    n: int
    eps: float = 1.0
    eta: float = 0.25
    mu: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 <= self.z < self.n:
            raise ValueError("z must satisfy 0 <= z < n")
        if self.k + self.z >= self.n:
            raise ValueError("degenerate instance: k + z must be < n")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if not 0 < self.eta < 0.5:
            raise ValueError("eta must lie in (0, 1/2)")
        if not 0 < self.mu < 1:
            raise ValueError("mu must lie in (0, 1)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def gamma(self) -> float:
        return self.z / self.n


@dataclass(frozen=True)
class CenterSet:
    """Selected center indices plus the round that added each one."""

    indices: tuple[int, ...]
    round_of: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.round_of):
            raise ValueError("indices and round_of must have equal length")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("center indices must be distinct")
        if any(b < a for a, b in zip(self.round_of, self.round_of[1:])):
            raise ValueError("round_of must be non-decreasing")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)


class NearestTracker:
    """Per-point distance to the nearest selected center, updated on insert.

    Insertion order breaks ownership ties: a later center takes a point only
    on strict improvement.
    """

    def __init__(self, ps: PointSet):
        self.ps = ps
        self.mindist = np.full(ps.n, np.inf)
        self.owner = np.full(ps.n, -1, dtype=np.intp)

    def add_center(self, c: int) -> None:
        d = self.ps.dists_from(c)
        better = d < self.mindist
        self.owner[better] = c
        np.minimum(self.mindist, d, out=self.mindist)

    def add_centers(self, centers: Iterable[int]) -> None:
        for c in centers:
            self.add_center(int(c))

    @classmethod
    def over(cls, ps: PointSet, centers: Iterable[int]) -> "NearestTracker":
        t = cls(ps)
        t.add_centers(centers)
        return t


def farthest_m(source, m: int) -> np.ndarray:
    """Indices of the m points with largest tracked distance, ascending.

    Ties at the cut boundary go to the lower index.  Expected O(n) via
    partition selection.
    """
    mindist = source.mindist if isinstance(source, NearestTracker) else np.asarray(source, dtype=np.float64)
    n = mindist.shape[0]
    if not 0 < m <= n:
        raise ValueError(f"m must lie in [1, {n}], got {m}")
    if m == n:
        return np.arange(n, dtype=np.intp)
    cut = np.partition(mindist, n - m)[n - m]
    above = np.flatnonzero(mindist > cut)
    at_cut = np.flatnonzero(mindist == cut)[: m - above.size]
    return np.sort(np.concatenate([above, at_cut])).astype(np.intp)


def _center_indices(ps: PointSet, centers) -> np.ndarray:
    idx = np.asarray(centers if isinstance(centers, np.ndarray) else list(centers), dtype=np.intp)
    if idx.size < 1:
        raise ValueError("need at least one center")
    if idx.min() < 0 or idx.max() >= ps.n:
        raise ValueError(f"center indices must lie in [0, {ps.n})")
    return idx


@dataclass(frozen=True)
class ClusteringEval:
    """Costs of one center set: the strict radius with z points dropped, the
    relaxed radius with ceil((1+eps)*z) dropped, and the z excluded indices
    (the farthest points, lower index first on ties)."""

    radius: float
    relaxed: float
    excluded: frozenset[int]


def clustering_cost(ps: PointSet, centers, z: int, eps: float = 0.0) -> ClusteringEval:
    """Strict and relaxed cost of ``centers``, both read from one
    nearest-center tracker (one distance pass per center).  With eps=0 the
    two radii are equal."""
    idx = _center_indices(ps, centers)
    strict, m = relaxed_exclusions(z, 0.0), relaxed_exclusions(z, eps)
    if m >= ps.n:
        raise ValueError("exclusion budget swallows the dataset")
    mindist = NearestTracker.over(ps, idx).mindist
    return ClusteringEval(
        radius_after_exclusions(mindist, strict),
        radius_after_exclusions(mindist, m),
        frozenset(farthest_m(mindist, strict).tolist()) if strict else frozenset(),
    )


def cost_radius(ps: PointSet, centers, z: int, eps: float = 0.0) -> float:
    """The relaxed radius of clustering_cost; perfbench calls it by name."""
    return clustering_cost(ps, centers, z, eps).relaxed


def radius_after_exclusions(mindist: np.ndarray, m: int) -> float:
    """(m+1)-th largest tracked distance; the value is tie-order independent."""
    n = mindist.shape[0]
    if m >= n:
        raise ValueError("exclusion budget swallows the dataset")
    if m == 0:
        return float(mindist.max())
    return float(np.partition(mindist, n - 1 - m)[n - 1 - m])


def peel_weight(d: np.ndarray, w: np.ndarray, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Peel exactly z units of weight off each row of ``d`` (last axis),
    farthest first and lower index first on ties; the straddling point keeps
    its remainder.  Returns the straddler's distance and the number of points
    peeled whole, per row.

    The caller checks 0 <= z < w.sum().  The running sum can round to at most
    z even so; then the last point in peel order is the straddler.
    """
    order = np.argsort(-d, axis=-1, kind="stable")
    cumw = np.cumsum(w[order], axis=-1)
    whole = np.minimum((cumw <= z).sum(axis=-1), d.shape[-1] - 1)
    pos = np.take_along_axis(order, whole[..., None], axis=-1)
    return np.take_along_axis(d, pos, axis=-1)[..., 0], whole


def weighted_cost(ps: PointSet, point_indices, weights, centers, z: float) -> float:
    """Weighted strict cost: the straddler's distance under peel_weight."""
    idx = np.asarray(point_indices, dtype=np.intp)
    w = np.asarray(weights, dtype=np.float64)
    if idx.shape != w.shape:
        raise ValueError("indices and weights must align")
    if not np.isfinite(w).all() or (w <= 0).any():
        raise ValueError("weights must be positive and finite")
    if not 0 <= z < math.inf:
        raise ValueError("outlier weight budget must be finite and non-negative")
    if float(w.sum()) <= z:
        raise ValueError("outlier weight budget consumes the whole coreset")
    cidx = _center_indices(ps, centers)
    d = ps.cross_dists(idx, cidx).min(axis=1)
    return float(peel_weight(d, w, z)[0])


def _read_csv_rows(path) -> list[list[float]]:
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}: line {lineno}: ragged row (expected {len(rows[0])} columns)")
    if not rows:
        raise ValueError(f"{path}: no points found")
    return rows


def load_points_csv(path) -> PointSet:
    """One point per line, comma-separated floats, no header."""
    return PointSet.from_coords(np.array(_read_csv_rows(path), dtype=np.float64))


def load_distance_matrix_csv(path) -> PointSet:
    """Square symmetric zero-diagonal matrix, one row per line."""
    return PointSet.from_distance_matrix(np.array(_read_csv_rows(path), dtype=np.float64))

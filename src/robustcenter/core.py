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
import functools
import hashlib
import math
from dataclasses import dataclass, field
from decimal import Decimal
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
]

# Absorbs binary-float fuzz in count formulas: (1 + 0.1) * 10 is
# 11.000000000000002 in doubles and must count as 11, not 12.
_CEIL_SLACK = 1e-9

# The candidate filter of ``PointSet.dists_from(..., below=)`` runs on
# coordinates of _GRAM_MIN_DIM to _GRAM_MAX_DIM axes.  Below the minimum its
# matrix-vector product costs about as much as the slab passes it saves; the
# maximum keeps the proof's second-order terms small.  _GRAM_FLOOR lowers
# every filter value by more than all underflow losses together.
_GRAM_MIN_DIM = 4
_GRAM_MAX_DIM = 1 << 20
_GRAM_FLOOR = 1e-300


class GuardError(RuntimeError):
    """A desk-scale enumeration or round guard tripped."""


def _max_coordinate(dim: int) -> float:
    """The magnitude rule: sqrt(DBL_MAX / 4 dim)(1 - 2**-20) bounds |coordinate|,
    which keeps every summed square, at most 4 dim max|x|^2, finite."""
    return math.sqrt(np.finfo(np.float64).max / (4 * dim)) * (1.0 - 2.0**-20)


def ceil_count(x: float) -> int:
    if not math.isfinite(x):
        raise ValueError(f"count formula produced a non-finite value: {x!r}")
    return max(0, math.ceil(x - _CEIL_SLACK))


def relaxed_exclusions(z: int, eps: float) -> int:
    """Points dropped by the relaxed cost: ceil((1+eps) * z)."""
    z = _count(z, "z", 0)
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


def _summed_squares(a: np.ndarray, b: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # One contiguous slab of squared differences per coordinate axis, summed
    # into the first slab, which is returned.
    sq = np.empty((a.shape[-1],) + shape)
    for j in range(a.shape[-1]):
        np.subtract(a[..., j], b[..., j], out=sq[j])
    np.square(sq, out=sq)
    return _sum_axes(sq, 0, a.shape[-1])


def _rows_per_chunk(width: int) -> int:
    """The one chunk rule: rows of ``width`` doubles per kernel chunk, so each
    temporary holds about 2**17 doubles (1 MB) and stays in cache between passes."""
    return max(1, (1 << 17) // max(1, width))


def euclidean_dists(a: np.ndarray, b: np.ndarray, root: bool = True) -> np.ndarray:
    """Distances between a and b over their last (coordinate) axis.

    The first axis of ``a`` indexes the result's rows and ``b`` has fewer
    axes than ``a``; the axes in between broadcast.  Squared differences are
    summed axis by axis in numpy's pairwise order, so the result equals
    np.sqrt(((a - b)**2).sum(-1)) on row-major operands bit for bit.  With
    ``root=False`` it is that sum before the root.  Counts nothing.
    """
    if b.ndim >= a.ndim:
        raise ValueError("b must have fewer axes than a, whose first axis indexes the rows")
    shape = np.broadcast(a, b).shape
    step = _rows_per_chunk(shape[-1] * math.prod(shape[1:-1]))
    if step >= shape[0]:  # one chunk: its sum slab is the result
        sq = _summed_squares(a, b, shape[:-1])
        return np.sqrt(sq, out=sq) if root else sq
    out = np.empty(shape[:-1])
    for s in range(0, shape[0], step):
        if root:
            np.sqrt(_summed_squares(a[s : s + step], b, out[s : s + step].shape), out=out[s : s + step])
        else:
            out[s : s + step] = _summed_squares(a[s : s + step], b, out[s : s + step].shape)
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
        # Two reductions, as np.abs(arr).max() would copy the array; NaN fails the compare.
        top, limit = max(arr.max(), -arr.min()), _max_coordinate(arr.shape[1])
        if not top <= limit:
            raise ValueError(
                f"coordinates must be finite (no NaN/Inf) and at most {limit!r} in magnitude for "
                f"D={arr.shape[1]}, sqrt(DBL_MAX / 4D)(1 - 2**-20); got {float(top)!r}"
            )
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
        i, j = _count(i, "point index", 0, self.n - 1), _count(j, "point index", 0, self.n - 1)
        self.stats.evals += 1
        return float(self._block(np.array([i]), np.array([j]))[0, 0])

    def dists_from(
        self, i: int, root: bool = True, below: np.ndarray | None = None, found: list | None = None
    ) -> np.ndarray:
        """Distances from point i to every point, counted as n evaluations.
        With ``root=False``, coordinates give the kernel's summed squares
        (keys) before its final root, whose np.sqrt is the default result
        bit for bit; a distance matrix gives its distances either way.

        ``below`` (n thresholds) needs ``found``, a list.  When at most n/8
        entries of the returned row d fall below their threshold, ``found``
        receives those points, np.flatnonzero(d < below); otherwise nothing
        is appended.  The points that fell always hold their exact value.

        With ``root=False`` on coordinates of D in [_GRAM_MIN_DIM,
        _GRAM_MAX_DIM] axes, an entry that does not fall may hold a value v
        with below <= v <= key instead.  One matrix-vector product gives each
        point x the filter value

            f = fl(fl(x.(-2c) + s_x) + fl(s_c - F)),   s_p = fl((1 - tol) n_p),

        with n_p the kernel's summed squares of p (``_gram_norms``),
        tol = (4D + 16)u, u = 2**-53 and F = _GRAM_FLOOR.  Points with
        f < below are the candidates: their coordinate columns are gathered
        into one (D x chunk) block per kernel chunk and run through the
        kernel's own subtract, square and axis sum, so each gets its exact
        key; the rest keep f.  Past n/8 candidates the whole row is computed
        instead.

        Why f < K', the kernel's rounded key.  Let S = |x|^2 + |c|^2,
        K = |x - c|^2 <= 2S, and w = 2**-1075, the most a product loses to
        underflow (sums and differences underflow exactly); every other
        rounding is a factor 1 + d with |d| <= u.  To first order in u:
        - K' adds D rounded squares of rounded differences, all
          non-negative, so K' >= (1-u)^(D+2) K - Dw >= K - 2(D+2)uS - Dw.
        - The product, in any order and with or without FMA (-2c is exact),
          lies within DuS + Dw of -2x.c, as sum 2|x_j||c_j| <= S.
        - n_x <= (1+u)^D |x|^2 + Dw, so s_x <= (1-tol)(1+(D+1)u)|x|^2
          + (D+1)w, and likewise s_c.
        - fl(s_c - F) <= s_c(1+u) - F(1-u), whatever the sign of s_c - F.
        - The two additions round by at most 2uS and u(3S + F).
        Together f <= K' - (tol - (4D+11)u)S - F(1-2u) + (4D+2)w.  With
        D <= _GRAM_MAX_DIM the second-order terms stay below 5uS and
        (4D+2)w below F/2, so f < K': the filter keeps every point whose
        key could fall below its threshold, and a kept f never exceeds the
        key it stands for.  No intermediate overflows: each is at most
        2S <= 4D max|x|^2, finite under ``from_coords``' magnitude rule.
        """
        i = _count(i, "point index", 0, self.n - 1)
        if below is not None and found is None:
            raise ValueError("below needs a found list to receive the points that fell")
        self.stats.evals += self.n
        norms = None if below is None or root else self._gram_norms
        if self.mode == "matrix":
            d = self.dmat[i].copy()
        elif norms is None:
            d = euclidean_dists(self.coords, self.coords[i], root)
        else:
            x, c = self.coords, self.coords[i]
            d = x @ (-2.0 * c)
            d += norms
            d += norms[i] - _GRAM_FLOOR
            cand = d < below
            if 8 * np.count_nonzero(cand) > self.n:
                del d, cand  # freed before the whole-row pass makes its own row
                d = euclidean_dists(x, c, False)
            else:
                cand = cand.nonzero()[0]
                # x.T is the coordinate-major store seen as D contiguous axes,
                # so one take gathers a chunk's columns as the kernel's slabs.
                xt, c = x.T, c[:, None]
                step = _rows_per_chunk(self.dim)
                for s in range(0, cand.size, step):
                    rows = cand[s : s + step]
                    sq = np.take(xt, rows, axis=1)
                    sq -= c
                    np.square(sq, out=sq)
                    d[rows] = _sum_axes(sq, 0, self.dim)
                # Only candidates can fall, and at most n/8 of them.
                found.append(cand[d[cand] < below[cand]])
                return d
        if below is not None:
            fell = d < below
            if 8 * np.count_nonzero(fell) <= self.n:
                found.append(fell.nonzero()[0])
        return d

    @functools.cached_property
    def _gram_norms(self) -> np.ndarray | None:
        """Each point's summed squares from the distance kernel, scaled by
        1 - (4D + 16)2**-53: the norms the filter of ``dists_from`` reads,
        or None where it does not run.  Built on first use and cached in the
        instance dict, outside the fields, so equality, repr and
        content_hash ignore it."""
        if self.mode == "euclidean" and _GRAM_MIN_DIM <= self.dim <= _GRAM_MAX_DIM:
            scale = 1.0 - (4 * self.dim + 16) * 2.0**-53
            return euclidean_dists(self.coords, np.zeros(self.dim), root=False) * scale
        return None

    def _block(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        # The |r| x |c| distance block between checked indices, uncounted.
        if self.mode == "matrix":
            return self.dmat[np.ix_(r, c)]  # fancy indexing already copies
        # One take gathers the cols coordinate-major, as the filter's gather
        # does: cheaper than row indexing, and each axis the kernel reads is contiguous.
        return euclidean_dists(self.coords[r][:, None, :], np.take(self.coords.T, c, axis=1).T)

    def cross_dists(self, rows: Iterable[int], cols: Iterable[int]) -> np.ndarray:
        """|rows| x |cols| distance block."""
        r, c = _point_indices(rows, self.n), _point_indices(cols, self.n)
        self.stats.evals += r.size * c.size
        return self._block(r, c)

    def nearest_dists(self, rows: Iterable[int], cols: Iterable[int]) -> np.ndarray:
        """Distance from each row point to its nearest col point: the row
        minima of cross_dists(rows, cols), counted the same, computed in row
        blocks so the whole |rows| x |cols| block never exists."""
        r, c = _point_indices(rows, self.n), _point_indices(cols, self.n)
        self.stats.evals += r.size * c.size
        out = np.empty(r.size)
        # The kernel's chunk rule: a coordinate block is one chunk's slab, rooted in place.
        step = _rows_per_chunk((self.dim or 1) * c.size)
        for s in range(0, r.size, step):
            self._block(r[s : s + step], c).min(axis=1, out=out[s : s + step])
        return out

    def subset(self, indices: Iterable[int]) -> "PointSet":
        """New PointSet restricted to ``indices`` (fresh counter)."""
        idx = _point_indices(indices, self.n)
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
    where excluding the outliers leaves nothing to cluster.  Counts are
    stored as Python ints, so numpy unsigned ones cannot wrap.
    """

    k: int
    z: int
    n: int
    eps: float = 1.0
    eta: float = 0.25
    mu: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        n = _count(self.n, "n", 2)
        for name, lo, hi in (("k", 1, n - 1), ("z", 0, n - 1), ("seed", 0, 2**64 - 1)):
            object.__setattr__(self, name, _count(getattr(self, name), name, lo, hi))
        object.__setattr__(self, "n", n)
        if self.k + self.z >= self.n:
            raise ValueError("degenerate instance: k + z must be < n")
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        if not 0 < self.eta < 0.5:
            raise ValueError("eta must lie in (0, 1/2)")
        if not 0 < self.mu < 1:
            raise ValueError("mu must lie in (0, 1)")

    @property
    def gamma(self) -> float:
        return self.z / self.n


@dataclass(frozen=True)
class CenterSet:
    """Selected center indices plus the round that added each one.

    A set built by ``_from_tracker`` also carries, outside its fields, a
    read-only copy of the tracker's distances and the PointSet they were
    computed over, so ``clustering_cost`` on that same PointSet makes no
    second pass.  Equality, hashing, repr and ``dataclasses.replace`` see
    only the fields, and a replaced or rebuilt set carries nothing.
    """

    indices: tuple[int, ...]
    round_of: tuple[int, ...]
    _mindist = None
    _source = None

    def __post_init__(self) -> None:
        if not all(map(_is_integer, (*self.indices, *self.round_of))) or any(i < 0 for i in self.indices):
            raise ValueError("center indices must be non-negative integers and rounds integers")
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

    @classmethod
    def _from_tracker(cls, tracker: "NearestTracker", chosen: dict[int, int]) -> "CenterSet":
        """The picks in ``chosen`` (center index to round, in insertion
        order), carrying the distances of the tracker that took them."""
        cs = cls(tuple(chosen), tuple(chosen.values()))
        mindist = tracker.mindist.copy()
        mindist.flags.writeable = False
        object.__setattr__(cs, "_mindist", mindist)
        object.__setattr__(cs, "_source", tracker.ps)
        return cs


class NearestTracker:
    """Per-point distance to the nearest selected center, updated on insert.

    Insertion order breaks ownership ties: a later center takes a point only
    on strict improvement of its distance.

    ``keys`` holds the unrooted distances behind ``mindist`` (on a distance
    matrix, ``mindist`` itself).  The root is monotone, so a center can take
    only the points whose key it lowers.  Each insert after the first passes
    ``keys`` as ``below`` to ``dists_from``, which hands back the points that
    fell when at most an eighth of the row did; the insert then roots,
    compares and scatters on those points alone.  When nothing comes back,
    as on the first few inserts, it updates the whole row.  The first insert
    finds every key infinite, so it asks for the whole row without the
    filter's product.  ``keys``, ``mindist`` and ``owner`` equal the
    whole-row result bit for bit.  The norms the filter reads are built with
    the first tracker on a point set, not inside an insert.
    """

    def __init__(self, ps: PointSet):
        self.ps = ps
        self.mindist = np.full(ps.n, np.inf)
        self.keys = np.full(ps.n, np.inf) if ps.mode == "euclidean" else self.mindist
        self.owner = np.full(ps.n, -1, dtype=np.intp)
        self.held = False  # whether a center was inserted
        ps._gram_norms  # built here, not inside an insert

    def add_center(self, c: int) -> None:
        fell = []
        d = self.ps.dists_from(c, root=False, below=self.keys if self.held else None, found=fell)
        self.held = True
        has_root = self.keys is not self.mindist
        if not fell:
            if has_root:
                np.minimum(self.keys, d, out=self.keys)
                np.sqrt(d, out=d)
            better = d < self.mindist
            self.owner[better] = c
            np.minimum(self.mindist, d, out=self.mindist)
            return
        idx = fell[0]
        near = d[idx]
        if has_root:
            self.keys[idx] = near
            np.sqrt(near, out=near)
        # A key that fell never has a larger root, but distinct keys can
        # share a root; then the earlier center keeps the point.
        self.owner[idx[near < self.mindist[idx]]] = c
        self.mindist[idx] = near


def farthest_m(mindist: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m points with largest distance in ``mindist``, ascending.

    Ties at the cut boundary go to the lower index.  Expected O(n) via
    partition selection.
    """
    n = mindist.shape[0]
    m = _count(m, "m", 1, n)
    cut = np.partition(mindist, n - m)[n - m]
    picked = np.flatnonzero(mindist >= cut)
    extra = picked.size - m
    if extra:
        # Ties straddle the cut: drop the highest-index points at the cut.
        at_cut = np.flatnonzero(mindist[picked] == cut)
        picked = np.delete(picked, at_cut[at_cut.size - extra :])
    return picked


def _is_integer(v) -> bool:
    """A Python or numpy integer scalar, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _count(value, name: str, lo: int, hi: int | None = None) -> int:
    """The one count rule: an integer (``_is_integer``) in [lo, hi], or at
    least lo when hi is None, returned as a Python int; otherwise a
    ValueError that names the count.  An integer of 22 digits or more is
    shown as 2.000e+300, not digit by digit."""
    v = int(value) if _is_integer(value) else None
    if v is not None and lo <= v and (hi is None or v <= hi):
        return v
    shown = repr(value) if v is None or abs(v) < 10**21 else format(Decimal(v), ".3e")
    if hi is None:
        raise ValueError(f"{name} must be an integer >= {lo}, got {shown}")
    raise ValueError(f"{name} must lie in [{lo}, {hi}] and be an integer, got {shown}")


def _check_n(ps: PointSet, n: int, what: str = "params.n") -> None:
    """Reject parameters or a coreset made for another point set, whose
    sample sizes and budgets would be wrong here."""
    if n != ps.n:
        raise ValueError(f"{what}={n} does not match the point set's n={ps.n}")


def _point_indices(indices, n: int, distinct: bool = False) -> np.ndarray:
    """The one index rule: a non-empty 1-D integer vector (not bool, not
    float), every value in [0, n), no repeats when ``distinct``; as intp."""
    idx = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices))
    if idx.size < 1:
        raise ValueError("need at least one center or point")
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError(f"center and point indices must be a vector of integers, got {idx.ndim}-D {idx.dtype}")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"center and point indices must lie in [0, {n})")
    if distinct and np.unique(idx).size != idx.size:
        raise ValueError("center and point indices must be distinct")
    return idx.astype(np.intp, copy=False)


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
    nearest-center distance vector.  A CenterSet that a full-data tracker run
    over this same PointSet object built is scored from that run's distances;
    any other input takes one distance pass per center.  With eps=0 the two
    radii are equal."""
    idx = _point_indices(centers, ps.n)
    strict = relaxed_exclusions(z, 0.0)
    m = _count(relaxed_exclusions(z, eps), "exclusion budget ceil((1+eps)z)", 0, ps.n - 1)
    if isinstance(centers, CenterSet) and centers._source is ps:
        return _evaluate(centers._mindist, strict, m)
    tracker = NearestTracker(ps)
    for c in idx.tolist():
        tracker.add_center(c)
    return _evaluate(tracker.mindist, strict, m)


def _evaluate(mindist: np.ndarray, strict: int, m: int) -> ClusteringEval:
    """The one evaluator: radii after dropping ``strict`` and ``m`` points,
    and the ``strict`` farthest points as the excluded set."""
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
    m = _count(m, "m", 0, n - 1)
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


def _checked_weights(n: int, weights, z: float) -> np.ndarray:
    """n positive finite float64 weights whose total exceeds the finite,
    non-negative outlier weight budget z."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,) or not np.isfinite(w).all() or (w <= 0).any():
        raise ValueError("weights must be positive, finite and align with the points")
    if not 0 <= z < math.inf:
        raise ValueError("outlier weight budget must be finite and non-negative")
    if float(w.sum()) <= z:
        raise ValueError("outlier weight budget consumes the whole instance")
    return w


def weighted_cost(ps: PointSet, point_indices, weights, centers, z: float) -> float:
    """Weighted strict cost: the straddler's distance under peel_weight."""
    idx = _point_indices(point_indices, ps.n)
    w = _checked_weights(idx.size, weights, z)
    return float(peel_weight(ps.nearest_dists(idx, centers), w, z)[0])


def load_points_csv(path) -> PointSet:
    """One point per line, comma-separated floats, no header."""
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
    return PointSet.from_coords(np.array(rows, dtype=np.float64))

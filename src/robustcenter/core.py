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

# The Gram bounds (``_gap_filter``, the candidate filter of
# ``PointSet.dists_from(..., below=)``, and ``_gram_bound``, the
# farthest-point search of ``generate.meb_approx``) run on coordinates of
# _GRAM_MIN_DIM to _GRAM_MAX_DIM axes.  Below the minimum their
# matrix-vector product costs about as much as the slab passes it saves; the
# maximum keeps the proof's second-order terms small.  _GRAM_FLOOR moves every bound by more than all
# underflow losses together.
_GRAM_MIN_DIM = 4
_GRAM_MAX_DIM = 1 << 20
_GRAM_FLOOR = 1e-300
# ``NearestTracker.add_centers`` makes the filter products of at most
# _GRAM_ROWS picks with one matrix product.  It streams the coordinates once for all its rows, so a
# row's cost falls with the row count and flattens past 3-4 rows (100k x 8,
# one BLAS thread: 300, 188, 138 and 115 us per row at 1, 2, 4 and 8 rows),
# while the block holds one n-length row per pick.
_GRAM_ROWS = 4


class GuardError(RuntimeError):
    """A desk-scale enumeration or round guard tripped."""


def _max_coordinate(dim: int) -> float:
    """The magnitude rule: sqrt(DBL_MAX / 4 dim)(1 - 2**-20) bounds |coordinate|,
    which keeps every summed square, at most 4 dim max|x|^2, finite."""
    return math.sqrt(np.finfo(np.float64).max / (4 * dim)) * (1.0 - 2.0**-20)


def _check_coordinates(arr: np.ndarray) -> None:
    """The coordinate rule of ``PointSet.from_coords`` and ``generate.meb_approx``:
    a non-empty 2-D array whose every coordinate is finite and within the
    magnitude rule M(D) = ``_max_coordinate(D)``; otherwise a ValueError."""
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("coordinates must form a non-empty 2-D array")
    # Two reductions, as np.abs(arr).max() would copy the array; NaN fails the compare.
    top, limit = max(arr.max(), -arr.min()), _max_coordinate(arr.shape[1])
    if not top <= limit:
        raise ValueError(
            f"coordinates must be finite (no NaN/Inf) and at most {limit!r} in magnitude for "
            f"D={arr.shape[1]}, sqrt(DBL_MAX / 4D)(1 - 2**-20); got {float(top)!r}"
        )


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
    temporary holds about 2**17 doubles (1 MB) and stays in cache between passes.
    Its users: ``euclidean_dists``, the filter's gather ``_keys_at``,
    ``PointSet.nearest_dists`` and ``solvers.brute_force_opt``'s combo batches."""
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


def _gram_scale(dim: int, sign: float) -> float | None:
    """1 + sign (4D + 16)2**-53, exact: the factor on every norm that
    ``_gram_bound`` reads, for a lower (sign -1) or an upper (sign +1) bound;
    None outside [_GRAM_MIN_DIM, _GRAM_MAX_DIM] axes, where no bound runs."""
    return 1.0 + sign * (4 * dim + 16) * 2.0**-53 if _GRAM_MIN_DIM <= dim <= _GRAM_MAX_DIM else None


def _bound_norms(x: np.ndarray, sign: float) -> np.ndarray | None:
    """Each row's summed squares from the distance kernel times
    ``_gram_scale(D, sign)``: the s_x that ``_gram_bound`` reads, or None
    outside [_GRAM_MIN_DIM, _GRAM_MAX_DIM] axes, where no bound runs."""
    scale = _gram_scale(x.shape[1], sign)
    return None if scale is None else euclidean_dists(x, np.zeros(x.shape[1]), root=False) * scale


def _gram_bound(prod: np.ndarray, norms: np.ndarray, norm_c: float, sign: float) -> np.ndarray:
    """A bound b on the kernel's key K' = euclidean_dists(x, c, False) of
    every row x, from the dot products ``prod`` = x.(-2c), which the caller
    computes and this turns into b in place: b < K' with sign -1, b > K'
    with sign +1 (the farthest-point search of ``generate.meb_approx``).
    The tracker's filter (``_gap_filter``) rests on the sign -1 accounting
    below, with ``prod`` from a matrix-vector product or c's row of one
    matrix product made for several c at once (``NearestTracker.add_centers``).
    It is

        b = fl(fl(x.(-2c) + s_x) + fl(s_c + sign F)),   s_p = fl((1 + sign tol) n_p),

    with ``norms`` holding s_x and ``norm_c`` s_c, n_p the sum of p's
    rounded squares in any order, with or without FMA (the kernel's, for
    the rows), 1 + sign tol = ``_gram_scale(D, sign)``, tol = (4D + 16)u,
    u = 2**-53 and F = _GRAM_FLOOR.  Only the signs of tol and F differ.

    Why sign (b - K') > 0.  Let S = |x|^2 + |c|^2, K = |x - c|^2 <= 2S, and
    w = 2**-1075, the most a product loses to underflow (sums and
    differences underflow exactly); every other rounding is a factor 1 + d
    with |d| <= u.  Each step errs by at most the amount below, whichever
    way it rounds.  To first order in u:
    - K' adds D rounded squares of rounded differences, all non-negative,
      so |K' - K| <= (D+2)uK + Dw <= 2(D+2)uS + Dw.
    - The product, in any order and with or without FMA (-2c is exact),
      lies within DuS + Dw of -2x.c, as sum 2|x_j||c_j| <= S.  This covers
      a matrix-vector product and each entry of a matrix product (GEMM)
      alike, however the BLAS blocks, vectorizes or splits it across
      threads, on one assumption: each entry is a plain D-term dot product,
      the D rounded products of x_j and -2c_j summed in some order, not a
      fast (Strassen-like) scheme that mixes entries.
    - |n_p - |p|^2| <= Du|p|^2 + Dw, so s_x + s_c lies within
      (D+1)uS + 2(D+1)w of (1 + sign tol)S.
    - fl(s_c + sign F) lies within u(s_c + F) of s_c + sign F.
    - The two additions round by at most 2uS and u(3S + F).
    Together sign (b - K') >= (tol - (4D+11)u)S + F(1-2u) - (4D+2)w.  With
    D <= _GRAM_MAX_DIM the second-order terms stay below 5uS and (4D+2)w
    below F/2, so sign (b - K') > F/2, for subnormal keys too.  No
    intermediate overflows: each is at most 2S <= 4D m^2, m the largest
    |coordinate| of x and c, finite while m is within ``from_coords``'
    magnitude rule or past it by less than the rule's 2**-20 slack.
    """
    prod += norms
    prod += norm_c + sign * _GRAM_FLOOR
    return prod


def _gap_filter(prod: np.ndarray, norm_c: float, gap: np.ndarray) -> np.ndarray:
    """The candidate test of the tracker's filter in ``PointSet.dists_from``:
    turns the dot products ``prod`` = x.(-2c) into q = fl(p + t) in place,
    t = fl(s_c - F), and returns the mask q < ``gap``, where gap =
    fl(T - s_x) holds each row's threshold T (the tracker's key) less its
    norm.  s_x and s_c = ``norm_c`` are ``_bound_norms(x, -1)``'s; tol, u,
    w, F, S, the exact K = |x - c|^2 and the kernel's key K' =
    euclidean_dists(x, c, False) are ``_gram_bound``'s.  Every row whose key
    falls is a candidate: K' < T implies q < gap.  An infinite T gives an
    infinite gap, so every row is a candidate.

    Why.  Take ``_gram_bound``'s accounting for sign -1 without its two
    additions.  The exact sum A = p + s_x + t then has K' - A >=
    (tol - (4D+6)u)S + F(1-u) - (4D+2)w, and tol - (4D+6)u = 10u, so

        T - A >= (T - K') + 10uS + F(1-u) - (4D+2)w.

    gap - q differs from T - A by the two roundings, at most
    u(|p + t| + |T - s_x|) <= u(3S + T + F), as |p| <= S(1 + Du) + Dw,
    |t| <= (s_c + F)(1 + u) and 0 <= s_x <= S, to first order.
    - T <= 4S + F: the roundings are at most 7uS + 2uF, so gap - q >=
      (T - K') + 3uS + F(1-3u) - (4D+2)w.  With D <= _GRAM_MAX_DIM the
      second-order terms stay below 3uS and (4D+2)w below F/2, so
      gap - q > (T - K') + F/4, which is positive whenever K' <= T.
    - T > 4S + F: K' <= (1 + (D+2)u)K + Dw <= 2S(1 + (D+2)u) + Dw <
      (T - F)/1.99 + Dw < 0.51T, so T - K' > 0.49T, while the roundings stay
      below 2.75uT and the second-order terms are of order D u^2 T.  So
      gap - q > 0.4T + F/4.
    K' <= 2S(1 + (D+2)u) + Dw <= 4S + F puts T = K' in the first case, so
    q < fl(K' - s_x) for every row: a row that is not a candidate holds
    gap <= q < fl(K' - s_x) <= K'.  No intermediate overflows: |T - s_x| <=
    max(T, s_x) for finite T >= 0, and |p + t| <= 2S + F, both finite under
    ``from_coords``' magnitude rule.
    """
    prod += norm_c - _GRAM_FLOOR
    return prod < gap


def _keys_at(x: np.ndarray, c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The kernel's keys from c to the points ``rows`` of the coordinate-major
    x, bit-equal to euclidean_dists(x, c, False)[rows]: each chunk's
    coordinate columns are gathered as the kernel's slabs and run through
    its own subtract, square and axis sum.  Counts nothing."""
    # x.T is the store seen as D axes.  On the tracker's whole store one take
    # gathers a chunk's columns: indexing them instead slowed greedy-100k's
    # solve by about 6% (median 0.0515 -> 0.0546 s, 42 interleaved runs).  On
    # the strided slice of rows that meb_approx reads, take would first copy
    # the whole store (495 us against 1.2 us per one-point gather at 95k x 8),
    # so the columns are indexed there.
    xt, c = x.T, c[:, None]
    contiguous = xt.flags.c_contiguous
    out = np.empty(rows.size)
    step = _rows_per_chunk(x.shape[1])
    for s in range(0, rows.size, step):
        chunk = rows[s : s + step]
        sq = np.take(xt, chunk, axis=1) if contiguous else xt[:, chunk]
        sq -= c
        np.square(sq, out=sq)
        out[s : s + step] = _sum_axes(sq, 0, x.shape[1])
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
        _check_coordinates(arr)
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
        self,
        i: int,
        root: bool = True,
        below: np.ndarray | None = None,
        found: list | None = None,
        *,
        product: np.ndarray | None = None,
        gap: np.ndarray | None = None,
    ) -> np.ndarray:
        """Distances from point i to every point, counted as n evaluations.
        With ``root=False``, coordinates give the kernel's summed squares
        (keys) before its final root, whose np.sqrt is the default result
        bit for bit; a distance matrix gives its distances either way.

        ``below`` (n thresholds) needs ``found``, a list.  When at most n/8
        points' values fall below their threshold, ``found`` receives those
        points, np.flatnonzero(row < below) of the whole row; otherwise
        nothing is appended.  The points that fell always hold their exact
        value in the returned row.

        With ``root=False`` on coordinates of D in [_GRAM_MIN_DIM,
        _GRAM_MAX_DIM] axes, a candidate filter runs (``_gap_filter``, which
        holds the proof).  It reads ``gap`` = fl(below - s_x), s_x the
        point set's ``_gram_norms``; a call without it forms it from
        ``below``.  One matrix-vector product x.(-2c) plus the scalar
        fl(s_c - F) gives each point its q = fl(p + t), and the points with
        q < gap are the candidates: every point whose key falls is one.
        They get their exact keys (``_keys_at``); every other entry of the
        returned row holds q, with gap <= q < fl(key - s_x).  A round insert
        (``NearestTracker.add_centers``) hands over i's row of one matrix
        product made for all its picks as ``product``; the filter turns
        that row into q in place and returns it, with no product of its
        own.  Past n/8 candidates the whole row is computed instead.
        ``product`` or ``gap`` where no filter runs raises ValueError.
        """
        i = _count(i, "point index", 0, self.n - 1)
        if below is not None and found is None:
            raise ValueError("below needs a found list to receive the points that fell")
        norms = None if below is None or root else self._gram_norms
        if (product is not None or gap is not None) and norms is None:
            raise ValueError("product and gap are read only by the candidate filter (root=False, below, coordinates of 4+ axes)")
        self.stats.evals += self.n
        if self.mode == "matrix":
            d = self.dmat[i].copy()
        elif norms is None:
            d = euclidean_dists(self.coords, self.coords[i], root)
        else:
            x, c = self.coords, self.coords[i]
            d = x @ (-2.0 * c) if product is None else product
            cand = _gap_filter(d, norms[i], below - norms if gap is None else gap)
            if 8 * np.count_nonzero(cand) > self.n:
                del d, cand  # freed before the whole-row pass makes its own row
                d = euclidean_dists(x, c, False)
            else:
                cand = cand.nonzero()[0]
                keys = _keys_at(x, c, cand)
                d[cand] = keys
                # Only candidates can fall, and at most n/8 of them.
                found.append(cand[keys < below[cand]])
                return d
        if below is not None:
            fell = d < below
            if 8 * np.count_nonzero(fell) <= self.n:
                found.append(fell.nonzero()[0])
        return d

    @functools.cached_property
    def _gram_norms(self) -> np.ndarray | None:
        """``_bound_norms(coords, -1)``: the norms the filter of
        ``dists_from`` reads, or None where it does not run.  Built on first
        use and cached in the instance dict, outside the fields, so equality,
        repr and content_hash ignore it."""
        return _bound_norms(self.coords, -1.0) if self.mode == "euclidean" else None

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

    Where the filter runs, ``gap`` holds fl(keys - s_x), s_x the point set's
    ``_gram_norms``, which ``dists_from`` compares against; an insert keeps
    it current at the points that fell, or with one subtract after a
    whole-row update.  Elsewhere it is None.

    ``add_centers`` inserts a round's picks: one matrix product gives the
    filter's products for up to _GRAM_ROWS picks at once, and each pick's
    insert reads its own row.
    """

    def __init__(self, ps: PointSet):
        self.ps = ps
        self.mindist = np.full(ps.n, np.inf)
        self.keys = np.full(ps.n, np.inf) if ps.mode == "euclidean" else self.mindist
        self.owner = np.full(ps.n, -1, dtype=np.intp)
        self.held = False  # whether a center was inserted
        # The norms are built here, not inside an insert.
        self.gap = None if ps._gram_norms is None else np.full(ps.n, np.inf)

    def add_center(self, c: int, *, product: np.ndarray | None = None) -> None:
        fell, below = [], self.keys if self.held else None
        if product is None and (below is None or self.gap is None):  # no filter: dists_from's four parameters
            d = self.ps.dists_from(c, root=False, below=below, found=fell)
        else:
            d = self.ps.dists_from(c, root=False, below=below, found=fell, product=product, gap=self.gap)
        self.held = True
        has_root = self.keys is not self.mindist
        if not fell:
            if has_root:
                np.minimum(self.keys, d, out=self.keys)
                if self.gap is not None:
                    np.subtract(self.keys, self.ps._gram_norms, out=self.gap)
                np.sqrt(d, out=d)
            better = d < self.mindist
            self.owner[better] = c
            np.minimum(self.mindist, d, out=self.mindist)
            return
        idx = fell[0]
        near = d[idx]
        if has_root:
            self.keys[idx] = near
            if self.gap is not None:
                self.gap[idx] = near - self.ps._gram_norms[idx]
            np.sqrt(near, out=near)
        # A key that fell never has a larger root, but distinct keys can
        # share a root; then the earlier center keeps the point.
        self.owner[idx[near < self.mindist[idx]]] = c
        self.mindist[idx] = near

    def add_centers(self, centers: Iterable[int]) -> None:
        """add_center on each of ``centers`` in order, with the same keys,
        mindist and owner bit for bit.  Where the filter runs, and once the
        tracker holds a center (the first insert takes its whole row with no
        product), each group of 2 to _GRAM_ROWS picks takes the products
        x.(-2c) of its filters from one (m x D) by (D x n) matrix product,
        which streams the coordinates once for all of them.  Each pick's
        filter turns its own row into its q and compares it with the gap as
        the earlier picks left it: the products do not depend on the keys,
        so this is the single insert's filter."""
        centers = list(centers)
        if self.ps._gram_norms is None:  # no filter, so no product to share
            for c in centers:
                self.add_center(c)
            return
        if centers and not self.held:
            self.add_center(centers.pop(0))
        x = self.ps.coords
        for s in range(0, len(centers), _GRAM_ROWS):
            group = centers[s : s + _GRAM_ROWS]
            # A lone pick makes its own product, which dists_from frees before a whole-row pass.
            rows = [None] if len(group) == 1 else np.matmul(-2.0 * x[_point_indices(group, self.ps.n)], x.T)
            for c, row in zip(group, rows):
                self.add_center(c, product=row)


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
    if distinct and not _all_distinct(idx):
        raise ValueError("center and point indices must be distinct")
    return idx.astype(np.intp, copy=False)


def _all_distinct(idx: np.ndarray) -> bool:
    """Whether the integer vector ``idx`` holds no repeats: one sort and one
    compare of neighbours.  numpy 2's hash-based np.unique is 15-20x slower
    on intp (5.6 ms against 0.25 ms at 40,000 indices, numpy 2.4)."""
    s = np.sort(idx)
    return not (s[1:] == s[:-1]).any()


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
    tracker.add_centers(idx.tolist())
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
    z even so; then the last point in peel order is the straddler.  With
    every weight 1, floor(z) points go whole and the straddler's distance is
    the (floor(z)+1)-th largest, whatever the tie order, so one partition
    replaces the stable sort.
    """
    n = d.shape[-1]
    if (w == 1).all():
        whole = math.floor(z)
        return np.partition(d, n - 1 - whole, axis=-1)[..., n - 1 - whole], np.full(d.shape[:-1], whole)
    order = np.argsort(-d, axis=-1, kind="stable")
    cumw = np.cumsum(w[order], axis=-1)
    whole = np.minimum((cumw <= z).sum(axis=-1), n - 1)  # the rounded running sum can reach z
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

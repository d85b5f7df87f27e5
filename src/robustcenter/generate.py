"""Synthetic planted instances.

Planted instances place well separated lattice clusters in the first
``grid_dim`` axes of a ``dim``-dimensional ambient space, so intrinsic
dimension is controlled independently of the ambient one, then sprinkle
outliers uniformly in a scaled copy of the inliers' minimum enclosing ball.
Every construction step is deterministic given (spec, seed), so instances
hash identically across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PointSet,
    _bound_norms,
    _check_coordinates,
    _count,
    _gram_bound,
    _gram_scale,
    _keys_at,
    _max_coordinate,
    euclidean_dists,
)

__all__ = [
    "GeneratorSpec",
    "PlantedInstance",
    "meb_approx",
    "planted_instance",
]

SEPARATION_FACTOR = 20.0
MEB_ITERATIONS = 100


def meb_approx(pts: np.ndarray):
    """Approximate minimum enclosing ball of the rows of ``pts`` by
    MEB_ITERATIONS drifts toward the farthest point with step 1/(i+1)
    (Badoiu and Clarkson); starts at point 0.  The farthest point is the
    lowest index at the largest of the kernel's rooted distances, and the
    radius is that distance from the final center.  Each comes from
    ``_farthest``'s search, which equals a whole kernel pass's argmax bit
    for bit; its proof rests on ``core._gram_bound``.  Distances are not
    counted: generator work is not algorithm work.

    ``pts`` must pass ``PointSet.from_coords``' coordinate rule: non-empty,
    2-D, finite and within the magnitude rule M(D); otherwise a ValueError.
    """
    pts = np.asarray(pts, dtype=np.float64)
    _check_coordinates(pts)
    norms, scale = _bound_norms(pts, 1.0), _gram_scale(pts.shape[1], 1.0)
    center = pts[0].copy()
    for i in range(1, MEB_ITERATIONS + 1):
        far = pts[_farthest(pts, center, norms, scale)[0]]
        center += (far - center) / (i + 1)
    return center, _farthest(pts, center, norms, scale)[1]


def _farthest(pts: np.ndarray, center: np.ndarray, norms: np.ndarray | None, scale: float | None) -> tuple[int, float]:
    """The lowest index among the rows farthest from ``center`` by the
    kernel's rooted distance, and that distance.  Without ``norms`` it is
    one whole kernel pass.

    With ``norms`` (``_bound_norms(pts, 1)``, and ``scale`` its factor
    ``_gram_scale(D, 1)`` for the center's norm), one matrix-vector
    product gives every row its upper bound g on the kernel's key k, with
    g > k + F/2 and F = _GRAM_FLOOR (``_gram_bound`` with sign +1; a
    drifted center is a rounded convex combination of rows, within a few
    hundred ulps of their largest magnitude, so nothing overflows).  The key L of the row with the largest g is computed
    exactly, and only the rows with g >= T = fl(L(1 - 8u)), u = 2**-53, get
    their exact keys; the argmax of their roots, in ascending index order,
    is the answer.

    Why no other row can win.  The largest root R is at least
    r = fl(sqrt(L)), and distinct keys can share a root, so a row whose key
    is a few ulps below L may still be the answer.  A row p whose root
    reaches r > 0 has k_p > 0, and sqrt(k_p) >= 2**-537 is normal and
    correctly rounded, so sqrt(k_p) >= r/(1+u) >= sqrt(L)(1-u)/(1+u) and
    k_p >= L((1-u)/(1+u))^2 > L(1 - 4u).  Only the roots round in that
    step, so it holds for subnormal keys too.  T is at most L(1-7u) + w,
    w = 2**-1075, so g_p > k_p + F/2 > T.  If L = 0, then T = 0 <= k_p < g_p.
    Either way every row at the largest root is a candidate.
    """
    if norms is None:
        d = euclidean_dists(pts, center)
        j = int(d.argmax())
        return j, float(d[j])
    # einsum, not a BLAS product: as a process's first two-thread BLAS call,
    # x @ c stalled about 0.8 s in 3 of 8 fresh processes planting 95k x 8
    # inliers; einsum runs in one thread and reads the strided slice in place.
    g = _gram_bound(np.einsum("ij,j->i", pts, -2.0 * center), norms, (center @ center) * scale, 1.0)
    top = _keys_at(pts, center, g.argmax(keepdims=True))[0]
    cand = np.flatnonzero(g >= top * (1.0 - 2.0**-50))
    d = np.sqrt(_keys_at(pts, center, cand))
    j = int(d.argmax())
    return int(cand[j]), float(d[j])


def _uniform_ball(rng: np.random.Generator, count: int, center: np.ndarray, radius: float) -> np.ndarray:
    """Uniform draws from a ball: normalized Gaussian direction times
    radius * U^(1/dim)."""
    dim = center.shape[0]
    dirs = rng.standard_normal((count, dim))
    norms = np.linalg.norm(dirs, axis=1)
    degenerate = norms == 0
    if degenerate.any():
        dirs[degenerate] = 0.0
        dirs[degenerate, 0] = 1.0
        norms[degenerate] = 1.0
    radii = radius * rng.random(count) ** (1.0 / dim)
    return center + dirs / norms[:, None] * radii[:, None]


def _planting_limit(dim: int) -> float:
    # from_coords' limit less (dim + 16) ulps: a planted coordinate is a rounded
    # sum whose unit direction's norm errs by about dim ulps, each other step by one.
    return _max_coordinate(dim) * (1.0 - (dim + 16) * 2.0**-52)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a planted instance.  Counts are stored as Python ints, so
    numpy unsigned ones cannot wrap."""

    n_inliers: int
    clusters: int
    dim: int
    grid_dim: int
    cluster_radius: float
    outliers: int = 0
    outlier_scale: float = 3.0

    def __post_init__(self) -> None:
        n, dim = _count(self.n_inliers, "n_inliers", 1), _count(self.dim, "dim", 1)
        for name, lo, hi in (("clusters", 1, n), ("grid_dim", 1, dim), ("outliers", 0, n - 1)):
            object.__setattr__(self, name, _count(getattr(self, name), name, lo, hi))
        object.__setattr__(self, "n_inliers", n)
        object.__setattr__(self, "dim", dim)
        if not 0 < self.cluster_radius < np.inf:
            raise ValueError(f"cluster_radius must be positive and finite, got {self.cluster_radius!r}")
        limit = _planting_limit(dim)
        if not ((self.clusters - 1) * SEPARATION_FACTOR + 1) * float(self.cluster_radius) <= limit:
            raise ValueError(f"cluster_radius={self.cluster_radius!r} puts inliers past the limit {limit!r}")
        if not 0 <= self.outlier_scale < np.inf:
            raise ValueError(f"outlier_scale must be non-negative and finite, got {self.outlier_scale!r}")


@dataclass(frozen=True)
class PlantedInstance:
    ps: PointSet
    center_indices: np.ndarray
    outlier_indices: np.ndarray
    analytic_radius: float


def _lattice_offsets(count: int, grid_dim: int) -> np.ndarray:
    """First ``count`` points of the centered odd-side integer lattice,
    ordered by (norm, lexicographic); the origin always comes first.

    Work is bounded by the lattice points within the count-th smallest norm,
    not by the side**grid_dim cube: the smallest ``count`` partial sums of
    squares, kept axis by axis, give that norm T; then only the points with
    squared norm <= T are grown, prefix by prefix in ascending coordinates so
    they stay lexicographic, and a stable sort by norm orders the ties.
    """
    side = 1
    while side**grid_dim < count:
        side += 2
    half = (side - 1) // 2
    axis = np.arange(-half, half + 1, dtype=np.int64)
    sq = axis * axis
    sums = np.zeros(1, dtype=np.int64)
    for _ in range(grid_dim):
        sums = (sums[:, None] + sq).ravel()
        if sums.size > count:
            sums = np.partition(sums, count - 1)[:count]
    limit = int(sums.max())
    points = np.zeros((1, 0), dtype=np.int64)
    norms = np.zeros(1, dtype=np.int64)
    for _ in range(grid_dim):
        rows, cols = np.nonzero(sq <= (limit - norms)[:, None])
        points = np.column_stack([points[rows], axis[cols]])
        norms = norms[rows] + sq[cols]
    order = np.argsort(norms, kind="stable")[:count]
    return points[order].astype(np.float64)


def planted_instance(spec: GeneratorSpec, seed: int) -> PlantedInstance:
    """Build lattice clusters spaced ``SEPARATION_FACTOR * cluster_radius``
    apart along axis 0, then inject outliers uniformly in the scaled
    enclosing ball of the inliers.

    The analytic radius is the largest distance from an inlier to its own
    cluster center, as the distance kernel computes it (the offset along
    axis 0 rounds, so it can pass ``cluster_radius`` by a few ulps).
    Serving every cluster from its planted center and excluding the
    injected points achieves it, so the optimum is at most this value.

    A recipe whose outlier ball could reach past the magnitude rule of
    ``PointSet.from_coords`` raises ValueError naming ``outlier_scale``;
    ``GeneratorSpec`` already bounds the inliers.
    """
    rng = np.random.default_rng(seed)
    base = spec.n_inliers // spec.clusters
    counts = [base + (1 if j < spec.n_inliers % spec.clusters else 0) for j in range(spec.clusters)]
    lattices = {count: _lattice_offsets(count, spec.grid_dim) for count in set(counts)}
    separation = SEPARATION_FACTOR * spec.cluster_radius
    coords = np.zeros((spec.n_inliers + spec.outliers, spec.dim), order="F")
    center_indices = []
    analytic = 0.0
    offset = 0
    for j, count in enumerate(counts):
        lattice = lattices[count]
        reach = float(np.linalg.norm(lattice, axis=1).max())
        scale = spec.cluster_radius / reach if reach > 0 else 0.0
        block = coords[offset : offset + count]
        block[:, : spec.grid_dim] = lattice * scale
        block[:, 0] += j * separation
        center_indices.append(offset)
        # Uncounted, as meb_approx's passes are: generator work.
        analytic = max(analytic, float(euclidean_dists(block, block[0]).max()))
        offset += count
    if spec.outliers > 0:
        center, radius = meb_approx(coords[: spec.n_inliers])
        limit = _planting_limit(spec.dim)
        if not float(np.abs(center).max()) + float(spec.outlier_scale) * radius <= limit:
            raise ValueError(f"outlier_scale={spec.outlier_scale!r} puts outliers past the limit {limit!r}")
        coords[spec.n_inliers :] = _uniform_ball(rng, spec.outliers, center, spec.outlier_scale * radius)
    ps = PointSet.from_coords(coords)
    return PlantedInstance(
        ps=ps,
        center_indices=np.asarray(center_indices, dtype=np.intp),
        outlier_indices=np.arange(spec.n_inliers, ps.n, dtype=np.intp),
        analytic_radius=float(analytic),
    )

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

from .core import PointSet, _count, _max_coordinate, euclidean_dists

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
    MEB_ITERATIONS drifts toward the farthest point with step 1/(i+1);
    starts at point 0.  Distances use the PointSet kernel's summation order
    but are not counted: generator work is not algorithm work."""
    center = pts[0].astype(np.float64).copy()
    for i in range(1, MEB_ITERATIONS + 1):
        far = pts[np.argmax(euclidean_dists(pts, center))]
        center += (far - center) / (i + 1)
    radius = float(euclidean_dists(pts, center).max())
    return center, radius


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

    The analytic radius is the realized maximum distance from any inlier to
    its own cluster center, never above ``cluster_radius``; serving every
    cluster from its planted center and excluding the injected points
    achieves it, so the optimum is at most this value.

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
        analytic = max(analytic, scale * reach)
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

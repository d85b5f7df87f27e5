"""Synthetic planted instances.

Planted instances place well separated lattice clusters in the first
``grid_dim`` axes of a ``dim``-dimensional ambient space, so intrinsic
dimension is controlled independently of the ambient one, then sprinkle
outliers uniformly in a scaled copy of the inliers' minimum enclosing ball.
Every construction step is deterministic given (spec, seed), so instances
hash identically across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import PointSet, euclidean_dists

__all__ = [
    "GeneratorSpec",
    "PlantedInstance",
    "meb_approx",
    "planted_instance",
]

SEPARATION_FACTOR = 20.0


def meb_approx(ps: PointSet, iterations: int = 100):
    """Approximate minimum enclosing ball by repeated drift toward the
    farthest point with step 1/(i+1); starts at point 0.  Distances use the
    PointSet kernel's summation order but are not counted: generator work is
    not algorithm work."""
    if ps.mode != "euclidean":
        raise ValueError("minimum enclosing ball needs coordinates")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    pts = ps.coords
    center = pts[0].astype(np.float64).copy()
    for i in range(1, iterations + 1):
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


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a planted instance."""

    n_inliers: int
    clusters: int
    dim: int
    grid_dim: int
    cluster_radius: float
    outliers: int = 0
    outlier_scale: float = 3.0

    def __post_init__(self) -> None:
        if self.n_inliers < 1 or not 1 <= self.clusters <= self.n_inliers:
            raise ValueError("need 1 <= clusters <= n_inliers")
        if not 1 <= self.grid_dim <= self.dim:
            raise ValueError("need 1 <= grid_dim <= dim")
        if self.cluster_radius <= 0:
            raise ValueError("cluster radius must be positive")
        if not 0 <= self.outliers < self.n_inliers:
            raise ValueError("outlier count must stay below n_inliers")
        if self.outlier_scale < 0:
            raise ValueError("outlier scale must be >= 0")


@dataclass(frozen=True)
class PlantedInstance:
    ps: PointSet
    spec: GeneratorSpec
    seed: int
    center_indices: np.ndarray
    outlier_indices: np.ndarray
    analytic_radius: float


def _lattice_offsets(count: int, grid_dim: int) -> np.ndarray:
    """First ``count`` points of the centered odd-side integer lattice,
    ordered by (norm, lexicographic); the origin always comes first."""
    side = 1
    while side**grid_dim < count:
        side += 2
    half = (side - 1) // 2
    offsets = sorted(
        itertools.product(range(-half, half + 1), repeat=grid_dim),
        key=lambda v: (sum(c * c for c in v), v),
    )
    return np.asarray(offsets[:count], dtype=np.float64)


def planted_instance(spec: GeneratorSpec, seed: int) -> PlantedInstance:
    """Build lattice clusters spaced ``SEPARATION_FACTOR * cluster_radius``
    apart along axis 0, then inject outliers uniformly in the scaled
    enclosing ball of the inliers.

    The analytic radius is the realized maximum distance from any inlier to
    its own cluster center, never above ``cluster_radius``; serving every
    cluster from its planted center and excluding the injected points
    achieves it, so the optimum is at most this value.
    """
    rng = np.random.default_rng(seed)
    base = spec.n_inliers // spec.clusters
    counts = [base + (1 if j < spec.n_inliers % spec.clusters else 0) for j in range(spec.clusters)]
    separation = SEPARATION_FACTOR * spec.cluster_radius
    blocks = []
    center_indices = []
    analytic = 0.0
    offset = 0
    for j, count in enumerate(counts):
        lattice = _lattice_offsets(count, spec.grid_dim)
        reach = float(np.linalg.norm(lattice, axis=1).max())
        scale = spec.cluster_radius / reach if reach > 0 else 0.0
        block = np.zeros((count, spec.dim))
        block[:, : spec.grid_dim] = lattice * scale
        block[:, 0] += j * separation
        blocks.append(block)
        center_indices.append(offset)
        analytic = max(analytic, scale * reach)
        offset += count
    coords = np.vstack(blocks)
    if spec.outliers > 0:
        inliers = PointSet.from_coords(coords)
        center, radius = meb_approx(inliers)
        extra = _uniform_ball(rng, spec.outliers, center, spec.outlier_scale * radius)
        coords = np.vstack([coords, extra])
    ps = PointSet.from_coords(coords)
    return PlantedInstance(
        ps=ps,
        spec=spec,
        seed=seed,
        center_indices=np.asarray(center_indices, dtype=np.intp),
        outlier_indices=np.arange(spec.n_inliers, ps.n, dtype=np.intp),
        analytic_radius=float(analytic),
    )

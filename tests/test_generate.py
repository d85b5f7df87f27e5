import numpy as np
import pytest

from robustcenter.core import PointSet
from robustcenter.generate import (
    GeneratorSpec,
    meb_approx,
    planted_instance,
)


def test_meb_two_points():
    ps = PointSet.from_coords(np.array([[0.0], [2.0]]))
    center, radius = meb_approx(ps)
    assert radius == pytest.approx(1.0, rel=0.05)
    assert center[0] == pytest.approx(1.0, abs=0.05)


def test_meb_single_point():
    ps = PointSet.from_coords(np.array([[3.0, 4.0]]))
    center, radius = meb_approx(ps)
    assert radius == 0.0
    assert np.array_equal(center, [3.0, 4.0])


def test_meb_simplex():
    # circumradius of the standard basis simplex is sqrt(1 - 1/d)
    ps = PointSet.from_coords(np.eye(4))
    _, radius = meb_approx(ps)
    assert radius == pytest.approx(np.sqrt(0.75), rel=0.05)


def test_meb_is_bit_equal_to_row_wise_norms():
    rng = np.random.default_rng(3)
    base = rng.normal(scale=12.5, size=(250, 10)) + 0.3
    # Reversed-coordinate twins lie at near-equal distances, so a last-ulp
    # change in the norms moves the farthest pick and the radius at some of
    # these iteration counts.
    ps = PointSet.from_coords(np.vstack([np.zeros(10), base, base[:, ::-1]]))
    rows = np.ascontiguousarray(ps.coords)
    center = rows[0].copy()
    for iterations in range(1, 31):
        far = rows[np.argmax(np.linalg.norm(rows - center, axis=1))]
        center += (far - center) / (iterations + 1)
        radius = float(np.linalg.norm(rows - center, axis=1).max())
        got_center, got_radius = meb_approx(ps, iterations)
        assert np.array_equal(got_center, center)
        assert got_radius == radius
    assert ps.stats.evals == 0


def test_meb_needs_coordinates():
    dmat = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    with pytest.raises(ValueError):
        meb_approx(PointSet.from_distance_matrix(dmat))


def test_inject_outliers_containment():
    # Planted outliers fall in the inliers' enclosing ball scaled by outlier_scale.
    spec = GeneratorSpec(
        n_inliers=1000, clusters=4, dim=3, grid_dim=2, cluster_radius=1.5, outliers=10,
        outlier_scale=1.1,
    )
    inst = planted_instance(spec, 1)
    assert inst.ps.n == 1010
    assert inst.outlier_indices.tolist() == list(range(1000, 1010))
    center, radius = meb_approx(PointSet.from_coords(inst.ps.coords[:1000]))
    gaps = np.linalg.norm(inst.ps.coords[inst.outlier_indices] - center, axis=1)
    assert gaps.max() <= 1.1 * radius + 1e-9


def test_inject_outliers_zero_scale_collapses_to_center():
    spec = GeneratorSpec(
        n_inliers=2, clusters=2, dim=1, grid_dim=1, cluster_radius=1.0, outliers=1,
        outlier_scale=0.0,
    )
    inst = planted_instance(spec, 0)
    center, _ = meb_approx(PointSet.from_coords(inst.ps.coords[:2]))
    assert np.allclose(inst.ps.coords[inst.outlier_indices], center)


def test_planted_radius_is_exact():
    spec = GeneratorSpec(
        n_inliers=50, clusters=3, dim=4, grid_dim=2, cluster_radius=2.5, outliers=5
    )
    inst = planted_instance(spec, 0)
    assert inst.analytic_radius == pytest.approx(2.5, rel=1e-12)
    assert inst.ps.n == 55
    assert inst.outlier_indices.tolist() == list(range(50, 55))
    inliers = inst.ps.coords[:50]
    centers = inst.ps.coords[inst.center_indices]
    nearest = np.min(
        np.linalg.norm(inliers[:, None, :] - centers[None, :, :], axis=2), axis=1
    )
    assert nearest.max() <= inst.analytic_radius + 1e-9


def test_planted_singleton_clusters():
    spec = GeneratorSpec(n_inliers=2, clusters=2, dim=1, grid_dim=1, cluster_radius=5.0)
    inst = planted_instance(spec, 0)
    assert inst.analytic_radius == 0.0
    assert inst.ps.coords.tolist() == [[0.0], [100.0]]
    assert inst.center_indices.tolist() == [0, 1]


def test_planted_hash_depends_only_on_outlier_draws():
    def digest(spec, seed):
        return planted_instance(spec, seed).ps.content_hash()

    spec = GeneratorSpec(
        n_inliers=30, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0, outliers=3
    )
    assert digest(spec, 0) == digest(spec, 0)
    assert digest(spec, 0) != digest(spec, 1)
    clean = GeneratorSpec(n_inliers=30, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0)
    assert digest(clean, 0) == digest(clean, 7)


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n_inliers=2, clusters=3, dim=2, grid_dim=1, cluster_radius=1.0)
    with pytest.raises(ValueError):
        GeneratorSpec(n_inliers=5, clusters=1, dim=2, grid_dim=3, cluster_radius=1.0)
    with pytest.raises(ValueError):
        GeneratorSpec(n_inliers=5, clusters=1, dim=2, grid_dim=1, cluster_radius=0.0)
    with pytest.raises(ValueError):
        GeneratorSpec(n_inliers=5, clusters=1, dim=2, grid_dim=1, cluster_radius=1.0, outliers=5)
    with pytest.raises(ValueError):
        GeneratorSpec(
            n_inliers=5, clusters=1, dim=2, grid_dim=1, cluster_radius=1.0, outlier_scale=-1.0
        )

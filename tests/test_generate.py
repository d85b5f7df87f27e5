import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
import robustcenter.core as core
import robustcenter.generate as generate
from robustcenter.core import _GRAM_MIN_DIM, PointSet, _max_coordinate
from robustcenter.generate import (
    MEB_ITERATIONS,
    SEPARATION_FACTOR,
    GeneratorSpec,
    _lattice_offsets,
    _planting_limit,
    _uniform_ball,
    meb_approx,
    planted_instance,
)


def test_meb_two_points():
    ps = PointSet.from_coords(np.array([[0.0], [2.0]]))
    center, radius = meb_approx(ps.coords)
    assert radius == pytest.approx(1.0, rel=0.05)
    assert center[0] == pytest.approx(1.0, abs=0.05)


def test_meb_single_point():
    ps = PointSet.from_coords(np.array([[3.0, 4.0]]))
    center, radius = meb_approx(ps.coords)
    assert radius == 0.0
    assert np.array_equal(center, [3.0, 4.0])


def test_meb_simplex():
    # circumradius of the standard basis simplex is sqrt(1 - 1/d)
    ps = PointSet.from_coords(np.eye(4))
    _, radius = meb_approx(ps.coords)
    assert radius == pytest.approx(np.sqrt(0.75), rel=0.05)


def test_meb_is_bit_equal_to_row_wise_norms():
    rng = np.random.default_rng(3)
    base = rng.normal(scale=12.5, size=(250, 10)) + 0.3
    # Reversed-coordinate twins lie at near-equal distances, so a last-ulp
    # change in the norms moves some farthest pick, and with it the final
    # center and radius.
    ps = PointSet.from_coords(np.vstack([np.zeros(10), base, base[:, ::-1]]))
    rows = np.ascontiguousarray(ps.coords)
    center = rows[0].copy()
    for i in range(1, MEB_ITERATIONS + 1):
        far = rows[np.argmax(np.linalg.norm(rows - center, axis=1))]
        center += (far - center) / (i + 1)
    radius = float(np.linalg.norm(rows - center, axis=1).max())
    got_center, got_radius = meb_approx(ps.coords)
    assert np.array_equal(got_center, center)
    assert got_radius == radius


def _lattice(rng, n, d):
    # Integer points of a small cube: many rows share each distance.
    return rng.integers(-2, 3, (n, d)).astype(float)


def _twins(rng, n, d):
    # Reversed-coordinate twins lie at near-equal distances from most centers.
    base = rng.normal(scale=12.5, size=(n // 2, d)) + 0.3
    return np.vstack([np.zeros(d), base, base[:, ::-1]])


def _near_limit(rng, n, d):
    x = 0.99 * _max_coordinate(d) * rng.uniform(-1, 1, (n, d))
    x[-1, 0] = 0.99 * _max_coordinate(d)
    return x


def _subnormal_keys(rng, n, d):
    # Coordinates about 1e-160, whose squares and keys are subnormal.
    return 1e-160 * rng.uniform(-1, 1, (n, d))


def _planted(rng, n, d):
    # The benchmark's shape: lattice clusters 20 radii apart along axis 0.
    spec = GeneratorSpec(n_inliers=n, clusters=min(n, 3), dim=d, grid_dim=min(d, 2), cluster_radius=1.0)
    return planted_instance(spec, int(rng.integers(100))).ps.coords


_MEB_CLOUDS = {
    "normal": lambda rng, n, d: rng.standard_normal((n, d)),
    "lattice": _lattice,
    "twins": _twins,
    "at 0.99 M(D)": _near_limit,
    "subnormal keys": _subnormal_keys,
    "planted": _planted,
}


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 33])
@pytest.mark.parametrize("cloud", sorted(_MEB_CLOUDS))
@pytest.mark.parametrize("n", [1, 2, 40, 700])
def test_meb_is_bit_equal_to_the_whole_pass_reference(dim, cloud, n):
    rng = np.random.default_rng(1000 * dim + n)
    coords = _MEB_CLOUDS[cloud](rng, n, dim)
    # A slice of an F-order store, as planted_instance passes its inliers.
    store = np.zeros((coords.shape[0] + 5, dim), order="F")
    store[: coords.shape[0]] = coords
    pts = store[: coords.shape[0]]
    center, radius = meb_approx(pts)
    want_center, want_radius = oracles.meb_reference(np.ascontiguousarray(pts), MEB_ITERATIONS)
    assert center.tobytes() == want_center.tobytes()
    assert radius.hex() == want_radius.hex()


def _cube(dim):
    grids = np.meshgrid(*[np.arange(-1.0, 2.0)] * dim, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@pytest.mark.parametrize("dim", [4, 8, 16, 33])
def test_meb_on_tie_heavy_lattices_is_bit_equal_to_the_reference(dim):
    # A whole cube {-1, 0, 1}^D (up to 2,000 rows): from any center most
    # rows share their distance with many others.
    rng = np.random.default_rng(dim)
    pts = rng.integers(-1, 2, (2000, dim)).astype(float) if 3**dim > 2000 else _cube(dim)
    for start in (pts, pts[::-1], np.vstack([np.zeros(dim), pts])):
        center, radius = meb_approx(start)
        want_center, want_radius = oracles.meb_reference(start, MEB_ITERATIONS)
        assert center.tobytes() == want_center.tobytes()
        assert radius.hex() == want_radius.hex()


@pytest.mark.parametrize(("dim", "passes"), [(_GRAM_MIN_DIM - 1, MEB_ITERATIONS + 1), (_GRAM_MIN_DIM, 1), (8, 1)])
def test_meb_makes_whole_passes_only_below_the_gram_dimension(monkeypatch, dim, passes):
    # From D = _GRAM_MIN_DIM on, the one whole pass builds the norms and
    # every drift gathers only its candidates.
    pts = planted_instance(GeneratorSpec(n_inliers=3000, clusters=3, dim=dim, grid_dim=2, cluster_radius=1.0), 0).ps.coords
    calls, kernel = [], generate.euclidean_dists
    for module in (generate, core):
        monkeypatch.setattr(module, "euclidean_dists", lambda *a, **k: calls.append(a) or kernel(*a, **k))
    meb_approx(pts)
    assert len(calls) == passes


@pytest.mark.parametrize("dim", [2, 8])
def test_meb_applies_the_coordinate_rule_of_from_coords(dim):
    for bad in (np.empty((0, dim)), np.empty((3, 0)), np.zeros(dim), np.zeros((2, 2, dim))):
        with pytest.raises(ValueError, match="non-empty 2-D"):
            meb_approx(bad)
    for value in (np.nextafter(_max_coordinate(dim), np.inf), -2 * _max_coordinate(dim), np.inf, np.nan):
        pts = np.ones((5, dim))
        pts[3, dim - 1] = value
        with pytest.raises(ValueError, match="magnitude") as got:
            meb_approx(pts)
        with pytest.raises(ValueError) as want:
            PointSet.from_coords(pts)
        assert str(got.value) == str(want.value)
    pts = np.ones((5, dim))
    pts[3, 0] = _max_coordinate(dim)
    assert meb_approx(pts)[1] > 0


def test_inject_outliers_containment():
    # Planted outliers fall in the inliers' enclosing ball scaled by outlier_scale.
    spec = GeneratorSpec(
        n_inliers=1000, clusters=4, dim=3, grid_dim=2, cluster_radius=1.5, outliers=10,
        outlier_scale=1.1,
    )
    inst = planted_instance(spec, 1)
    assert inst.ps.n == 1010
    assert inst.outlier_indices.tolist() == list(range(1000, 1010))
    center, radius = meb_approx(inst.ps.coords[:1000])
    gaps = np.linalg.norm(inst.ps.coords[inst.outlier_indices] - center, axis=1)
    assert gaps.max() <= 1.1 * radius + 1e-9


def test_uniform_ball_points_a_zero_gaussian_row_along_the_first_axis():
    class ZeroFirstRow:
        def standard_normal(self, shape):
            dirs = np.ones(shape)
            dirs[0] = 0.0
            return dirs

        def random(self, count):
            return np.full(count, 0.5)

    pts = _uniform_ball(ZeroFirstRow(), 2, np.zeros(3), 2.0)
    assert np.isfinite(pts).all()
    assert pts[0].tolist() == [2.0 * 0.5 ** (1 / 3), 0.0, 0.0]


def test_inject_outliers_zero_scale_collapses_to_center():
    spec = GeneratorSpec(
        n_inliers=2, clusters=2, dim=1, grid_dim=1, cluster_radius=1.0, outliers=1,
        outlier_scale=0.0,
    )
    inst = planted_instance(spec, 0)
    center, _ = meb_approx(inst.ps.coords[:2])
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


@pytest.mark.parametrize(
    "n_inliers, clusters, dim, grid_dim, radius",
    [(6, 3, 1, 1, 0.3), (28, 2, 2, 2, 1.0), (16, 4, 2, 2, 0.7), (12, 3, 5, 5, 0.3), (38, 3, 8, 2, 0.3)],
)
def test_analytic_radius_is_the_largest_distance_to_an_own_center(n_inliers, clusters, dim, grid_dim, radius):
    # The separation offset along axis 0 rounds, so each of these realizes
    # a radius a few ulps above cluster_radius.
    spec = GeneratorSpec(
        n_inliers=n_inliers, clusters=clusters, dim=dim, grid_dim=grid_dim, cluster_radius=radius, outliers=2
    )
    inst = planted_instance(spec, 0)
    starts = [*inst.center_indices.tolist(), n_inliers]
    realized = max(inst.ps.cross_dists(range(a, b), [a]).max() for a, b in zip(starts, starts[1:]))
    assert inst.analytic_radius == realized > radius


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radius", [1e300, 1e152])
def test_a_spec_past_the_coordinate_limit_names_cluster_radius(radius):
    with pytest.raises(ValueError, match="cluster_radius") as exc:
        GeneratorSpec(n_inliers=8, clusters=3, dim=5, grid_dim=2, cluster_radius=radius, outliers=2)
    assert repr(_planting_limit(5)) in str(exc.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_outlier_ball_past_the_coordinate_limit_names_outlier_scale():
    spec = GeneratorSpec(
        n_inliers=8, clusters=3, dim=5, grid_dim=2, cluster_radius=1.0, outliers=2, outlier_scale=1e160
    )
    with pytest.raises(ValueError, match="outlier_scale") as exc:
        planted_instance(spec, 7)
    assert repr(_planting_limit(5)) in str(exc.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(("dim", "clusters", "n_inliers"), [(1, 28, 84), (5, 3, 9), (64, 3, 300)])
def test_recipes_at_the_planting_limit_plant_within_the_coordinate_limit(dim, clusters, n_inliers):
    # The largest cluster radius the spec admits plants, and the next one is
    # refused.  At D=1 with 28 clusters, the largest radius whose exact span
    # is within the coordinate limit itself plants a coordinate one ulp past it.
    limit, grid, span = _planting_limit(dim), min(2, dim), (clusters - 1) * SEPARATION_FACTOR + 1
    radius = limit / span
    while span * np.nextafter(radius, np.inf) <= limit:
        radius = np.nextafter(radius, np.inf)
    spec = GeneratorSpec(n_inliers=n_inliers, clusters=clusters, dim=dim, grid_dim=grid, cluster_radius=float(radius))
    assert np.abs(planted_instance(spec, 0).ps.coords).max() <= _max_coordinate(dim)
    with pytest.raises(ValueError, match="cluster_radius"):
        dataclasses.replace(spec, cluster_radius=float(np.nextafter(radius, np.inf)))
    # The widest outlier ball the check admits around unit clusters.
    unit = GeneratorSpec(n_inliers=n_inliers, clusters=clusters, dim=dim, grid_dim=grid, cluster_radius=1.0)
    center, meb_radius = meb_approx(planted_instance(unit, 0).ps.coords)
    top = float(np.abs(center).max())
    scale = (limit - top) / meb_radius
    while top + scale * meb_radius > limit:
        scale = float(np.nextafter(scale, 0))
    wide = dataclasses.replace(unit, outliers=n_inliers - 1, outlier_scale=scale)
    for seed in range(5):
        assert np.abs(planted_instance(wide, seed).ps.coords).max() <= _max_coordinate(dim)


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
    for name, value in (
        ("cluster_radius", float("nan")),
        ("cluster_radius", float("inf")),
        ("outlier_scale", float("nan")),
        ("outlier_scale", float("inf")),
    ):
        kwargs = dict(n_inliers=5, clusters=1, dim=2, grid_dim=1, cluster_radius=1.0)
        kwargs[name] = value
        with pytest.raises(ValueError, match=name):
            GeneratorSpec(**kwargs)
    # Stored as Python ints: uint8 arithmetic would size the buffer at
    # (250 + 10) % 256 = 4 rows.
    spec = GeneratorSpec(
        n_inliers=np.uint8(250), clusters=2, dim=2, grid_dim=2, cluster_radius=1.0, outliers=np.uint8(10)
    )
    assert type(spec.n_inliers) is int and type(spec.outliers) is int
    assert planted_instance(spec, 0).ps.n == 260


@pytest.mark.parametrize(
    "name, value", [("n_inliers", 10.5), ("clusters", 2.5), ("dim", 2.0), ("grid_dim", True), ("outliers", 1.5)]
)
def test_spec_rejects_non_integer_counts(name, value):
    # Unchecked, a float count fails later in the lattice arithmetic with a
    # bare TypeError, or plants silently.
    kwargs = dict(n_inliers=10, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0, outliers=1)
    kwargs[name] = value
    with pytest.raises(ValueError, match=name):
        GeneratorSpec(**kwargs)


@pytest.mark.parametrize("grid_dim", [1, 2, 3, 4, 5])
def test_lattice_matches_full_cube_enumeration(grid_dim):
    # Every count up to 5**grid_dim (capped at 3,125), plus the counts just
    # past each odd cube, where the side grows and the cube's corners join.
    # All counts that share a side share one sorted cube, so each reference
    # is a prefix of the one for the largest count at that side.
    counts = set(range(1, min(5**grid_dim, 3125) + 1))
    counts |= {side**grid_dim + extra for side in (1, 3, 5, 7) for extra in (1, 2)}
    cubes = {}
    for count in sorted(counts):
        side = 1
        while side**grid_dim < count:
            side += 2
        if side not in cubes:
            cubes[side] = np.asarray(oracles.lattice_reference(side**grid_dim, grid_dim), dtype=np.float64)
        got = _lattice_offsets(count, grid_dim)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, cubes[side][:count]), (count, grid_dim)


# content_hash values of planted instances, recorded with the full-cube
# enumeration: the perfbench workloads (5 clusters on a 2-D lattice, radius
# 1.0) at seeds 0 and 1, then small specs at seed 0.
WORKLOAD_GOLDENS = [
    (95_000, 5_000, 8, 0, "3f37dfe9b87e447e99354285dcd1db156a1310aabae539f288fa077abac437d6"),
    (95_000, 5_000, 8, 1, "211f26664b3c0aa9889182fe6193e28509e9844265ba64fbd98f7e605ae7b109"),
    (19_700, 300, 2, 0, "9ab62b39bcc16dacc7a0e76e7efc8dfd1a5e8b402830492c26bd11b266e7bd34"),
    (19_700, 300, 2, 1, "6b5af9de0d124fdbfeb1e26443427e59ce949e561f808aa171d4471a6923d990"),
    (39_900, 100, 2, 0, "109e5cb1f64485705bb3ffff4a65ec3d93ed342e1bc96de131e728712df44d12"),
    (39_900, 100, 2, 1, "88f04ab529faf8c47185eb0057ab5f3f78faa59314bd05cc514407e46649f9ca"),
]

SMALL_GOLDENS = [
    (
        GeneratorSpec(n_inliers=7, clusters=1, dim=1, grid_dim=1, cluster_radius=2.0, outliers=2),
        "9b55ad2632853500660e69392e9dd98e7cf8b672bff0aa3f1a2489de8cddbb0d",
    ),
    (  # cluster sizes 8, 8, 7
        GeneratorSpec(n_inliers=23, clusters=3, dim=3, grid_dim=2, cluster_radius=1.5, outliers=4),
        "62b70d974676872022888635aca7d7aabaf1d6ba98af15aed7f84adc93453dd4",
    ),
    (  # 10 points per cluster: one past the 3 x 3 square
        GeneratorSpec(n_inliers=50, clusters=5, dim=2, grid_dim=2, cluster_radius=1.0, outliers=5),
        "0020df492fc70f6cf8a6a61bec0138256048e6727dd7dde968e5c60bfe4c2a5e",
    ),
    (  # cluster sizes 14, 13, 13 and no outliers
        GeneratorSpec(n_inliers=40, clusters=3, dim=4, grid_dim=3, cluster_radius=0.75),
        "1fcb334b61e48bb425f0b11428ccfaa9bd0c4a814bd396269da0293a20fd559f",
    ),
    (
        GeneratorSpec(
            n_inliers=11, clusters=2, dim=5, grid_dim=3, cluster_radius=1.0, outliers=3,
            outlier_scale=0.0,
        ),
        "04654b29c6de018c0a45eff7b94516358c33a47b632d7838ddc4ffcaa4076844",
    ),
]


@pytest.mark.parametrize(
    "n_inliers, outliers, dim, seed, golden",
    WORKLOAD_GOLDENS,
    ids=[f"{name}-seed{seed}" for name in ("greedy-100k", "coreset-host-20k", "protocol-40k") for seed in (0, 1)],
)
def test_workload_instances_keep_their_hashes(n_inliers, outliers, dim, seed, golden):
    spec = GeneratorSpec(
        n_inliers=n_inliers, clusters=5, dim=dim, grid_dim=2, cluster_radius=1.0, outliers=outliers
    )
    assert planted_instance(spec, seed).ps.content_hash() == golden


@pytest.mark.parametrize(
    "spec, golden",
    SMALL_GOLDENS,
    ids=["grid1", "grid2-unequal", "grid2-past-square", "grid3-no-outliers", "grid3-zero-scale"],
)
def test_small_instances_keep_their_hashes(spec, golden):
    assert planted_instance(spec, 0).ps.content_hash() == golden


def test_planting_work_is_bounded_by_the_points():
    # Two points per cluster on a 12-axis lattice: enumerating the 3**12
    # cube took seconds and over 100 MiB; the points within the second
    # smallest norm are a handful.
    spec = GeneratorSpec(n_inliers=4, clusters=2, dim=12, grid_dim=12, cluster_radius=1.0, outliers=1)
    tracemalloc.start()
    try:
        inst = planted_instance(spec, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert inst.ps.content_hash() == "caffc3c2b90f6793946c4a6023682d3812545a8a915aa0772e6c24097c6901d7"

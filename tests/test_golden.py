"""Golden outputs: SHA-256 digests of the main algorithms' results on three
small seeded instances, so that a change meant to leave every output alone
(a faster kernel, a leaner tracker, a smaller host) is checked bit for bit.

Each digest covers one algorithm on one instance: integer outputs as int64
bytes and radii as float hex.  A change that moves an output on purpose
updates the digest here and says in CHANGES.md which output moved and why.
"""

import hashlib

import numpy as np
import pytest

from robustcenter.core import ParamSet, PointSet, clustering_cost
from robustcenter.coreset import build_coreset, build_coreset_auto
from robustcenter.distributed import run_protocol
from robustcenter.generate import GeneratorSpec, planted_instance
from robustcenter.greedy import (
    bicriteria,
    greedy_config,
    sublinear_bicriteria,
    two_approx_boosted,
)
from robustcenter.solvers import charikar_3approx

K, EPS, SITES, SEED = 3, 1.0, 3, 7


def _planted(n_inliers: int, outliers: int, dim: int, seed: int) -> PointSet:
    spec = GeneratorSpec(
        n_inliers=n_inliers, clusters=3, dim=dim, grid_dim=2, cluster_radius=1.0, outliers=outliers
    )
    return planted_instance(spec, seed).ps


def _matrix(n: int, seed: int) -> PointSet:
    # Plain numpy distances, exactly symmetric with a zero diagonal.
    x = np.random.default_rng(seed).normal(size=(n, 3))
    return PointSet.from_distance_matrix(np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)))


INSTANCES = {
    "planted-d2": (lambda: _planted(580, 20, 2, 11), 20),
    "planted-d8": (lambda: _planted(390, 10, 8, 12), 10),
    "matrix": (lambda: _matrix(250, 13), 8),
}


class _Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def ints(self, label: str, values) -> "_Digest":
        arr = np.ascontiguousarray(np.asarray(values, dtype=np.int64))
        self._h.update(f"{label}:{arr.size};".encode() + arr.tobytes())
        return self

    def text(self, label: str, value) -> "_Digest":
        self._h.update(f"{label}={value};".encode())
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _coreset(d: _Digest, label: str, cs) -> _Digest:
    d.ints(f"{label}.indices", cs.indices).ints(f"{label}.weights", cs.weights)
    return d.text(f"{label}.map_radius", float(cs.meta["map_radius"]).hex())


def _centers(d: _Digest, centers) -> _Digest:
    return d.ints("centers", centers.indices).ints("round_of", centers.round_of)


def golden_digest(instance: str, algo: str) -> str:
    make, z = INSTANCES[instance]
    ps = make()
    p = ParamSet(k=K, z=z, n=ps.n, eps=EPS, seed=SEED)
    rng = np.random.default_rng(SEED)
    d = _Digest()
    if algo == "bicriteria":
        centers = bicriteria(ps, greedy_config(p), rng)
        ev = clustering_cost(ps, centers, z, EPS)
        _centers(d, centers).text("strict", ev.radius.hex()).text("relaxed", ev.relaxed.hex())
    elif algo == "two_approx_boosted":
        centers = two_approx_boosted(ps, p, rng)
        _centers(d, centers).text("relaxed", clustering_cost(ps, centers, z, EPS).relaxed.hex())
    elif algo == "sublinear_bicriteria":
        _centers(d, sublinear_bicriteria(ps, p, rng))
    elif algo == "coreset_rho1":
        cs = build_coreset(ps, p, 1.0, rng)
        assert not cs.meta["fallback"]
        _coreset(d, "coreset", cs)
    elif algo == "coreset_auto":
        _coreset(d, "coreset", build_coreset_auto(ps, p, rng))
    elif algo == "protocol":
        result = run_protocol(ps, p, s=SITES)
        _coreset(d, "assembled", result.coreset).text("ledger", result.ledger.to_json())
    elif algo == "protocol_rho1":
        result = run_protocol(ps, p, s=SITES, doubling_dim=1.0)
        assert not any(cs.meta["fallback"] for prof in result.profiles for cs in prof.coresets.values())
        _coreset(d, "assembled", result.coreset).text("ledger", result.ledger.to_json())
    elif algo == "charikar":
        cs = build_coreset_auto(ps, p, rng)
        d.ints("picks", charikar_3approx(ps.subset(cs.indices), cs.weights, K, z).indices)
    else:
        raise ValueError(algo)
    return d.hexdigest()


# Computed before the tracker kept squared keys; every later change that is
# meant to be output-neutral must reproduce them.  The adaptive "protocol"
# digests date from the lazy round one, whose sites draw phase 2 at their
# uploaded budget only, after every budget's phase 1.  A coreset, protocol or
# host digest whose builder finds two far points within its map radius dates
# from the far cover, which merges them into one entry.
GOLDEN = {
    ("planted-d2", "bicriteria"): "0b62f7bc42c37e14f5e921ba4d77f90e92acfb4cde1c288a6a6a7ac60bea1550",
    ("planted-d2", "coreset_auto"): "2b8a8bd3f361affb902cfcb72dd75048dd27dcdc6ecc06f64def3853e4229777",
    ("planted-d2", "protocol"): "e7adae1769d1686bcb04210faa934d8f8f17e75e7ba9be9d1e6bc5838aaf4eb8",
    ("planted-d2", "charikar"): "a3049a785382196856828e50b3165963206bd943386b634abd610ec91c60f8b8",
    ("planted-d8", "bicriteria"): "c53a196146108e04d5e9f38fdbee1ea5c1a30424e8a326a3e87825899a47965f",
    ("planted-d8", "coreset_auto"): "88ae0b3d189539a487f23d4c3f9800e2b7f6cc986e30907326c3edb25451db93",
    ("planted-d8", "protocol"): "ffa2f3041beb37743fe5dd1b5646247fbddc607ca34986ef93869a32c57fd6b1",
    ("planted-d8", "charikar"): "0c3ddcaa678cf88cdf4debb1debc1ba2eff9e7ed2e6d2c4b166beeda69e6c8a2",
    ("matrix", "bicriteria"): "3270c5dc2daf1daffb3eac003ecfa0362ab5fa701a7d884dfaf6ce08d00caa7c",
    ("matrix", "coreset_auto"): "47241d20b28945823fa067693a484124f3c6ef30b8e1d3e44813ddf28e3048bc",
    ("matrix", "protocol"): "be6ba8044cebb96c9a3d1ff3bed4ff7ab043da3a2fcadb28cf710cae00b0d80a",
    ("matrix", "charikar"): "e627ea23e5751dac5fe28d5b07dbdc94fe064ea1ba0254671a5b68e50d0c0c9f",
    # Computed before two_approx and both coreset builders shared one
    # bi-criteria run; none of these runs takes the unit-weight fallback.
    ("planted-d2", "two_approx_boosted"): "4d31d192749a3b6b731fb4814584ed8ccb193f0bc012e3a9c3dcc7f2a5783d12",
    ("planted-d2", "coreset_rho1"): "6194e79b270b7eb89df5e3f503077faeadf6c72202384a825ae35868165f263f",
    ("planted-d2", "protocol_rho1"): "687a339d020e0667d79a0442db53d21d234007cb3736256a68183d86909c4b2d",
    ("planted-d2", "sublinear_bicriteria"): "edbc474f7ecf2d8ae80c81a587f97151827358b1f792bb4080efe8e65f213a0d",
    ("planted-d8", "two_approx_boosted"): "36112a3036a6be404c8e40c4c40fe0dc76c5c1fe1ec7d68773e64ae26868dc3e",
    ("planted-d8", "coreset_rho1"): "e62e15c859ae4955e44f024103d1809d0ffea3ea5dedb2e0ced853469e29281a",
    ("planted-d8", "protocol_rho1"): "0c0154c6ec6164c832729187747b4805b39f2f33238ee565277c1e7c4860f74c",
    ("planted-d8", "sublinear_bicriteria"): "ac7e80fd979b8e740f872a2a9988a95bafcb8ef65820cf311758f0aa29509d91",
    ("matrix", "two_approx_boosted"): "d4283dc6071e3dfaaf097d99257de9e0f924e89af7ec889482c7743f5fb6b371",
    ("matrix", "coreset_rho1"): "df2bfaf1868c96b1fb92298ba246d2fe6db7d0d716dea03728dccfb8c455c393",
    ("matrix", "protocol_rho1"): "815898427b287e3fcc4a4353720dcc7f2c45b3458c5c425aaa066374d8e3f5b8",
    ("matrix", "sublinear_bicriteria"): "abb64e55870c4ff9e335c91f78fadc918ae04365c27f9ce3001a174470f3dded",
}


@pytest.mark.parametrize("instance, algo", sorted(GOLDEN))
def test_outputs_match_their_golden_digest(instance, algo):
    assert golden_digest(instance, algo) == GOLDEN[instance, algo]

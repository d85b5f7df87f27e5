"""End-to-end acceptance checks, one per shipped guarantee.

Statistical checks compare the empirical success frequency over 50 seeds
against p0 - 3*sqrt(p0*(1-p0)/50), three standard errors below the
guaranteed success probability p0, so a healthy implementation fails any
single check with probability well under 1%.  Each test prints one
PASS/FAIL line; run with -s to see them on success.
"""

import hashlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from robustcenter.core import ParamSet, PointSet, ceil_count, clustering_cost, cost_radius, weighted_cost
from robustcenter.coreset import (
    build_coreset,
    build_coreset_auto,
    compose_with_host,
)
from robustcenter.distributed import run_protocol
from robustcenter.generate import GeneratorSpec, planted_instance
from robustcenter.greedy import (
    _round_constant,
    bicriteria,
    gonzalez,
    greedy_config,
    sublinear_bicriteria,
    two_approx_boosted,
)
from robustcenter.solvers import brute_force_opt, charikar_3approx

import oracles

TRIALS = 50


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def three_sigma_floor(p0, trials=TRIALS):
    return p0 - 3.0 * math.sqrt(p0 * (1.0 - p0) / trials)


@pytest.fixture(scope="module")
def exact20():
    spec = GeneratorSpec(
        n_inliers=18, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0, outliers=2
    )
    ps = planted_instance(spec, 0).ps
    return ps, brute_force_opt(ps, 2, 2).r_opt


def test_01_exact_solver_matches_reference_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = []
    for trial in range(TRIALS):
        n = int(rng.integers(4, 13))
        coords = rng.integers(-25, 25, size=(n, 2)).astype(np.float64)
        k = int(rng.integers(1, 4))
        z = int(rng.integers(0, 3))
        if k + z >= n:
            k, z = 1, 1
        want_r, _ = oracles.exhaustive_opt([tuple(row) for row in coords], k, z)
        got = brute_force_opt(PointSet.from_coords(coords), k, z).r_opt
        if got != want_r:
            mismatches.append((trial, got, want_r))
    took = time.perf_counter() - t0
    _report(
        1,
        not mismatches and took < 60.0,
        f"{TRIALS} random instances, {len(mismatches)} radius mismatches, {took:.1f}s",
    )


def test_02_randomized_greedy_hits_double_radius(exact20):
    floor = three_sigma_floor(0.5)
    ps20, r20 = exact20
    p = ParamSet(k=2, z=2, n=ps20.n, eps=1.0, eta=0.25)
    cfg = greedy_config(p)
    hits20 = sum(
        cost_radius(ps20, bicriteria(ps20, cfg, np.random.default_rng(s)), p.z, p.eps)
        <= 2 * r20 + 1e-9
        for s in range(TRIALS)
    )

    spec = GeneratorSpec(
        n_inliers=285, clusters=3, dim=2, grid_dim=2, cluster_radius=1.0, outliers=15
    )
    inst = planted_instance(spec, 0)
    p = ParamSet(k=3, z=15, n=inst.ps.n, eps=1.0, eta=0.25)
    cfg = greedy_config(p)
    hits300 = sum(
        cost_radius(inst.ps, bicriteria(inst.ps, cfg, np.random.default_rng(s)), p.z, p.eps)
        <= 2 * inst.analytic_radius + 1e-9
        for s in range(TRIALS)
    )
    ok = hits20 / TRIALS >= floor and hits300 / TRIALS >= floor
    _report(
        2,
        ok,
        f"within 2*r_opt on {hits20}/{TRIALS} seeds (n=20) and {hits300}/{TRIALS} seeds (n=300), floor {floor:.4f}",
    )


def test_03_boosted_selection_rate(exact20):
    ps, r_opt = exact20
    t0 = time.perf_counter()
    p = ParamSet(k=2, z=2, n=ps.n, eps=1.0)
    hits = sum(
        cost_radius(ps, two_approx_boosted(ps, p, np.random.default_rng(s)), p.z, p.eps)
        <= 2 * r_opt + 1e-9
        for s in range(TRIALS)
    )
    took = time.perf_counter() - t0
    _report(3, hits >= 40 and took < 60.0, f"{hits}/{TRIALS} seeds within 2*r_opt (need 40), {took:.1f}s")


def test_04_subsampled_greedy_rate_and_scale_free_work(exact20):
    ps, r_opt = exact20
    floor = three_sigma_floor(0.5)
    p = ParamSet(k=2, z=2, n=ps.n, eps=1.0, eta=0.25)
    hits = sum(
        cost_radius(ps, sublinear_bicriteria(ps, p, np.random.default_rng(s)), p.z, p.eps)
        <= 2 * r_opt + 1e-9
        for s in range(TRIALS)
    )

    counts = []
    for n_in, z in ((950, 50), (9500, 500)):
        spec = GeneratorSpec(
            n_inliers=n_in, clusters=3, dim=2, grid_dim=2, cluster_radius=1.0, outliers=z
        )
        big = planted_instance(spec, 0).ps
        bp = ParamSet(k=3, z=z, n=big.n, eps=1.0, eta=0.25)
        per_seed = []
        for s in range(3):
            # Each round makes one counter increment: its sample scoring.
            logged = replace(big, stats=oracles.EvalLog())
            sublinear_bicriteria(logged, bp, np.random.default_rng(s))
            per_seed.append(logged.stats.increments)
        counts.append(per_seed)
    same = counts[0] == counts[1]
    _report(
        4,
        hits / TRIALS >= floor and same,
        f"{hits}/{TRIALS} seeds within 2*r_opt (floor {floor:.4f}); "
        f"per-round evaluation counts equal between n=1000 and n=10000: {same}",
    )


def test_05_doubled_round_budget_reaches_planted_radius():
    spec = GeneratorSpec(
        n_inliers=297, clusters=2, dim=1, grid_dim=1, cluster_radius=1.0, outliers=3
    )
    ps = planted_instance(spec, 0).ps
    r_opt = brute_force_opt(ps, 2, 3).r_opt
    p = ParamSet(k=2, z=3, n=ps.n, eps=1.0, eta=0.25)
    # doubling dimension 1 doubles the usual round budget
    cfg = replace(greedy_config(p), rounds=ceil_count(_round_constant(p) * 2 * p.k / (1 - p.eta)))
    floor = three_sigma_floor(0.5)
    hits = sum(
        cost_radius(ps, bicriteria(ps, cfg, np.random.default_rng(s)), p.z, p.eps)
        <= r_opt + 1e-9
        for s in range(TRIALS)
    )
    _report(
        5,
        hits / TRIALS >= floor,
        f"ratio-1 cost on {hits}/{TRIALS} seeds with {cfg.rounds} rounds, floor {floor:.4f}",
    )


def _sandwich_hits(ps, p, far_cap, build, mu_slack=1.0):
    hits = 0
    sizes_ok = True
    for seed in range(TRIALS):
        cs = build(np.random.default_rng(seed))
        sizes_ok = (
            sizes_ok
            and cs.meta["far_count"] <= far_cap
            and len(cs) <= far_cap + cs.meta["selected"]
            and cs.total_weight() == ps.n
        )
        h_rng = np.random.default_rng(1_000_000 + seed)
        good = True
        for _ in range(100):
            H = h_rng.choice(ps.n, size=p.k, replace=False)
            base = clustering_cost(ps, H, p.z, 0.0).radius
            if abs(weighted_cost(ps, cs.indices, cs.weights, H, p.z) - base) > mu_slack * p.mu * base + 1e-9:
                good = False
                break
        hits += good
    return hits, sizes_ok


def test_06_weighted_summary_tracks_every_center_set():
    spec = GeneratorSpec(
        n_inliers=1980,
        clusters=3,
        dim=10,
        grid_dim=2,
        cluster_radius=1.0,
        outliers=20,
        outlier_scale=3.0,
    )
    ps = planted_instance(spec, 0).ps
    t0 = time.perf_counter()
    floor = three_sigma_floor(0.5)
    bits = []
    ok = True
    for mu in (0.25, 0.5):
        p = ParamSet(k=3, z=20, n=ps.n, eta=0.25, mu=mu)
        for name, far_cap, build in (
            ("fixed_dim", 2 * p.z, lambda rng, pp=p: build_coreset(ps, pp, 2.0, rng)),
            ("adaptive", 6 * p.z, lambda rng, pp=p: build_coreset_auto(ps, pp, rng)),
        ):
            hits, sizes_ok = _sandwich_hits(ps, p, far_cap, build)
            ok = ok and sizes_ok and hits / TRIALS >= floor
            bits.append(f"{name} mu={mu}: {hits}/{TRIALS}, sizes {'ok' if sizes_ok else 'BAD'}")
    took = time.perf_counter() - t0
    _report(6, ok and took < 600.0, f"{'; '.join(bits)} (floor {floor:.4f}), {took:.0f}s")


def test_07_composed_solver_stays_within_bound(exact20):
    ps, r_opt = exact20
    p = ParamSet(k=2, z=2, n=ps.n, mu=0.1)
    host = lambda sub, w, k, z: charikar_3approx(sub, w, k, z)
    bound = 3 * (1.1 / 0.9) * r_opt + 1e-9
    successes = 0
    composed_ok = True
    for seed in range(TRIALS):
        cs = build_coreset_auto(ps, p, np.random.default_rng(seed))
        h_rng = np.random.default_rng(77_000 + seed)
        good = True
        for _ in range(100):
            H = h_rng.choice(ps.n, size=p.k, replace=False)
            base = clustering_cost(ps, H, p.z, 0.0).radius
            if abs(weighted_cost(ps, cs.indices, cs.weights, H, p.z) - base) > p.mu * base + 1e-9:
                good = False
                break
        if good:
            successes += 1
            composed_ok = composed_ok and compose_with_host(cs, ps, p, host).radius <= bound
    fb = build_coreset(ps, p, 2.0, np.random.default_rng(0))
    fb_ok = fb.meta["fallback"] and compose_with_host(fb, ps, p, host).radius <= bound
    _report(
        7,
        successes >= 1 and composed_ok and fb_ok,
        f"{successes}/{TRIALS} accurate builds, all composed radii within 3*(1.1/0.9)*r_opt: "
        f"{composed_ok}, unit-weight fallback within bound: {fb_ok}",
    )


def test_08_subsample_then_solve_pipeline(exact20):
    ps, r_opt = exact20
    p = ParamSet(k=2, z=2, n=ps.n, eps=0.5)
    exclusions = ceil_count((1 + p.eps) ** 2 / (1 - p.eps) * p.z)
    hits = 0
    # A uniform sample of 12 points with the inflated budget z' = ceil((1+eps) gamma 12).
    z_prime = ceil_count((1 + p.eps) * p.gamma * 12)
    for seed in range(TRIALS):
        sample = np.sort(np.random.default_rng(seed).choice(ps.n, size=12, replace=False))
        picks = charikar_3approx(ps.subset(sample), None, p.k, z_prime)
        mapped = sample[picks.as_array()]
        if cost_radius(ps, mapped, exclusions, 0.0) <= 3 * r_opt + 1e-9:
            hits += 1
    _report(
        8,
        hits >= 30,
        f"{hits}/{TRIALS} subsampled runs within 3*r_opt at {exclusions} exclusions (need 30)",
    )


def test_09_protocol_budget_threshold_and_accuracy():
    spec = GeneratorSpec(
        n_inliers=588,
        clusters=3,
        dim=5,
        grid_dim=1,
        cluster_radius=1.0,
        outliers=12,
        outlier_scale=3.0,
    )
    ps = planted_instance(spec, 0).ps
    k, z, sites, eta, mu = 3, 12, 3, 0.01, 0.25
    p0 = 1 - 2 * sites * (2 + math.log2(z)) * eta
    assert p0 >= 0.5
    floor = three_sigma_floor(p0)
    t0 = time.perf_counter()
    budget_ok = minimax_ok = transfer_ok = True
    hits = 0
    for seed in range(TRIALS):
        p = ParamSet(k=k, z=z, n=ps.n, eta=eta, mu=mu, seed=seed)
        res = run_protocol(ps, p, s=sites, doubling_dim=1.0)
        budget_ok = budget_ok and sum(res.decision.budgets) <= 2 * z
        reported = max(oracles.radius_at(pr, b) for pr, b in zip(res.profiles, res.decision.budgets))
        minimax_ok = minimax_ok and reported == oracles.minimax_oracle(res.profiles, z)
        cs = res.coreset
        machinery = len(cs) - cs.meta["far_count"]
        transfer_ok = transfer_ok and len(cs) <= 4 * z + machinery
        h_rng = np.random.default_rng(55_000 + seed)
        good = True
        for _ in range(100):
            H = h_rng.choice(ps.n, size=k, replace=False)
            base = clustering_cost(ps, H, z, 0.0).radius
            if abs(weighted_cost(ps, cs.indices, cs.weights, H, z) - base) > 2 * mu * base + 1e-9:
                good = False
                break
        hits += good
    took = time.perf_counter() - t0
    ok = budget_ok and minimax_ok and transfer_ok and hits / TRIALS >= floor and took < 600.0
    _report(
        9,
        ok,
        f"budgets<=2z: {budget_ok}, reported radius equals exhaustive minimax: {minimax_ok}, "
        f"transfer cap: {transfer_ok}, 2mu accuracy {hits}/{TRIALS} (floor {floor:.4f}), {took:.0f}s",
    )


def test_10_every_algorithm_is_seed_deterministic():
    spec = GeneratorSpec(
        n_inliers=56, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0, outliers=4
    )
    k, z, seed = 2, 4, 7
    host = lambda sub, w, kk, zz: charikar_3approx(sub, w, kk, zz)

    def run_all():
        ps = planted_instance(spec, seed).ps
        p = ParamSet(k=k, z=z, n=ps.n, seed=seed)
        payload = {}
        cs = bicriteria(ps, greedy_config(p), np.random.default_rng(seed))
        payload["bicriteria"] = [cs.indices, cs.round_of, cost_radius(ps, cs, z, 1.0)]
        cs = two_approx_boosted(ps, p, np.random.default_rng(seed))
        payload["two_approx"] = [cs.indices, cost_radius(ps, cs, z, 1.0)]
        cs = sublinear_bicriteria(ps, p, np.random.default_rng(seed))
        payload["sublinear"] = [cs.indices, cost_radius(ps, cs, z, 1.0)]
        cs = gonzalez(ps, k, np.random.default_rng(seed))
        payload["gonzalez"] = [cs.indices, clustering_cost(ps, cs, z, 0.0).radius]
        cs = charikar_3approx(ps, None, k, z)
        payload["charikar"] = [cs.indices, clustering_cost(ps, cs, z, 0.0).radius]
        res = brute_force_opt(ps, k, z)
        payload["brute_force"] = [res.opt_centers.indices, res.r_opt, sorted(res.opt_excluded)]
        w = build_coreset(ps, p, 1.0, np.random.default_rng(seed))
        payload["coreset"] = [
            w.indices.tolist(),
            w.weights.tolist(),
            w.meta,
            compose_with_host(w, ps, p, host).radius,
        ]
        w = build_coreset_auto(ps, p, np.random.default_rng(seed))
        payload["coreset_auto"] = [
            w.indices.tolist(),
            w.weights.tolist(),
            w.meta,
            compose_with_host(w, ps, p, host).radius,
        ]
        pr = run_protocol(ps, p, s=2)
        payload["distributed"] = [
            pr.coreset.indices.tolist(),
            pr.coreset.weights.tolist(),
            list(pr.decision.budgets),
            pr.decision.value,
            pr.decision.site,
            pr.ledger.to_json(),
        ]
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    digests = {run_all() for _ in range(10)}
    _report(10, len(digests) == 1, f"9 algorithms, 10 repeats, {len(digests)} distinct digest(s)")

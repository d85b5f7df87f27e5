import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robustcenter
from robustcenter import bench, cli, distributed
from robustcenter.bench import ExperimentSpec, run_experiment
from robustcenter.cli import build_parser, main, parse_generator
from robustcenter.core import CenterSet, ParamSet
from robustcenter.generate import GeneratorSpec
from robustcenter.greedy import boost_repetitions

SMALL = GeneratorSpec(
    n_inliers=56, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0, outliers=4
)
CLEAN = GeneratorSpec(n_inliers=40, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0)
GEN = "n=40,clusters=2,dim=2,grid=2,radius=1.0,outliers=2"


def _written(out, kind):
    """The records of one type ("run" or "aggregate") a CLI run wrote to
    ``<out>.jsonl``."""
    lines = map(json.loads, out.with_suffix(".jsonl").read_text().splitlines())
    return [r for r in lines if r["type"] == kind]


def test_run_records_and_aggregates():
    spec = ExperimentSpec(algos=("gonzalez", "bicriteria"), k=2, z=4, seeds=(0,), source=SMALL)
    records, aggregates = run_experiment(spec)
    assert [r["algo"] for r in records] == ["gonzalez", "bicriteria"]
    for r in records:
        assert r["type"] == "run"
        assert r["dist_evals"] > 0
        assert r["cost_relaxed"] <= r["cost_strict"] + 1e-9
        assert "outlier_recall" in r
    a, b = aggregates
    assert a["count"] == b["count"] == 1
    assert a["instance_hash"] == b["instance_hash"] is not None


def test_every_algorithm_runs_through_the_harness(tmp_path, capsys):
    argv = ["--algo", ",".join(bench.ALGORITHMS), "--k", "2", "--z", "2", "--rho", "1", "--sites", "3"]
    argv += ["--seeds", "2", "--generate", GEN]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    records, aggregates = _written(tmp_path / "a", "run"), _written(tmp_path / "a", "aggregate")
    assert [a["algo"] for a in aggregates] == list(bench.ALGORITHMS)
    assert all(a["count"] == 2 for a in aggregates)
    by_run = {(r["algo"], r["seed"]): r for r in records}
    assert len(by_run) == len(records) == 2 * len(bench.ALGORITHMS)
    for r in records:
        assert r["n"] == 42
        if "cost_strict" in r:
            assert r["cost_relaxed"] <= r["cost_strict"]
        if "composed_radius" in r:
            assert r["coreset_size"] <= r["n"] and isinstance(r["fallback"], bool)
            if not r["fallback"]:
                assert r["weight_total"] == r["n"]
    for seed in (0, 1):
        # The exhaustive optimum is the strict cost of its own centers and
        # no k-center set does better.
        r_opt = by_run["brute_force", seed]["r_opt"]
        assert r_opt == by_run["brute_force", seed]["cost_strict"]
        for algo in ("two_approx", "gonzalez", "charikar"):
            assert by_run[algo, seed]["centers_count"] == 2 and r_opt <= by_run[algo, seed]["cost_strict"]
        dist = by_run["distributed", seed]
        assert len(dist["budgets"]) == 3 and dist["budget_total"] <= 2 * 2
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    again = _written(tmp_path / "b", "run")
    assert len(again) == len(records)
    for a, b in zip(records, again):
        del a["wall_time_s"], b["wall_time_s"]
        assert a == b


def test_full_tracker_records_equal_tracker_scoring(monkeypatch):
    spec = ExperimentSpec(
        algos=("bicriteria", "gonzalez", "two_approx"), k=2, z=4, seeds=tuple(range(5)), source=SMALL
    )
    carried, _ = run_experiment(spec)
    # Without carried distances every center set is scored by a fresh
    # tracker, and the boost spends one more pass per center on scoring.
    monkeypatch.setattr(
        CenterSet, "_from_tracker", classmethod(lambda cls, tracker, chosen: cls(tuple(chosen), tuple(chosen.values())))
    )
    rescored, _ = run_experiment(spec)
    assert len(carried) == len(rescored) == 15
    for a, b in zip(carried, rescored):
        a, b = dict(a), dict(b)
        del a["wall_time_s"], b["wall_time_s"]
        assert {"cost_strict", "cost_relaxed", "outlier_recall"} <= a.keys()
        assert a["cost_relaxed"] <= a["cost_strict"]
        if a["algo"] == "gonzalez":
            # One tracker pass per center, the greedy loop's only work.
            assert a["dist_evals"] == a["centers_count"] * a["n"]
        if a["algo"] == "two_approx":
            reps = boost_repetitions(ParamSet(k=2, z=4, n=a["n"], seed=a["seed"]))
            assert a.pop("dist_evals") == reps * 2 * a["n"]
            assert b.pop("dist_evals") == 2 * reps * 2 * a["n"]
        assert a == b


def test_charikar_record_counts_each_pair_once():
    # 600 points: strips of 128 rows (four) and 88 rows over the upper
    # triangle, 600*601/2 pairs plus each strip's mirrored leading half,
    # 4*128*127/2 + 88*87/2, against 600**2 for the full block.
    source = GeneratorSpec(n_inliers=590, clusters=3, dim=2, grid_dim=2, cluster_radius=1.0, outliers=10)
    spec = ExperimentSpec(algos=("charikar",), k=3, z=10, seeds=(0,), source=source)
    (rec,), _ = run_experiment(spec)
    assert rec["n"] == 600
    assert rec["dist_evals"] == 216_640


# The cost model's totals: every algorithm's dist_evals on 56 + 4 planted
# points, k=2, z=4, seed 3, three sites and rho=0.25 (small enough that the
# sites' fixed-dimension builds run).  The kernel counts each pair it
# evaluates whatever the path, so D=2 and D=8 read the same.  A change that
# moves an entry updates it here and gives the old value in CHANGES.md.
_DIST_EVALS = {
    "bicriteria": 1920,
    "two_approx": 600,
    "sublinear": 5640,
    "gonzalez": 120,
    "charikar": 3600,
    "brute_force": 3720,
    "coreset": 2820,
    "coreset_auto": 2280,
    "distributed": 3400,
}


@pytest.mark.parametrize("dim", [2, 8])
def test_dist_evals_of_every_algorithm_are_pinned(dim):
    source = GeneratorSpec(n_inliers=56, clusters=3, dim=dim, grid_dim=2, cluster_radius=1.0, outliers=4)
    spec = ExperimentSpec(algos=bench.ALGORITHMS, k=2, z=4, seeds=(3,), source=source, sites=3, doubling_dim=0.25)
    records, _ = run_experiment(spec)
    assert {r["algo"]: r["dist_evals"] for r in records} == _DIST_EVALS


def test_aggregate_hash_none_when_instances_differ():
    spec = ExperimentSpec(algos=("gonzalez",), k=2, z=4, seeds=(0, 1, 2), source=SMALL)
    _, aggregates = run_experiment(spec)
    assert aggregates[0]["count"] == 3
    assert aggregates[0]["instance_hash"] is None


def test_aggregate_hash_shared_without_outliers():
    spec = ExperimentSpec(algos=("gonzalez",), k=2, z=0, seeds=(0, 1, 2), source=CLEAN)
    _, aggregates = run_experiment(spec)
    assert aggregates[0]["instance_hash"] is not None


def test_distributed_record_accounting():
    gen = GeneratorSpec(
        n_inliers=116, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0, outliers=4
    )
    spec = ExperimentSpec(
        algos=("distributed",), k=2, z=4, seeds=(0,), source=gen, sites=2, mu=0.8, doubling_dim=1.0
    )
    records, _ = run_experiment(spec)
    (rec,) = records
    assert rec["budget_total"] <= 2 * 4
    assert rec["far_points"] <= 4 * 4
    assert rec["points_sent"] == rec["far_points"] + rec["machinery"]
    phases = rec["ledger"]["phases"]
    assert phases[2]["floats"] == rec["points_sent"] * 3
    assert rec["coreset_size"] == rec["points_sent"]
    assert rec["weight_total"] == 120
    # Site work runs on shard point sets with their own counters.
    assert rec["dist_evals"] > 0


def test_csv_input_parsed_once_with_a_counter_per_run(tmp_path, monkeypatch):
    path = tmp_path / "pts.csv"
    rng = np.random.default_rng(0)
    path.write_text("\n".join(f"{x:.6f},{y:.6f}" for x, y in rng.normal(size=(40, 2))))
    spec = ExperimentSpec(algos=("gonzalez", "bicriteria"), k=2, z=2, seeds=(0, 1), source=str(path))
    # One experiment per (algo, seed) run parses the file afresh.
    fresh = [
        run_experiment(ExperimentSpec(algos=(a,), k=2, z=2, seeds=(s,), source=str(path)))[0][0]
        for a in spec.algos
        for s in spec.seeds
    ]

    loads = []
    real_load = bench.load_points_csv
    monkeypatch.setattr(bench, "load_points_csv", lambda p: loads.append(p) or real_load(p))
    records, _ = run_experiment(spec)
    assert loads == [str(path)]
    assert [(r["dist_evals"], r["instance_hash"]) for r in records] == [
        (r["dist_evals"], r["instance_hash"]) for r in fresh
    ]


def test_each_seed_is_planted_once_for_all_its_runs(monkeypatch):
    # Three algorithms on two seeds plant twice; every record equals the
    # record of a run that planted its own instance, apart from wall time.
    spec = ExperimentSpec(algos=("gonzalez", "bicriteria", "coreset_auto"), k=2, z=4, seeds=(3, 4), source=SMALL)
    alone = [
        run_experiment(dataclasses.replace(spec, algos=(a,), seeds=(s,)))[0][0] for a in spec.algos for s in spec.seeds
    ]
    plants, real_plant = [], bench.planted_instance
    monkeypatch.setattr(bench, "planted_instance", lambda gen, seed: plants.append(seed) or real_plant(gen, seed))
    records, _ = run_experiment(spec)
    assert plants == [3, 4]
    for rec in records + alone:
        assert rec.pop("wall_time_s") >= 0
    assert records == alone


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentSpec(algos=("coreset",), k=2, z=1, seeds=(0,), source=SMALL)
    with pytest.raises(ValueError):
        ExperimentSpec(algos=("distributed",), k=2, z=1, seeds=(0,), source=SMALL)
    with pytest.raises(ValueError):
        ExperimentSpec(algos=("nope",), k=2, z=1, seeds=(0,), source=SMALL)
    with pytest.raises(ValueError):
        ExperimentSpec(algos=("gonzalez",), k=2, z=1, seeds=(), source=SMALL)
    with pytest.raises(ValueError, match=r"repeated algorithms: \['gonzalez'\]"):
        ExperimentSpec(algos=("gonzalez", "bicriteria", "gonzalez"), k=2, z=1, seeds=(0,), source=SMALL)
    with pytest.raises(ValueError):
        ExperimentSpec(algos=("gonzalez",), k=2, z=1, seeds=(0,), source=str(tmp_path / "nope.csv"))


def test_spec_rejects_sites_together_with_shards():
    with pytest.raises(ValueError, match="--sites and --shards"):
        ExperimentSpec(algos=("distributed",), k=2, z=1, seeds=(0,), source=SMALL, sites=5, shards_path="s.json")


def test_parse_generator_round_trip():
    got = parse_generator("n=300,clusters=3,dim=2,grid=2,radius=1.0,outliers=15")
    assert got == GeneratorSpec(
        n_inliers=300, clusters=3, dim=2, grid_dim=2, cluster_radius=1.0, outliers=15
    )
    with pytest.raises(ValueError):
        parse_generator("n=10,bogus=1")
    with pytest.raises(ValueError):
        parse_generator("n")


def test_cli_and_spec_take_their_parameter_defaults_from_paramset():
    args = build_parser().parse_args(["--algo", "gonzalez", "--k", "2", "--z", "1", "--generate", GEN])
    spec = {f.name: f.default for f in dataclasses.fields(ExperimentSpec)}
    params = {f.name: f.default for f in dataclasses.fields(ParamSet)}
    for name in ("eps", "mu", "eta"):
        assert getattr(args, name) == spec[name] == params[name]


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(
        [
            "--algo", "gonzalez,bicriteria",
            "--k", "2",
            "--z", "4",
            "--generate", "n=56,clusters=2,dim=2,grid=2,radius=1.0,outliers=4",
            "--seeds", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    shown = capsys.readouterr().out
    assert f"wrote {out}.jsonl and {out}.csv" in shown
    lines = [json.loads(l) for l in (tmp_path / "res.jsonl").read_text().splitlines()]
    assert [l["type"] for l in lines] == ["run"] * 4 + ["aggregate"] * 2
    with (tmp_path / "res.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["algo"] for r in rows] == ["gonzalez", "bicriteria"]
    assert all(float(r["cost_strict_mean"]) > 0 for r in rows)


def test_cli_names_the_files_it_wrote_for_a_jsonl_base(tmp_path, capsys):
    out = tmp_path / "named.jsonl"
    gen = "n=40,clusters=2,dim=2,grid=2,radius=1.0,outliers=2"
    assert main(["--algo", "bicriteria", "--k", "2", "--z", "2", "--generate", gen, "--out", str(out)]) == 0
    assert f"wrote {out} and {tmp_path / 'named.csv'} (1 records)" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["named.csv", "named.jsonl"]


def test_cli_reads_point_csv(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    rng = np.random.default_rng(0)
    src.write_text("\n".join(f"{x:.6f},{y:.6f}" for x, y in rng.normal(size=(30, 2))))
    code = main(
        ["--algo", "charikar", "--k", "2", "--z", "1", "--input", str(src), "--out", str(tmp_path / "r")]
    )
    assert code == 0
    # Two tight clusters 50 apart plus two far points, in two explicit shards.
    rows = [f"{c + 0.1 * i},{0.05 * i}" for c in (0.0, 50.0) for i in range(10)]
    pts = tmp_path / "clusters.csv"
    pts.write_text("\n".join([*rows, "500.0,500.0", "-400.0,90.0"]) + "\n")
    shards = tmp_path / "shards.json"
    shards.write_text(json.dumps({"shards": [list(range(0, 22, 2)), list(range(1, 22, 2))]}))
    out = tmp_path / "file"
    argv = ["--algo", "distributed,charikar", "--k", "2", "--z", "2", "--input", str(pts), "--shards", str(shards)]
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    runs = {r["algo"]: r for r in _written(out, "run")}
    assert sorted(runs) == ["charikar", "distributed"]
    assert all(r["n"] == 22 and r["dim"] == 2 for r in runs.values())
    dist = runs["distributed"]
    assert dist["weight_total"] == 22 and len(dist["budgets"]) == 2 and dist["budget_total"] <= 4
    # Both radii stay far below the 50-unit gap between the two clusters.
    assert runs["charikar"]["cost_strict"] < 5.0 and dist["composed_radius"] < 5.0


def test_cli_rejects_bad_specs(tmp_path, capsys):
    base = ["--k", "2", "--z", "1", "--out", str(tmp_path / "r")]
    assert main(["--algo", "gonzalez", "--input", str(tmp_path / "missing.csv"), *base]) == 2
    assert main(["--algo", "nope", "--generate", "n=10,clusters=1,dim=1,grid=1,radius=1.0", *base]) == 2
    assert main(["--algo", "gonzalez", "--generate", "n=10,what=1", *base]) == 2
    gen = "n=40,clusters=2,dim=2,grid=2,radius=1.0,outliers=2"
    for eps in ("nan", "inf"):
        assert main(["--algo", "coreset_auto", "--eps", eps, "--generate", gen, *base]) == 2
    assert main(["--algo", "gonzalez,gonzalez", "--generate", gen, *base]) == 2
    assert main(["--algo", "gonzalez", "--generate", gen, *base, "--out", ""]) == 2
    assert not (tmp_path / "r.jsonl").exists()
    err = capsys.readouterr().err
    assert "error:" in err and "repeated algorithms: ['gonzalez']" in err and "output base path is empty" in err
    assert main(["--algo", "bicriteria", "--generate", gen.replace("radius=1.0", "radius=nan"), *base]) == 2
    assert "cluster_radius" in capsys.readouterr().err
    assert main(["--algo", "bicriteria", "--generate", gen + ",outliers=0", *base]) == 2
    assert "repeated generator key 'outliers'" in capsys.readouterr().err


def test_experiment_is_checked_before_any_instance_is_planted(tmp_path, capsys, monkeypatch):
    plants, hashes = [], []
    planted, content_hash = bench.planted_instance, bench.PointSet.content_hash
    monkeypatch.setattr(bench, "planted_instance", lambda source, seed: plants.append(seed) or planted(source, seed))
    monkeypatch.setattr(bench.PointSet, "content_hash", lambda ps: hashes.append(1) or content_hash(ps))
    base = ["--algo", "bicriteria,distributed", "--sites", "2", "--out", str(tmp_path / "r")]
    gen = "n=40,clusters=2,dim=2,grid=2,radius=1.0,outliers=2"
    assert main([*base, "--k", "2", "--z", "2", "--eta", "0.7", "--generate", gen]) == 2
    # k + z = 4 reaches n = 3 + 1 points.
    assert main([*base, "--k", "2", "--z", "2", "--generate", "n=3,clusters=1,dim=2,grid=2,radius=1.0,outliers=1"]) == 2
    bad_shards = tmp_path / "bad.json"
    bad_shards.write_text("{not json")
    shard_argv = ["--algo", "distributed", "--k", "2", "--z", "2", "--shards", str(bad_shards), "--generate", gen]
    assert main([*shard_argv, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "eta must lie in (0, 1/2)" in err and "k + z must be < n" in err
    assert plants == [] and hashes == []
    # A valid recipe plants and hashes each seed once for all its algorithms.
    assert main([*base, "--k", "2", "--z", "2", "--seed", "4", "--seeds", "3", "--generate", gen]) == 0
    assert plants == [4, 5, 6] and len(hashes) == 3
    assert [r["seed"] for r in _written(tmp_path / "r", "run")] == [4, 5, 6] * 2


def test_cli_count_message_stays_short(tmp_path, capsys):
    # ceil((1+eps)z) at eps=1e300 is an integer of 301 digits.
    argv = ["--algo", "bicriteria", "--k", "2", "--z", "2", "--eps", "1e300", "--out", str(tmp_path / "r")]
    assert main([*argv, "--generate", "n=40,clusters=2,dim=2,grid=2,radius=1.0,outliers=2"]) == 2
    err = capsys.readouterr().err
    assert "exclusion budget ceil((1+eps)z) must lie in [0, 41]" in err and "got 2.000e+300" in err
    assert len(err) < 120


def test_cli_rejects_non_integer_shard_entries(tmp_path, capsys):
    shards = tmp_path / "shards.json"
    shards.write_text(json.dumps({"shards": [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9.0]]}))
    code = main(
        [
            "--algo", "distributed",
            "--k", "2",
            "--z", "1",
            "--generate", "n=10,clusters=2,dim=1,grid=1,radius=1.0",
            "--shards", str(shards),
            "--out", str(tmp_path / "r"),
        ]
    )
    assert code == 2
    assert "shard 1" in capsys.readouterr().err


def test_cli_rejects_sites_together_with_shards(tmp_path, capsys):
    shards = tmp_path / "shards.json"
    shards.write_text(json.dumps({"shards": [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]}))
    argv = ["--algo", "distributed", "--k", "2", "--z", "1", "--generate", "n=10,clusters=2,dim=1,grid=1,radius=1.0"]
    out = tmp_path / "r"
    assert main([*argv, "--sites", "5", "--shards", str(shards), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--sites" in err and "--shards" in err
    assert not out.with_suffix(".jsonl").exists()
    # Either flag alone still runs.
    assert main([*argv, "--shards", str(shards), "--out", str(out)]) == 0
    capsys.readouterr()


def test_cli_guard_exit_code(tmp_path, capsys):
    code = main(
        [
            "--algo", "brute_force",
            "--k", "3",
            "--z", "3",
            "--generate", "n=297,clusters=3,dim=2,grid=2,radius=1.0,outliers=3",
            "--out", str(tmp_path / "r"),
        ]
    )
    assert code == 3
    assert "guard" in capsys.readouterr().err


def test_cli_rho_overflow_falls_back_and_non_finite_rho_exits_2(tmp_path, capsys):
    base = [
        "--k", "2",
        "--z", "2",
        "--generate", "n=40,clusters=2,dim=2,grid=2,radius=1.0,outliers=2",
        "--out", str(tmp_path / "r"),
    ]
    assert main(["--algo", "coreset", "--rho", "600", *base]) == 0
    for sites in ("2", "3"):
        assert main(["--algo", "distributed", "--sites", sites, "--rho", "600", *base]) == 0
        (rec,) = _written(tmp_path / "r", "run")
        # Every site sends its whole shard with unit weights.
        assert rec["algo"] == "distributed" and rec["fallback"] is True
        assert rec["coreset_size"] == rec["weight_total"] == rec["n"] == 42
    assert main(["--algo", "coreset", "--rho", "inf", *base]) == 2
    assert "doubling dimension" in capsys.readouterr().err
    # At rho=1 the round budget fits, so both builders weigh real coresets.
    gen = "n=396,clusters=2,dim=2,grid=2,radius=1.0,outliers=4"
    argv = ["--algo", "coreset,distributed", "--k", "2", "--z", "4", "--rho", "1", "--sites", "3", "--seeds", "2"]
    assert main([*argv, "--generate", gen, "--out", str(tmp_path / "one")]) == 0
    capsys.readouterr()
    runs = _written(tmp_path / "one", "run")
    assert [(r["algo"], r["seed"]) for r in runs] == [("coreset", 0), ("coreset", 1), ("distributed", 0), ("distributed", 1)]
    assert all(r["fallback"] is False and r["weight_total"] == r["n"] == 400 for r in runs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_coordinates_past_the_magnitude_limit_exit_2(tmp_path, capsys):
    # Squared differences of such coordinates overflow: without the limit,
    # two_approx and brute_force exited 1 and charikar and coreset_auto
    # reported infinite radii.
    recipe = ["--k", "3", "--z", "1", "--seed", "7", "--generate", "n=8,clusters=3,dim=5,grid=2,radius=1e+300,outliers=0"]
    for algo in ("two_approx", "brute_force", "charikar", "coreset_auto"):
        assert main(["--algo", algo, *recipe, "--out", str(tmp_path / algo)]) == 2
        assert "cluster_radius" in capsys.readouterr().err
    points = tmp_path / "points.csv"
    points.write_text("1e200,-1e200\n-1e200,1e200\n0,0\n1,1\n")
    assert main(["--algo", "brute_force", "--k", "1", "--z", "1", "--input", str(points), "--out", str(tmp_path / "csv")]) == 2
    assert "magnitude" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.jsonl"))


def test_cli_boosted_two_approx_guard_exit_code(tmp_path, capsys):
    gen = "n=400,clusters=2,dim=2,grid=2,radius=1.0,outliers=2"
    for k, eps in (("10", "0.1"), ("200", "0.001")):
        args = ["--algo", "two_approx", "--k", k, "--z", "2", "--eps", eps, "--generate", gen]
        assert main([*args, "--out", str(tmp_path / "r")]) == 3
    assert "guard" in capsys.readouterr().err


def test_cli_lets_an_internal_key_error_propagate(tmp_path, monkeypatch):
    # No input path raises KeyError, so one is a fault, not a bad spec.
    def broken(spec):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "run_experiment", broken)
    gen = "n=40,clusters=2,dim=2,grid=2,radius=1.0,outliers=2"
    with pytest.raises(KeyError, match="internal"):
        main(["--algo", "bicriteria", "--k", "2", "--z", "2", "--generate", gen, "--out", str(tmp_path / "r")])


def test_cli_single_site_with_outliers_exits_2_before_any_build(tmp_path, capsys, monkeypatch):
    builds = []
    monkeypatch.setattr(distributed, "site_round_one", lambda *a, **k: builds.append(a))
    gen = "n=60,clusters=2,dim=2,grid=2,radius=1.0,outliers=3"
    argv = ["--algo", "distributed", "--sites", "1", "--z", "3", "--k", "2", "--generate", gen]
    assert main([*argv, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "site count 1" in err and "z=3" in err
    assert not builds and not (tmp_path / "r.jsonl").exists()


def test_cli_plants_a_twenty_axis_lattice(tmp_path, capsys):
    gen = "n=40,clusters=2,dim=20,grid=20,radius=1.0,outliers=2"
    assert main(["--algo", "bicriteria", "--k", "2", "--z", "2", "--generate", gen, "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    (rec,) = _written(tmp_path / "r", "run")
    assert rec["n"] == 42 and rec["dim"] == 20


def test_cli_host_runs_at_4000_points_and_trips_its_guard_at_4001(tmp_path, capsys):
    argv = ["--algo", "charikar", "--k", "3", "--out", str(tmp_path / "host")]
    assert main([*argv, "--z", "10", "--generate", "n=3990,clusters=3,dim=2,grid=2,radius=1.0,outliers=10"]) == 0
    capsys.readouterr()
    (rec,) = _written(tmp_path / "host", "run")
    # The banded probes keep the unbanded search's counts and picks: n(n+1)/2
    # pairs plus the mirrored half of each 128-row strip's leading square,
    # and the same strict radius.
    assert rec["n"] == 4000 and rec["dist_evals"] == 8_254_464
    assert rec["cost_strict"].hex() == "0x1.0000000000005p+0"
    assert main([*argv, "--z", "11", "--generate", "n=3990,clusters=3,dim=2,grid=2,radius=1.0,outliers=11"]) == 3
    # Unit weights: 4001**2 pairs at 8 + 4 bytes each.
    err = capsys.readouterr().err
    assert "guard tripped" in err and "192096012 bytes" in err


def test_cli_filter_at_d8_leaves_one_tracker_pass_per_gonzalez_center(tmp_path, capsys):
    gen = "n=4000,clusters=4,dim=8,grid=2,radius=1.0,outliers=20"
    argv = ["--algo", "bicriteria,gonzalez", "--k", "4", "--z", "20", "--seeds", "2", "--generate", gen]
    assert main([*argv, "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    runs = _written(tmp_path / "r", "run")
    assert [r["algo"] for r in runs] == ["bicriteria"] * 2 + ["gonzalez"] * 2
    for r in runs:
        assert r["n"] == 4020 and r["dim"] == 8 and r["cost_relaxed"] <= r["cost_strict"]
        if r["algo"] == "gonzalez":
            # Each insert counts n evaluations, filtered or not.
            assert r["dist_evals"] == r["centers_count"] * r["n"]


def test_cli_sample_only_greedy_scores_its_sample_in_bounded_row_blocks(tmp_path):
    # One draw x centers block of 20,000 x ~1,300 doubles peaked at 226 MiB;
    # row blocks of at most 2**17 distances keep the run near 40 MiB.  Linux
    # hands a process's peak RSS on through fork and exec, so the run is
    # the child of a small Python that reads the peak of its children
    # (kilobytes), not of this test process.
    argv = ["--algo", "sublinear", "--k", "5", "--z", "10", "--eps", "0.1"]
    argv += ["--generate", "n=20000,clusters=5,dim=2,grid=2,radius=1.0,outliers=10", "--out", str(tmp_path / "r")]
    meter = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'robustcenter.cli', *sys.argv[1:]], check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = str(Path(robustcenter.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", meter, *argv], env=env, capture_output=True, text=True, check=True)
    assert int(done.stdout) / 1024 < 120


def test_cli_deterministic_outputs(tmp_path, capsys):
    args = [
        "--algo", "bicriteria,distributed",
        "--k", "2",
        "--z", "4",
        "--sites", "2",
        "--generate", "n=116,clusters=2,dim=2,grid=2,radius=1.0,outliers=4",
        "--seeds", "2",
    ]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([*args, "--out", str(out)]) == 0
        lines = [json.loads(l) for l in (tmp_path / f"{name}.jsonl").read_text().splitlines()]
        outs.append(
            [{k: v for k, v in l.items() if "wall_time" not in k} for l in lines]
        )
    capsys.readouterr()
    assert outs[0] == outs[1]

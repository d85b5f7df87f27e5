import csv
import json

import numpy as np
import pytest

from robustcenter import bench
from robustcenter.bench import ExperimentSpec, run_experiment
from robustcenter.cli import main, parse_generator
from robustcenter.core import CenterSet, ParamSet
from robustcenter.generate import GeneratorSpec
from robustcenter.greedy import boost_repetitions

SMALL = GeneratorSpec(
    n_inliers=56, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0, outliers=4
)
CLEAN = GeneratorSpec(n_inliers=40, clusters=2, dim=2, grid_dim=2, cluster_radius=1.0)


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
        if a["algo"] == "two_approx":
            reps = boost_repetitions(ParamSet(k=2, z=4, n=a["n"], seed=a["seed"]))
            assert a.pop("dist_evals") == reps * 2 * a["n"]
            assert b.pop("dist_evals") == 2 * reps * 2 * a["n"]
        assert a == b


def test_charikar_record_counts_each_pair_once():
    # 600 points: strips of 256, 256 and 88 rows over the upper triangle,
    # 256*600 + 256*344 + 88*88 evaluations, against 600**2 for the full block.
    source = GeneratorSpec(n_inliers=590, clusters=3, dim=2, grid_dim=2, cluster_radius=1.0, outliers=10)
    spec = ExperimentSpec(algos=("charikar",), k=3, z=10, seeds=(0,), source=source)
    (rec,), _ = run_experiment(spec)
    assert rec["n"] == 600
    assert rec["dist_evals"] == 249_408


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
    capsys.readouterr()


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
    assert main(["--algo", "distributed", "--sites", "2", "--rho", "600", *base]) == 0
    assert main(["--algo", "coreset", "--rho", "inf", *base]) == 2
    assert "doubling dimension" in capsys.readouterr().err


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

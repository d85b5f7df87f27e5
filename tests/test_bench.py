import csv
import json

import numpy as np
import pytest

from robustcenter import bench
from robustcenter.bench import ExperimentSpec, run_experiment
from robustcenter.cli import main, parse_generator
from robustcenter.generate import GeneratorSpec

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
    with pytest.raises(ValueError):
        ExperimentSpec(algos=("gonzalez",), k=2, z=1, seeds=(0,), source=str(tmp_path / "nope.csv"))


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
    err = capsys.readouterr().err
    assert "error:" in err


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

"""Smoke test of the benchmark on tiny instances of its workloads.

Checks that every metric BENCHMARK.json names is emitted with its unit, that
every op's checks pass with no failed op, and that traced and untraced runs
agree.  Runs in seconds: ``python -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "greedy-100k": dict(n_inliers=950, outliers=50),
    "coreset-host-20k": dict(n_inliers=985, outliers=15),
    "protocol-40k": dict(n_inliers=1_990, outliers=10),
}


def _run_cli(name: str, trace: int, capsys, monkeypatch) -> dict:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    tiny = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny)
    monkeypatch.setattr(harness, "Reference", lambda: reference.Reference((1_000, 100, 20)))
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    result["report"] = json.loads(lines[-2])["report"]
    return result


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_emits_every_metric_and_passes_checks(name, capsys, monkeypatch):
    plain = _run_cli(name, 0, capsys, monkeypatch)
    traced = _run_cli(name, 1, capsys, monkeypatch)
    for result, expected in ((plain, BENCH["end_to_end"]), (traced, BENCH["per_layer"])):
        assert result["correct"], result["report"]["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    metrics = {n: m["value"] for n, m in plain["metrics"].items()}
    assert all(value > 0 for value in metrics.values()), metrics
    assert metrics["ok_ratio"] == 1.0
    layer = {n: m["value"] for n, m in traced["metrics"].items()}
    assert layer["core.dist_evals"] == metrics["dist_evals_per_solve"]
    assert traced["report"]["digest_seed0"] == plain["report"]["digest_seed0"]


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert harness.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0, 10)
    assert harness.tail([float(i) for i in range(1, 21)]) == (11.0, 55.0, 9)
    assert harness.tail([4.0, 1.0, 3.0, 2.0, 5.0]) == (3.0, 60.0, 2)


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "greedy-100k", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

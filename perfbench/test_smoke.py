"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--seed", "5", "--seconds", "0.5", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload: str, trace: str) -> None:
    proc = _bench(ROOT, "--workload", workload, "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    if trace == "0":
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_all_workloads_from_one_process() -> None:
    proc = _bench(ROOT, "--workload", "all", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    names = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in SPEC["end_to_end"]}
    assert set(metrics) == names


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout

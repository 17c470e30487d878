"""Smoke test of the benchmark: every workload at tiny sizes, two seeds.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
case runs ``perfbench/run.py`` in a child process with ``--scale tiny``
and checks the JSON object on its last output line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("ring_cells", "torus_cells", "serve_zipf", "net_storm")
#: the pinned default seed, and one other
SEEDS = (1, 7)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def last_json(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_verification(workload, seed):
    proc, lines = run(workload, seed, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(lines)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("seed", SEEDS)
def test_traced_run_emits_every_layer_metric(seed):
    proc, lines = run("ring_cells", seed, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(lines)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "obs report" in proc.stdout


def test_without_program_source_it_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run("ring_cells", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)

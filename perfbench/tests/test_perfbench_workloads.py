"""Every workload runs end to end at a tiny size and reports the metrics BENCHMARK.json names."""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {
    "goodput-default": {"n_trials": "600", "frame_grid": "10:30:10"},
    "goodput-fine-grid": {"n_trials": "600", "frame_grid": "5:10:0.5"},
    "reliability-fine": {"snr_grid_db": "0:30:2"},
    "goodput-parallel": {"n_trials": "600", "frame_grid": "10:30:10"},
}


def test_every_workload_has_a_tiny_size():
    assert set(TINY) == set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_passes(workload, trace, monkeypatch):
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.0, trace=trace)
    result = run.run_workload(args, TINY[workload])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    """Holding only BENCHMARK.json and perfbench/, it exits non-zero and prints no result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "goodput-default",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_pinned_digests_catch_changed_bytes():
    numpy = json.loads((BENCH / "digests.json").read_text())["numpy"]
    changed = {"out.csv": "0" * 64}
    assert run.pinned_digest_problems("goodput-default", changed, {"numpy": numpy})
    assert not run.pinned_digest_problems("goodput-default", changed, {"numpy": "0.0"})

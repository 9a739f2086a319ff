"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS, CheckpointStorm, tail

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(capsys, *args: str):
    """Run the benchmark in-process; returns (exit code, result object)."""
    code = run.main(["--seconds", "0", "--size", "tiny", *args])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_yields_every_metric(capsys, workload, trace):
    code, result = bench(capsys, "--workload", workload, "--trace", trace)
    assert code == 0 and result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_readback_fails_the_run(capsys, monkeypatch):
    simulate = CheckpointStorm.simulate

    def corrupting(self):
        result, runtime, tally = simulate(self)
        tally.readbacks[0][2][0] += 1.0
        return result, runtime, tally

    monkeypatch.setattr(CheckpointStorm, "simulate", corrupting)
    code, result = bench(capsys, "--workload", "checkpoint-storm")
    assert code != 0 and not result["correct"]


def test_metric_names_and_limits():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert tail(list(range(18))) == (100.0, 17)
    assert tail(list(range(300)))[0] == 90.0
    assert tail(list(range(1000)))[0] == 99.0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "admission-herd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

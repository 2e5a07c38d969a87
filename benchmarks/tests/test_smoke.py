"""Smoke tests of the benchmark harness at tiny network sizes.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_N = {"honest_geometric": 48, "forged_recursive": 128, "honest_path": 32}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_emitted_with_its_unit_and_oracle_passes(name, trace):
    result, metrics = run.run_workload(name, seed=1, seconds=0.2, trace=trace,
                                       n=TINY_N[name], min_rounds=6)
    assert result.failures == []
    assert result.attempted >= 6
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: unit for k, (_, unit) in metrics.items()}
    line = json.loads(run.result_line(result, metrics))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0


def test_oracle_catches_a_wrong_value():
    scenario = run.scenarios("honest_path", seed=1, n=8)[0]
    world = run.World(scenario)
    result = world.run_round(1)
    oracle = run.Oracle(scenario, world.tree.parent, world.prov.sense_keys)
    assert oracle.check(1, result) is None
    assert oracle.check(2, result) is not None  # another round's readings
    wrong = dataclasses.replace(result, raw_sum=(result.raw_sum + 1) % (1 << 64))
    assert "raw sum" in oracle.check(1, wrong)


def test_simulated_counts_repeat_across_processes():
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
        "r, m = run.run_workload('forged_recursive', 5, 0.1, False, n=128, min_rounds=3); "
        "print(r.failures, m['msgs_per_round'][0], m['bytes_per_round'][0])"
    )
    outputs = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       timeout=300, env={**os.environ, "PYTHONHASHSEED": str(h)}).stdout
        for h in (1, 2)
    }
    assert len(outputs) == 1
    assert outputs.pop().startswith("[] ")


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "honest_path", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

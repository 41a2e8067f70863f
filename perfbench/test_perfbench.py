"""The benchmark's own checks: every declared metric is reported with its
unit, wrong answers count as failed operations, and changed inputs stop a run.

Workloads run here at a tiny size, with reference distances from the oracle.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_source_tree()

import measure  # noqa: E402
import workloads  # noqa: E402
from flipdist import bfs_distance, parse  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "convex-fans": lambda: workloads.convex_fans(7, (1, 2), oracle_cap=2),
    "random-cross": lambda: workloads.random_cross([(7, 0, 3), (8, 1, 4)]),
    "large-n": lambda: workloads.large_n([("random", 16, 1, 2), ("convex", 16, 2, 2)], oracle_cap=1),
}


def references(cases) -> list[int]:
    out = []
    for case in cases:
        inst = parse(case.text)
        out.append(bfs_distance(inst.t_start, inst.t_end, inst.k)[0])
    return out


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS) == list(workloads.POOLS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_reported_with_unit(name, trace):
    cases = TINY[name]()
    result = measure.measure(cases, references(cases), seed=3, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0, result["failures"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_reference_is_a_failed_operation():
    cases = TINY["random-cross"]()
    refs = references(cases)
    refs[0] += 1
    result = measure.measure(cases, refs, seed=0, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert "reference" in result["failures"][0]


@pytest.mark.parametrize("name", ["convex-fans", "random-cross"])
def test_pools_regenerate_to_their_pins(name):
    cases, refs, _ = workloads.load(name)
    assert len(cases) == len(refs)


def test_changed_inputs_stop_the_run(tmp_path):
    pins = json.loads(workloads.PINNED.read_text(encoding="utf-8"))
    pins["random-cross"]["sha256"] = "0" * 64
    bad = tmp_path / "pinned.json"
    bad.write_text(json.dumps(pins), encoding="utf-8")
    with pytest.raises(workloads.PinMismatch):
        workloads.load("random-cross", bad)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "convex-fans",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The benchmark's own tests: ``python3 -m pytest perfbench/test_perfbench.py``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracles import WindowCacheModel, lru_static_hits  # noqa: E402
from spans import SpanRecorder, child_coverage  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_child_coverage_takes_union_of_overlapping_children():
    # span 0 = [0, 100); children 1 = [10, 40) and 2 = [30, 60) overlap
    # (fan-out threads); grandchild 3 = [12, 20) sits inside child 1.
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0, 10, 30, 12])
    end = np.array([100, 40, 60, 20])
    covered = child_coverage(parent, start, end, 4)
    assert covered.tolist() == [50, 8, 0, 0]


def test_recorder_self_time_and_unwrap():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    rec = SpanRecorder()
    rec.wrap(Layer, "outer", "outer")
    rec.wrap(Layer, "inner", "inner")
    assert Layer().outer() == 2
    rec.fold()
    rec.unwrap_all()
    assert rec.calls("outer") == rec.calls("inner") == 1
    assert 0 <= rec.self_us("outer") <= rec.total_us("outer")
    assert rec.self_us("inner") == rec.total_us("inner")
    assert Layer.outer.__name__ == "outer"
    Layer().outer()
    rec.fold()
    assert rec.calls("outer") == 1  # unwrapped: nothing recorded


def test_lru_static_model():
    keys = np.array([0, 2, 4, 0, 1, 2, 0])
    # two records per node: 4 evicts 0, 0 evicts 2, 2 evicts 4, 0 hits
    assert lru_static_hits(keys, 2, 2) == 1
    assert lru_static_hits(keys, 2, 3) == 3


def test_window_model_evicts_keys_absent_from_window():
    model = WindowCacheModel(m=2, alpha=0.5, threshold=0.6)
    assert model.query(7) is False
    for _ in range(3):
        model.end_slice()
    assert 7 not in model.resident and model.evicted == 1
    assert model.query(7) is False and model.hits == 0


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "2",
                     "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_compare_mode(tmp_path):
    def rows(scale):
        return "".join(json.dumps({
            "workload": "w", "seed": s, "trace": 0, "correct": True,
            "attempted": 10, "failed": 0,
            "metrics": {m["name"]: {"value": scale * (1 + s / 100), "unit": m["unit"]}
                        for m in SPEC["end_to_end"]}}) + "\n" for s in range(5))
    (tmp_path / "a").write_text(rows(1.0))
    (tmp_path / "b").write_text(rows(1.0))
    (tmp_path / "c").write_text(rows(3.0))
    same = run_bench("--compare", str(tmp_path / "a"), str(tmp_path / "b"))
    assert same.returncode == 0 and "DISAGREE" not in same.stdout
    moved = run_bench("--compare", str(tmp_path / "a"), str(tmp_path / "c"))
    assert moved.returncode == 1 and "DISAGREE" in moved.stdout


def test_fails_without_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "live-batch", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

"""Self-test of the benchmark at tiny meshes.

    python3 -m pytest perfbench/test_perfbench.py -q

For every workload: two untraced runs with different seeds and one traced run.
Each must pass its output checks and emit exactly the metrics BENCHMARK.json
names, with their units, and all three must compute identical outputs, which
shows that no state is carried from one cell, level or pass to the next.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}


def run(root, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_seed_free_outputs(workload):
    outputs = []
    for seed, trace in ((1, 0), (2, 0), (3, 1)):
        done = run(ROOT, workload, seed, trace)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == UNITS[trace]
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        record = HERE / "out" / f"{workload}-seed{seed}-trace{trace}-tiny.json"
        outputs.append(json.loads(record.read_text())["outputs"])
    assert outputs[0] == outputs[1] == outputs[2]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    done = run(tmp_path, "tables", 1, 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

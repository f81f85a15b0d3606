"""Smoke test of the benchmark harness: every workload at a tiny grid.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run emits exactly the metrics BENCHMARK.json names, with
their units; that traced self times add up to the traced wall time; that a
wrong answer is counted as a failed operation; and that the harness refuses
to run without the library sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self_total = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
        assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_injected_wrong_parity_sign_is_counted():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workload = workloads.WORKLOADS["spectra"]
    inputs = workload.inputs(3, workloads.SMOKE)
    p = workloads.run_pass(workload, inputs)
    before = workload.check(inputs, p)
    row = p.out["parity:sin3pi"]["rows"][0]
    row["det_sign"] = -row["det_sign"]
    after = workload.check(inputs, p)

    flipped = "parity:sin3pi:0"
    assert [v.label for v in before] == [v.label for v in after]
    assert {v.label for v in before if not v.ok} | {flipped} == {
        v.label for v in after if not v.ok}
    assert next(v for v in before if v.label == flipped).ok
    assert sum(not v.ok for v in after) == sum(not v.ok for v in before) + 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "spectra", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""

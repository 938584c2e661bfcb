"""Smoke test of the benchmark: every workload, untraced and traced.

Run from the repository root with ``python3 -m pytest perfbench/test_bench.py``.
Each case runs ``perfbench/run.py --smoke`` at tiny sizes and checks that
the last output line names every metric of ``BENCHMARK.json`` with its
unit, and that no operation failed.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)
import metrics  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0.5",
                             "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_ratio = 0 " in "\n".join(lines)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_refuses_without_sources(tmp_path):
    """Outside a checkout with ``src/`` the benchmark fails and prints no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cnn-train",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

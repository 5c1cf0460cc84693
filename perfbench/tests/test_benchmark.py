"""BENCHMARK.json agrees with the code, and a tiny-scale run of every
workload prints every named metric with its unit."""

import json
import os
import subprocess
import sys

import pytest

import metrics
import run
import workloads

ROOT = run.ROOT

SPEC = metrics.load_spec()


def test_spec_names_the_workloads_the_code_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_layer_metric_names_what_it_should_move():
    names = {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["per_layer"]:
        for target, workload in metrics.moves(metric["name"]):
            assert target in names
            assert workload in workloads.WORKLOADS


def _run_all(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.01"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert done.returncode == 0
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


@pytest.mark.parametrize(
    "trace, section", [(0, "end_to_end"), (1, "per_layer")]
)
def test_tiny_run_prints_every_metric_with_its_unit(trace, section):
    result, stdout = _run_all(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    expected = {
        f"{workload}/{m['name']}": m["unit"]
        for workload in workloads.WORKLOADS
        for m in SPEC[section]
    }
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    for workload in workloads.WORKLOADS:
        assert f"workload {workload}:" in stdout
        for m in SPEC[section]:
            assert f"  {m['name']} = " in stdout
        assert "error_rate" in stdout and "wrong_verdicts 0" in stdout


def test_missing_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            (bench / name).write_text(
                open(os.path.join(ROOT, "perfbench", name)).read()
            )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

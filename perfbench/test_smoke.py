"""Smoke test of the benchmark itself.

Runs every workload at a tiny scale, untraced and traced, and checks that the
result line names exactly the metrics ``BENCHMARK.json`` lists, with their
units, and that every run passed its output check.  Also checks that the
benchmark refuses to run, printing no result, where there are no sources.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py -q
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", str(trace), "--scale", "0.02",
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, group):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[group]}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in BENCHMARK["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path), os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench(bare, BENCHMARK["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bare))
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Smoke test of the benchmark harness: a short traced run of each
workload's seed-1 pool ends in a parseable, correct result line.

The run lasts 0.3 s rather than the single pass of ``--seconds 0``: one
pass of the functional pool takes about 25 ms, in which the worker's 5 ms
speed probe can take fewer than the 5 samples the harness needs, and the
run then ends without a result line.

The benchmark's worker reads ``plemelj.BACKEND``, and its tracer wraps
``gk15(g, a, b)`` and replaces the ``eval`` field of the catalog's
TestFunctions, so this also guards those names.

The result line must be strict JSON, with no ``NaN`` or ``Infinity``,
and carry every per-layer metric that ``BENCHMARK.json`` names, each
with a finite value.
"""
import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["sweep", "functional", "crosscheck"])
def test_traced_run_ends_in_a_correct_result(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0.3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=_refuse_constant)
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = [m["name"] for m in json.load(fh)["per_layer"]]
    metrics = result["metrics"]
    assert [name for name in wanted if name not in metrics] == []
    assert [name for name in wanted
            if not math.isfinite(metrics[name]["value"])] == []


def _refuse_constant(name):
    raise ValueError(f"result line holds the non-JSON constant {name}")

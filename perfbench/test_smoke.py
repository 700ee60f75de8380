"""Smoke test of the benchmark itself, at a size that runs in seconds.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

# The subprocesses pick the pure lane themselves; this process keeps the
# environment it was given.
if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

import hyperfill as hf  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    text, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[-1] == m["unit"] for line in text)


def test_raising_op_is_counted_not_fatal():
    def boom(_state):
        raise hf.NumericalError("stalled on purpose")

    ops = [
        workloads.Op("ok", lambda st: 1.0, lambda x: {"value": x}),
        workloads.Op("raises", boom, lambda x: {"value": x}),
        workloads.Op("wrong", lambda st: -1.0, lambda x: {"value": x},
                     lambda st, x: ["negative"]),
        workloads.Op("after", lambda st: 2.0, lambda x: {"value": x}),
    ]
    wl = workloads.Workload("fake", None, lambda inp: ops, lambda st: {},
                            1.0)
    res = run.run_pass(wl, {})
    assert res.attempted == 4
    assert res.failed_ops() == {"raises", "wrong"}
    assert [op for op, _ in res.raised] == ["raises"]
    assert "after" in res.values


def test_traced_spans_nest_and_originals_return():
    wl = workloads.WORKLOADS["cantor_pair"]
    original = hf.build_nested_filling
    tracer = Tracer()
    with tracer:
        assert hf.build_nested_filling is not original
        res = run.run_pass(wl, wl.setup(0, "tiny"))
    assert hf.build_nested_filling is original
    assert res.failed_ops() == set()
    assert tracer.records and tracer.nesting_errors() == []
    labels = {rec[0]: rec for rec in tracer.records}
    greedy = labels["kernels.greedy"]
    assert tracer.records[greedy[1]][0] == "filling.build"
    summ = tracer.summary()
    assert summ["filling.build"]["incl_s"] >= summ["filling.build"]["self_s"]
    assert tracer.count_under("calculus.blend", "trace.op") > 0

"""The benchmark harness under perfbench/ still fits the package.

perfbench reaches into the package by module attribute: ``--trace 1``
wraps 17 named functions and methods, and each workload builds its
inputs through public calls.  A rename or a removed function would only
show when the benchmark runs; these tests read the harness and fail
first.  The harness is imported, never changed.
"""

import json
import sys
from pathlib import Path

import pytest

import latinhadamard
from latinhadamard import algebra, chisq, cli, coloring, design, latin, power

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The module namespaces perfbench/run.py patches under --trace 1.
NAMESPACES = [latinhadamard, latin, coloring, algebra, design, chisq, power, cli]


def test_every_trace_target_resolves():
    targets = workloads.trace_targets()
    assert len(targets) == 17
    patches = tracing.Patches(tracing.Tracer(), targets, NAMESPACES)
    patched = {(id(holder), attr) for holder, attr, _ in patches._wrappers}
    for name, owner, attr, _ in targets:
        assert (id(owner), attr) in patched, f"{name}: {owner.__name__}.{attr} not patched"


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_constructs_from_seed_zero(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, tmp_path)
    assert workload.name == name
    assert workload.work_unit


def test_one_census_pass_passes_every_check(tmp_path):
    # A wrong census result fails here, before the benchmark reports it
    # as an incorrect output: every operation of one whole pass runs in
    # order, and each result goes through the operation's own check.
    workload = workloads.WORKLOADS["census"](0, tmp_path)
    kinds = []
    for op in next(workload.passes()):
        op.check(op.fn())
        kinds.append(op.kind)
    assert kinds.count("candidate") == sum(workloads.Census.CANDIDATES.values()) == 2066
    assert len(kinds) == 2066 + 3 + 3 + 1

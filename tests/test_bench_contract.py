"""The package names that the benchmark in ``perfbench/`` relies on.

The benchmark calls package functions and wraps module attributes by name
(``perfbench/workloads.py``, ``perfbench/layers.py``).  Each workload that
BENCHMARK.json declares runs here once, at its smoke budget, with every
tracing wrapper installed, so a deletion or rename that breaks the benchmark
fails in this suite and not only in the slower ``perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json

import pytest

from conftest import REPO

DECLARED = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import layers
    import tracing
    import workloads

    return layers, tracing, workloads


def test_declared_workloads_are_defined(bench):
    _, _, workloads = bench
    assert sorted(workloads.WORKLOADS) == sorted(DECLARED)


@pytest.mark.parametrize("name", DECLARED)
def test_workload_runs_and_passes_its_gate_traced(bench, name, tmp_path):
    layers, tracing, workloads = bench
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        tracer.enabled = True
        workload.prepare(REPO, 0, tmp_path, smoke=True)
        result = workload.run_once(0, tracer)
        totals = tracer.totals()
        assert workload.gate(result) == []
    finally:
        tracer.close()
    # The per-iteration split wraps FP's kernels by name; one that fictitious
    # play stops calling would read 0 in that split without any error.
    if any(span in totals for span in layers.FP_SPANS):
        for kernel in layers.FP_KERNELS.values():
            assert totals.get(f"fictitious.{kernel}", {}).get("calls", 0) >= 1, kernel


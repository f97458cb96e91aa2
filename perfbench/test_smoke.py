"""Self-test of the benchmark with tiny budgets.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and once traced with ``--smoke`` (a few
FP iterations and stationary rounds), checks the output against
BENCHMARK.json, and checks that the gate rejects wrong results and that the
runner refuses a directory without the package.  Takes about a minute,
mostly the two stationary solves of ``route-cli``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.fixture(scope="module")
def bench_modules():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    return workloads


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_seeds_draw_reproducible_inputs(bench_modules):
    center = bench_modules.shipped_mu0({"mu0": [0.1, 0.1, 0.5, 0.1, 0.1, 0.1]}, 6)
    assert bench_modules.draw_distribution(center, 0) is center
    first = bench_modules.draw_distribution(center, 7)
    assert first.tolist() == bench_modules.draw_distribution(center, 7).tolist()
    assert first.tolist() != center.tolist()
    assert abs(first.sum() - 1.0) <= 1e-12


def test_gate_rejects_wrong_results(bench_modules):
    from tracing import Tracer

    workload = bench_modules.WORKLOADS["route-fp"]
    workload.prepare(ROOT, 0, None, smoke=True)
    report = workload.run_once(0, Tracer())
    assert workload.gate(report) == []
    report.exploitability_trace[-1] *= 1.5
    assert any("does not match" in e for e in workload.gate(report))
    report.iterations_run -= 1
    assert any("iterations_run" in e for e in workload.gate(report))


def test_refuses_directory_without_package():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)

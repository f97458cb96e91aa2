"""mfgcommute benchmark runner: one workload, one seed, one run.

    python3 perfbench/run.py --workload route-fp --seed 0 --seconds 20 --trace 0

Runs the workload as a closed loop with one client for ``--seconds``
seconds, checks every result with the workload's untimed gate, and prints
each metric by name and unit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A fuller record (every repetition, the machine, the package
versions, the commit) goes to ``perfbench/out/``, and with ``--trace 1`` the
spans too.  Exits 1 if any operation failed its gate and 2 if the checkout
holds no package to measure.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# One thread for every BLAS/OpenMP pool, set before numpy is imported.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
# The set-up probes' yardstick: a fresh interpreter importing numpy, the same
# kind of work as set-up.  It takes about NOMINAL_REFERENCE_S on an idle core
# of a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4), the unit of setup_s.
REFERENCE = (sys.executable, "-c", "import argparse, pathlib, numpy")
NOMINAL_REFERENCE_S = 0.14
NEEDED = ("src/mfgcommute/__init__.py", "configs", "scenarios")
# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _median(values):
    return statistics.median(values) if values else 0.0


def machine_info():
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _child(args):
    """Wall seconds and standard output of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{args[1]} failed: {proc.stderr.strip()}")
    return wall, proc.stdout


def setup_times(workload):
    """Set-up seconds from SETUP_PROBES fresh interpreters, one after another.

    Returns (rescaled, raw) lists.  A reference interpreter runs before the
    first probe and after each one; a probe's time is rescaled by the mean
    wall time of the two around it, so a slow spell of the machine that
    slows the probe slows its yardstick too.
    """
    probe = (sys.executable, str(BENCH / "setup_probe.py"), *workload.probe_args())
    times, raw = [], []
    before, _ = _child(REFERENCE)
    for _ in range(SETUP_PROBES):
        setup_s = float(_child(probe)[1])
        after, _ = _child(REFERENCE)
        times.append(setup_s * NOMINAL_REFERENCE_S / ((before + after) / 2))
        raw.append(setup_s)
        before = after
    return times, raw


def run_phase(workload, tracer, sampler, reps, seconds, min_reps, traced):
    """Closed loop: repeat the workload's operation while the next one fits.

    Runs at least ``min_reps`` operations, then stops before one that would
    end, at the mean pace so far, after ``seconds``.  Every time is rescaled
    to the reference speed (see speed.py).
    """
    import layers

    start = time.perf_counter()
    done = 0
    with sampler:
        while done < min_reps or (time.perf_counter() - start) * (done + 1) / done <= seconds:
            index = len(reps)
            span_mark, sample_mark = tracer.mark(), sampler.mark()
            tracer.enabled = traced
            result = None
            errors = []
            with tracer.span("perfbench.rep"):
                t0 = time.perf_counter()
                try:
                    result = workload.run_once(index, tracer)
                except Exception:
                    errors.append("raised:\n" + traceback.format_exc())
                t1 = time.perf_counter()
            tracer.enabled = False
            wall, scaled = sampler.rescale(t0, t1, sample_mark)
            rep = {"traced": traced, "wall_s": wall, "solve_s": scaled}
            if result is not None:
                try:
                    errors += workload.gate(result)
                    if not errors:
                        rep["exploitability"], rep["residual"] = workload.accuracy(result)
                except Exception:
                    errors.append("gate raised:\n" + traceback.format_exc())
                for key, (a, b) in workload.splits(result).items():
                    rep[key] = sampler.rescale(a, b, sample_mark)[1]
            if traced and not errors:
                rep["layers"] = layers.rep_metrics(
                    tracer.totals(span_mark), scaled / wall,
                    rep.get("exploitability"), rep.get("residual"),
                )
            rep["errors"] = errors
            for err in errors:
                print(f"FAIL {workload.name} rep {index}: {err}", file=sys.stderr)
            reps.append(rep)
            done += 1


def check_counts(reps):
    """Every count metric must repeat exactly between traced repetitions."""
    import layers

    traced = [r for r in reps if "layers" in r]
    for rep in traced[1:]:
        for name in layers.COUNT_METRICS:
            if rep["layers"][name] != traced[0]["layers"][name]:
                rep["errors"].append(
                    f"count {name} = {rep['layers'][name]} != {traced[0]['layers'][name]}"
                )
                print(f"FAIL count {name} differs between repetitions", file=sys.stderr)


def gap_of(reps):
    """The workload's equilibrium certificate: FP exploitability, else max(r1, r2)."""
    good = [r for r in reps if not r["errors"]]
    if not good:
        return 0.0
    value = good[-1]["exploitability"]
    return value if value is not None else good[-1]["residual"]


def measure(workload, seed, seconds, trace, smoke):
    import layers
    from speed import SpeedSampler
    from tracing import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    reps: list[dict] = []
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace}
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{workload.name}-") as tmp:
        workload.prepare(ROOT, seed, Path(tmp), smoke)
        sampler = SpeedSampler()
        tracer = Tracer(sampler.net_clock)
        if trace:
            run_phase(workload, tracer, sampler, reps, seconds / 2, 1, traced=False)
            layers.install(tracer)
            try:
                run_phase(workload, tracer, sampler, reps, seconds / 2, 2, traced=True)
            finally:
                tracer.close()
            micro = layers.microbench(workload.cm, workload.mu0, workload.horizon,
                                      budget_s=0.02 if smoke else 0.3)
        else:
            setup, setup_wall = setup_times(workload)
            run_phase(workload, tracer, sampler, reps, seconds, 2, traced=False)
    check_counts(reps)

    failed = sum(1 for r in reps if r["errors"])
    untraced = [r["solve_s"] for r in reps if not r["traced"] and not r["errors"]]
    if trace:
        traced = [r for r in reps if r["traced"] and not r["errors"]]
        values = dict(micro)
        for name in traced[0]["layers"] if traced else ():
            if name in layers.COUNT_METRICS:
                values[name] = traced[0]["layers"][name]  # equal in every rep
            else:
                values[name] = _median([r["layers"][name] for r in traced])
        traced_s = _median([r["solve_s"] for r in traced])
        base_s = _median(untraced)
        values["trace.overhead_s"] = traced_s - base_s
        values["trace.overhead_pct"] = 100.0 * (traced_s - base_s) / base_s if base_s else 0.0
        tracer.dump(OUT / f"spans-{workload.name}-s{seed}.json", record)
    else:
        values = {
            "setup_s": _median(setup),
            "solve_s": _median(untraced),
            "equilibrium_gap": gap_of(reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_samples_s"] = setup
        record["setup_wall_s"] = setup_wall
    declared = SPEC["per_layer" if trace else "end_to_end"]
    # A failed run may lack the numbers of its failed operations.
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0) if failed else values[m["name"]],
                    "unit": m["unit"]}
        for m in declared
    }
    record.update(machine=machine_info(), reps=reps, metrics=metrics)
    (OUT / f"result-{workload.name}-s{seed}-t{trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    return reps, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, for the self-test")
    args = parser.parse_args(argv)

    missing = [p for p in NEEDED if not (ROOT / p).exists()]
    if missing:
        print(f"error: checkout at {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    os.environ.pop("MFG_LOG", None)
    sys.path.insert(0, str(ROOT / "src"))
    import mfgcommute

    if ROOT / "src" not in Path(mfgcommute.__file__).resolve().parents:
        print(f"error: imported mfgcommute from {mfgcommute.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reps, failed, metrics = measure(workload, args.seed, args.seconds, args.trace, args.smoke)

    good = [r for r in reps if not r["errors"]]
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} operations, {failed} failed (fail_ratio {failed / len(reps):.3g})")
    if not args.trace and good:
        for key in ("run_s", "smfe_s"):
            if key in good[0]:
                print(f"  {key:44s} {_median([r[key] for r in good]):.6g} s (median, untraced)")
        for key in ("exploitability", "residual"):
            if good[-1].get(key) is not None:
                print(f"  {key:44s} {good[-1][key]:.10g} gap")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(
        {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}
    ))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

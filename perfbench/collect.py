"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/collect.py                       # seed 0
    python3 perfbench/collect.py --seeds 0-9 --out perfbench/baseline.json

Runs every workload of BENCHMARK.json untraced and then traced, once per
seed; each run is one ``perfbench/run.py`` process, started after the
previous one ended.  For every workload and metric this prints the median,
the quartiles and the spread (quartile distance over the median) across the
seeds, with the metric's unit, and flags an end-to-end spread that exceeds a
third of the metric's bound in BENCHMARK.json.  Next to the rescaled
``solve_s`` and ``setup_s`` it summarises the raw wall times of the same
operations (``raw_wall``), so a change can be checked on both.  Exits 1 if
any run failed its gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result, wall


def raw_walls(record):
    """Median raw wall seconds of one untraced run's set-ups and operations.

    These are the times before rescaling: by the speed kernel (speed.py)
    for operations, by the reference interpreter (run.py) for set-up.
    """
    good = [r for r in record["reps"] if not r["traced"] and not r["errors"]]
    if not good or "setup_wall_s" not in record:
        return {}
    return {
        "setup_s": statistics.median(record["setup_wall_s"]),
        "solve_s": statistics.median(r["wall_s"] for r in good),
    }


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="e.g. 0 or 1-10 or 1,4,7")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    bad_runs = 0
    for workload in (w["name"] for w in spec["workloads"]):
        entry = summary["workloads"].setdefault(workload, {})
        for trace in (0, 1):
            values: dict[str, list[float]] = {}
            units = {}
            raw: dict[str, list[float]] = {}
            walls = []
            for seed in summary["seeds"]:
                code, result, wall = run_one(workload, seed, seconds, trace)
                walls.append(wall)
                ok = code == 0 and result is not None and result["correct"]
                bad_runs += not ok
                status = "ok" if ok else f"FAILED (exit {code})"
                print(f"{workload} seed={seed} trace={trace}: {status}, {wall:.1f} s wall",
                      flush=True)
                if result is None:
                    continue
                record = json.loads(
                    (BENCH / "out" / f"result-{workload}-s{seed}-t{trace}.json").read_text()
                )
                summary.setdefault("machine", record["machine"])
                for name, value in raw_walls(record).items():
                    raw.setdefault(name, []).append(value)
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
            metrics = {name: dict(summarise(v), unit=units[name]) for name, v in values.items()}
            entry["end_to_end" if trace == 0 else "per_layer"] = metrics
            if trace == 0:
                entry["raw_wall"] = {name: dict(summarise(v), unit="s") for name, v in raw.items()}
                metrics = dict(metrics, **{f"raw_wall.{k}": v for k, v in entry["raw_wall"].items()})
            entry[f"run_wall_s_trace{trace}"] = summarise(walls)
            for name, s in metrics.items():
                flag = ""
                if name in bounds and s["spread"] > bounds[name] / 3:
                    flag = f"  <-- spread above bound/3 ({bounds[name] / 3:.3f})"
                print(f"  {workload:16s} {name:44s} median {s['median']:.6g} {s['unit']}"
                      f"  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]  spread {s['spread']:.4f}{flag}")
    if args.out:
        out = Path(args.out)
        if not out.is_absolute():
            out = ROOT / out
        out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"{bad_runs} failed run(s)")
    return 1 if bad_runs else 0


if __name__ == "__main__":
    sys.exit(main())

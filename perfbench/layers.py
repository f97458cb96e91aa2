"""Per-layer metrics: call-site wrappers, span totals and public-call timings.

``install`` wraps the package's public functions where the calling module
looks them up, so the package's own files stay untouched:

    cli.fictitious_play, cli.solve_smfe           spans, caller `run`/`smfe`
    cli.dump_json, cli.write_csv                  spans, artifact writes
    stationary.fictitious_play                    span, the fallback re-seed
    stationary.bellman_apply, .forward_step       leaf counters, outer/power steps
    route.path_costs, bottleneck.departure_costs  leaf counters, the functions
                                                  the cost-model lambdas call
    fictitious._backward_induction_core,          leaf counters, the kernels an
      ._policy_evaluate_core,                     FP iteration runs; they give
      ._forward_propagate_core,                   its split per iteration
      ._weighted_policy_average

``microbench`` times single public calls of ``core`` and ``fictitious`` at
the workload's horizon and option count.  Those calls check their inputs;
fictitious play skips the checks and calls the private kernels above, so
the ``*_us`` timings are not shares of an FP iteration.  The metric names
and units are declared in BENCHMARK.json; every name is reported on every
workload, 0 where its layer does not run.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from mfgcommute import (
    backward_induction,
    bellman_apply,
    exploitability,
    forward_propagate,
    forward_step,
    fp_average_policy,
    policy_evaluate,
    uniform_policy_seq,
)
from mfgcommute import bottleneck, cli, fictitious, route, stationary
from speed import SpeedSampler

# Counts must repeat exactly between repetitions of one input.  Not
# cli.bytes_written: report.json's runtime field varies in length.
COUNT_METRICS = (
    "fictitious.iterations",
    "route.path_costs_calls",
    "bottleneck.departure_costs_calls",
    "stationary.bellman_apply_calls",
    "stationary.forward_step_calls",
    "stationary.fictitious_play_calls",
)

FP_SPANS = ("perfbench.fictitious_play", "cli.fictitious_play", "stationary.fictitious_play")
SMFE_SPANS = ("perfbench.solve_smfe", "cli.solve_smfe")
WRITE_SPANS = ("cli.dump_json", "cli.write_csv")
# Per-iteration split of fictitious play: metric suffix -> private kernel.
FP_KERNELS = {
    "backward_induction": "_backward_induction_core",
    "policy_evaluate": "_policy_evaluate_core",
    "forward_propagate": "_forward_propagate_core",
    "policy_average": "_weighted_policy_average",
}


def _iterations(span, args, report):
    span.info["iterations"] = report.iterations_run


def _bytes_written(span, args, result):
    span.info["bytes"] = Path(args[1]).stat().st_size


def install(tracer):
    tracer.wrap(cli, "fictitious_play", on_return=_iterations)
    tracer.wrap(cli, "solve_smfe")
    tracer.wrap(cli, "dump_json", on_return=_bytes_written)
    tracer.wrap(cli, "write_csv", on_return=_bytes_written)
    tracer.wrap(stationary, "fictitious_play", on_return=_iterations)
    tracer.wrap(stationary, "bellman_apply", leaf=True)
    tracer.wrap(stationary, "forward_step", leaf=True)
    tracer.wrap(route, "path_costs", leaf=True)
    tracer.wrap(bottleneck, "departure_costs", leaf=True)
    for kernel in FP_KERNELS.values():
        tracer.wrap(fictitious, kernel, leaf=True)


def rep_metrics(totals, factor, exploitability_value, residual_value):
    """Per-layer numbers of one traced repetition from its span totals.

    Times are multiplied by ``factor``, the repetition's rescaling to the
    reference speed.
    """

    def get(names, key="seconds"):
        if isinstance(names, str):
            names = (names,)
        total = sum(totals[n][key] if n in totals else 0 for n in names)
        return total if key == "calls" else total * factor

    def info(names, key):
        return sum(totals[n]["info"].get(key, 0) if n in totals else 0 for n in names)

    iterations = info(FP_SPANS, "iterations")
    fp_s = get(FP_SPANS)
    rounds = get("stationary.bellman_apply", "calls")
    steps = get("stationary.forward_step", "calls")
    smfe_calls = get(SMFE_SPANS, "calls")

    def per_iter_us(seconds):
        return 1e6 * seconds / iterations if iterations else 0.0

    split = {
        f"fictitious.{metric}_us_per_iter": per_iter_us(get(f"fictitious.{kernel}"))
        for metric, kernel in FP_KERNELS.items()
    }
    return {
        "fictitious.iterations": iterations,
        "fictitious.ms_per_iter": 1e3 * fp_s / iterations if iterations else 0.0,
        **split,
        "fictitious.self_us_per_iter": per_iter_us(get(FP_SPANS, "self_s")),
        "fictitious.exploitability": exploitability_value or 0.0,
        "route.path_costs_calls": get("route.path_costs", "calls"),
        "route.path_costs_s": get("route.path_costs"),
        "bottleneck.departure_costs_calls": get("bottleneck.departure_costs", "calls"),
        "bottleneck.departure_costs_s": get("bottleneck.departure_costs"),
        "stationary.solve_smfe_s": get(SMFE_SPANS),
        "stationary.bellman_apply_calls": rounds,
        "stationary.forward_step_calls": steps,
        "stationary.forward_step_s": get("stationary.forward_step"),
        "stationary.power_steps_per_round": steps / rounds if rounds else 0.0,
        "stationary.fictitious_play_calls": get("stationary.fictitious_play", "calls"),
        "stationary.converged": (
            (smfe_calls - info(SMFE_SPANS, "raised")) / smfe_calls if smfe_calls else 0.0
        ),
        "stationary.residual": residual_value or 0.0,
        "cli.run_s": get("cli.run"),
        "cli.smfe_s": get("cli.smfe"),
        "cli.fictitious_play_s": get("cli.fictitious_play"),
        "cli.solve_smfe_s": get("cli.solve_smfe"),
        "cli.write_s": get(WRITE_SPANS),
        "cli.self_s": get(("cli.run", "cli.smfe"), "self_s"),
        "cli.bytes_written": info(WRITE_SPANS, "bytes"),
    }


def _per_call_us(fn, budget_s, sampler):
    """Median over batches of the mean time of one call, in microseconds.

    Rescaled to the reference speed by the samples taken meanwhile; the
    median drops the batches that a sample interrupted.
    """
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    batch = max(1, int(0.005 / max(once, 1e-9)))
    means = []
    mark = sampler.mark()
    start = time.perf_counter()
    while len(means) < 5 or time.perf_counter() < start + budget_s:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        means.append((time.perf_counter() - t0) / batch)
    wall, scaled = sampler.rescale(start, time.perf_counter(), mark)
    return 1e6 * statistics.median(means) * scaled / wall


def microbench(cm, mu0, horizon, budget_s=0.2):
    """Time of one public call at the workload's (N, M) on a consistent pair."""
    pol = uniform_policy_seq(horizon, cm.M)
    mf = forward_propagate(pol, mu0)
    _, pol = backward_induction(mf, cm)
    mf = forward_propagate(pol, mu0)
    values, _ = backward_induction(mf, cm)
    calls = {
        "core.backward_induction_us": lambda: backward_induction(mf, cm),
        "core.policy_evaluate_us": lambda: policy_evaluate(pol, mf, cm),
        "core.forward_propagate_us": lambda: forward_propagate(pol, mu0),
        "core.forward_step_us": lambda: forward_step(pol[0], mu0),
        "core.bellman_apply_us": lambda: bellman_apply(values[1], mf[0], cm),
        "fictitious.exploitability_us": lambda: exploitability(pol, mf, cm, mu0),
        "fictitious.fp_average_policy_us": lambda: fp_average_policy([(mf, pol)], 1),
    }
    with SpeedSampler() as sampler:
        return {name: _per_call_us(fn, budget_s, sampler) for name, fn in calls.items()}

"""Write the late-regime start of the ``bottleneck-smfe`` workload.

    python3 perfbench/warm_start.py          # rewrites perfbench/warm_start.json

``run``'s stationary diagnostic on bottleneck_e1t20 spends almost all its
time after outer round ``ROUNDS``: by then the damping step has been halved
to 2**-9 and each round's power iteration takes about a thousand
``forward_step`` calls.  This script runs ``solve_smfe`` for ``ROUNDS``
rounds from the solver's default start and stores the state that round
``ROUNDS + 1`` starts from: the distribution (the ``mu_bar`` that
``SolverFailure`` carries) and the damping step in force.  The workload
passes them back as ``init`` and ``damping``, so a few rounds measure that
regime.  The step is read from the last update, mu' = ((1 - s) mu + s
target) / sum, where mu is the distribution the last round's
``bellman_apply`` saw and target the last power iteration's result; the
solver only ever halves or doubles a step of 0.5, so s is rounded to a power
of two.  The file is committed, so the workload's inputs stay fixed when the
package changes.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = "configs/bottleneck_e1t20.json"
ROUNDS = 700
OUT = BENCH / "warm_start.json"


def late_state(cm, rounds=ROUNDS):
    from mfgcommute import SolverFailure, stationary

    seen, targets = [], []
    bellman_apply = stationary.bellman_apply
    power = stationary._stationary_distribution

    def record_mu(v, mu, model):
        seen.append(np.array(mu))
        return bellman_apply(v, mu, model)

    def record_target(*args, **kwargs):
        targets.append(power(*args, **kwargs))
        return targets[-1]

    stationary.bellman_apply = record_mu
    stationary._stationary_distribution = record_target
    try:
        stationary.solve_smfe(cm, max_outer=rounds, fallback=False)
        raise RuntimeError(f"solve_smfe converged within {rounds} rounds")
    except SolverFailure as exc:
        mu_next = exc.payload["mu_bar"]
    finally:
        stationary.bellman_apply = bellman_apply
        stationary._stationary_distribution = power
    mu, target = seen[-1], targets[-1]
    moved = np.abs(target - mu) > 1e-6 * np.abs(target - mu).max()
    step = float(np.median((mu_next - mu)[moved] / (target - mu)[moved]))
    return mu_next, 2.0 ** round(math.log2(step))


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import build_cost_model, read_config

    cm = build_cost_model(ROOT, read_config(ROOT, CONFIG))
    mu, damping = late_state(cm)
    OUT.write_text(json.dumps(
        {"config": CONFIG, "rounds": ROUNDS, "damping": damping, "mu_bar": mu.tolist()},
        indent=1,
    ) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}: damping {damping!r} after {ROUNDS} rounds")


if __name__ == "__main__":
    main()

"""Fingerprint the solvers' outputs, to show that a change keeps them bit for bit.

Prints a JSON object that maps each case name to the sha256 of the case's
arrays and scalars (dtype, shape and raw bytes of each).  The cases:

- ``fp/<config>``: fictitious play at 300 iterations on each shipped config
  (``avg_mf``, ``avg_policy``, ``value_seq``, the iteration count and the
  last trace entry, the certified gap);
- ``fp-trace/<config>``: the whole exploitability trace of the same run.
  Its entries before the last are priced by the occupancy form, not
  certified: from the kernel-free occupancy sums, the best responses'
  factors (mf / z) x u folded with the Gibbs kernel left out, which meet
  the policy tables only at a stop candidate.  So a change of summation
  order can move them by rounding while ``fp/<config>`` stays put;
- ``smfe/<config>``: ``solve_smfe``'s Newton solve on each shipped config
  (the pair with its ``smfe_residuals``, so that a change to the
  certificate shows, or the failure payload when it stalls);
- ``sue/<config>``: ``logit_sue``'s Newton solve on each shipped config
  (the logit distribution, or the failure's residual).  It ignores the
  inertia, so configs that differ only in epsilon share this hash;
- ``cap30/<config>``: the legacy damped loop, 30 rounds from the uniform
  distribution at ``damping=0.5`` with ``fallback=False``, on each shipped
  config (the pair, or the failure payload when the cap is reached);
- ``damped/bottleneck_e1t20``: a 20-round damped solve from the uniform
  distribution at ``damping=2**-9``;
- ``bellman/<config>``: the public table builders on each shipped config,
  ``bellman_apply`` at one random (V, mu) and ``backward_induction`` at one
  random mean field sequence, drawn from ``np.random.default_rng(0)``.

The script calls the package's public API only: ``cli.build_experiment``
builds each config's cost model and fictitious-play inputs.  A tree older
than ``build_experiment`` lacks it, so fingerprint such a tree with that
tree's own copy of this script.  The damped cases pass all four of
``solve_smfe``'s legacy keywords, which the loop needs and older trees
accept.

The package is imported from whichever ``src/`` comes first on
``PYTHONPATH``; the configs and scenarios are this checkout's.  Compare the
output of two trees on one machine, with the same BLAS settings, e.g.

    PYTHONPATH=src python scripts/fingerprint.py > new.json
    PYTHONPATH=/path/to/other/src python scripts/fingerprint.py > old.json
    diff old.json new.json

The hashes depend on the machine, numpy and BLAS, so they are only ever
compared between two trees run side by side, never against stored values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from mfgcommute.cli import build_experiment, load_config
from mfgcommute.core import (
    SolverFailure,
    backward_induction,
    bellman_apply,
    uniform_distribution,
)
from mfgcommute.fictitious import fictitious_play
from mfgcommute.stationary import logit_sue, smfe_residuals, solve_smfe

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
NAMES = ("route_e1t1", "route_e0t1", "route_e0t20", "bottleneck_e1t20", "bottleneck_e0t20")


def digest(*values) -> str:
    h = hashlib.sha256()
    for value in values:
        a = np.ascontiguousarray(value)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def fp_cases(cm, fp):
    r = fictitious_play(cm, replace(fp, max_iters=300))
    certified = digest(r.avg_mf, r.avg_policy, r.value_seq, r.iterations_run,
                       r.exploitability_trace[-1])
    return certified, digest(r.exploitability_trace)


def bellman_case(cm, horizon):
    rng = np.random.default_rng(0)
    v = cm.bound_C * rng.random(cm.M)
    mu = rng.dirichlet(np.ones(cm.M))
    mf = rng.dirichlet(np.ones(cm.M), size=horizon)
    return digest(*bellman_apply(v, mu, cm), *backward_induction(mf, cm))


def smfe_case(cm, **budget):
    try:
        p = solve_smfe(cm, **budget)
    except SolverFailure as exc:
        p = exc.payload
        return digest(p["V_bar"], p["mu_bar"], p["lambda_bar"], p["r1"], p["r2"])
    return digest(p.V_bar, p.mu_bar, p.lambda_bar, p.pi_bar, *smfe_residuals(p, cm))


def sue_case(cm):
    try:
        return digest(logit_sue(cm))
    except SolverFailure as exc:
        return digest(exc.residual)


def main() -> None:
    models = {name: build_experiment(load_config(CONFIGS / f"{name}.json")) for name in NAMES}
    hashes = {}
    for name, (cm, _, fp) in models.items():
        hashes[f"fp/{name}"], hashes[f"fp-trace/{name}"] = fp_cases(cm, fp)
        hashes[f"bellman/{name}"] = bellman_case(cm, fp.horizon)
    for name, (cm, _, _) in models.items():
        hashes[f"smfe/{name}"] = smfe_case(cm)
        hashes[f"sue/{name}"] = sue_case(cm)
        hashes[f"cap30/{name}"] = smfe_case(cm, init=uniform_distribution(cm.M), damping=0.5,
                                            max_outer=30, fallback=False)
    cm = models["bottleneck_e1t20"][0]
    hashes["damped/bottleneck_e1t20"] = smfe_case(
        cm, init=uniform_distribution(cm.M), damping=2.0**-9, max_outer=20, fallback=False)
    print(json.dumps(hashes, indent=1))


if __name__ == "__main__":
    main()

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
- ``smfe/<config>``: ``solve_smfe``'s Newton solve, at its defaults, on
  each shipped config (the pair, or the failure payload when it stalls);
- ``cap30/<config>``: the legacy damped loop, 30 rounds from the uniform
  distribution at ``damping=0.5`` with ``fallback=False``, on each shipped
  config (the pair, or the failure payload when the cap is reached);
- ``damped/bottleneck_e1t20``: a 20-round damped solve from the uniform
  distribution at ``damping=2**-9``;
- ``bellman/<config>``: the public table builders on each shipped config,
  ``bellman_apply`` at one random (V, mu) and ``backward_induction`` at one
  random mean field sequence, drawn from ``np.random.default_rng(0)``.

The script calls the package's public API, and ``cli._resolve_mu0`` for
the configs' initial distributions, so it can fingerprint a tree older
than itself.  The damped cases pass all four of ``solve_smfe``'s
legacy keywords, which the loop needs and older trees accept.

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
from pathlib import Path

import numpy as np

from mfgcommute.cli import _resolve_mu0, build_scenario, load_config
from mfgcommute.core import (
    SolverFailure,
    backward_induction,
    bellman_apply,
    uniform_distribution,
)
from mfgcommute.fictitious import FPConfig, fictitious_play
from mfgcommute.stationary import solve_smfe

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
NAMES = ("route_e1t1", "route_e0t1", "route_e0t20", "bottleneck_e1t20", "bottleneck_e0t20")


def digest(*values) -> str:
    h = hashlib.sha256()
    for value in values:
        a = np.ascontiguousarray(value)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def fp_cases(cfg, cm):
    fp = FPConfig(_resolve_mu0(cfg, cm.M), horizon=cfg.horizon, max_iters=300,
                  exploitability_tol=cfg.exploitability_tol)
    r = fictitious_play(cm, fp)
    certified = digest(r.avg_mf, r.avg_policy, r.value_seq, r.iterations_run,
                       r.exploitability_trace[-1])
    return certified, digest(r.exploitability_trace)


def bellman_case(cfg, cm):
    rng = np.random.default_rng(0)
    v = cm.bound_C * rng.random(cm.M)
    mu = rng.dirichlet(np.ones(cm.M))
    mf = rng.dirichlet(np.ones(cm.M), size=cfg.horizon)
    return digest(*bellman_apply(v, mu, cm), *backward_induction(mf, cm))


def smfe_case(cm, **budget):
    try:
        p = solve_smfe(cm, **budget)
    except SolverFailure as exc:
        p = exc.payload
        return digest(p["V_bar"], p["mu_bar"], p["lambda_bar"], p["r1"], p["r2"])
    return digest(p.V_bar, p.mu_bar, p.lambda_bar, p.pi_bar)


def main() -> None:
    models = {}
    for name in NAMES:
        cfg = load_config(CONFIGS / f"{name}.json")
        models[name] = cfg, build_scenario(cfg)[0]
    hashes = {}
    for name, (cfg, cm) in models.items():
        hashes[f"fp/{name}"], hashes[f"fp-trace/{name}"] = fp_cases(cfg, cm)
        hashes[f"bellman/{name}"] = bellman_case(cfg, cm)
    for name, (_, cm) in models.items():
        hashes[f"smfe/{name}"] = smfe_case(cm)
        hashes[f"cap30/{name}"] = smfe_case(cm, init=uniform_distribution(cm.M), damping=0.5,
                                            max_outer=30, fallback=False)
    cm = models["bottleneck_e1t20"][1]
    hashes["damped/bottleneck_e1t20"] = smfe_case(
        cm, init=uniform_distribution(cm.M), damping=2.0**-9, max_outer=20, fallback=False)
    print(json.dumps(hashes, indent=1))


if __name__ == "__main__":
    main()

"""Why fictitious play cannot settle on the bottleneck_e0t20 experiment.

With epsilon = 0 every day after day 0 of bottleneck_e0t20 is the static
logit fixed point mu = softmax(-theta f(mu)), and fictitious play on it is
the method of successive averages.  This script

1. solves that fixed point with ``mfgcommute.stationary.logit_sue``, one
   root solve of its logit form straight at the shipped theta, and prints
   its residual and its departure rates against the Vickrey pattern;
2. prints the leading eigenvalues of the best-response Jacobian there and the
   smallest eigenvalue of the symmetric part of the cost Jacobian, both on
   the tangent space of the simplex.  Averaging converges to the point only
   if every best-response eigenvalue has real part below 1;
3. runs fictitious play on the shipped config for ``--iters`` iterations and
   summarises its exploitability trace, including the 50-iteration window
   that acceptance criterion 9b checks.

Run from the repository root:

    PYTHONPATH=src python scripts/bottleneck_fp_stability.py [--iters 3000]
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from mfgcommute.cli import build_experiment, load_config
from mfgcommute.fictitious import fictitious_play
from mfgcommute.stationary import _softmax, logit_sue

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "bottleneck_e0t20.json"


def tangent_jacobians(cm, mu, theta, h=1e-7):
    """Best-response and cost Jacobians by central differences, on the tangent space."""
    def best_response(m):
        return _softmax(-theta * cm.cost(m))

    br = np.empty((cm.M, cm.M))
    cost = np.empty((cm.M, cm.M))
    for k in range(cm.M):
        e = np.zeros(cm.M)
        e[k] = h
        br[:, k] = (best_response(mu + e) - best_response(mu - e)) / (2 * h)
        cost[:, k] = (cm.cost(mu + e) - cm.cost(mu - e)) / (2 * h)
    basis, _ = np.linalg.qr(np.vstack([np.ones(cm.M), np.eye(cm.M)[:-1]]).T)
    t = basis[:, 1:]
    return t.T @ br @ t, t.T @ (cost + cost.T) / 2 @ t


def direction_changes(x):
    signs = np.sign(np.diff(x))
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] != signs[:-1]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=3000)
    args = parser.parse_args(argv)

    cfg = load_config(CONFIG)
    cm, spec, fp = build_experiment(cfg)
    theta = cfg.theta

    mu = logit_sue(cm)
    resid = np.max(np.abs(_softmax(-theta * cm.cost(mu)) - mu))
    print(f"logit fixed point at theta={theta:g}: residual {resid:.1e}")
    rates = mu / spec.normalized_capacity
    print("departure rate / capacity:", np.array2string(rates, precision=3))
    print(f"Vickrey rates: {spec.alpha / (spec.alpha - spec.beta):.3f} before r, "
          f"{spec.alpha / (spec.alpha + spec.gamma):.3f} after")

    br, sym = tangent_jacobians(cm, mu, theta)
    eig = np.linalg.eigvals(br)
    eig = eig[np.argsort(-eig.real)]
    print("best-response Jacobian, leading eigenvalues:",
          ", ".join(f"{z.real:.2f}{z.imag:+.2f}i" for z in eig[:4]))
    print(f"symmetric cost Jacobian, smallest eigenvalue: "
          f"{np.linalg.eigvalsh(sym)[0]:.1f}")

    report = fictitious_play(cm, replace(fp, max_iters=args.iters))
    trace = np.asarray(report.exploitability_trace)
    print(f"fictitious play, {len(trace)} iterations: "
          f"{direction_changes(trace)} changes of direction")
    for start in (500, 2000):
        if start < len(trace):
            tail = trace[start:]
            print(f"  exploitability after iteration {start}: "
                  f"{tail.min():.2f} .. {tail.max():.2f}")
    if len(trace) >= cfg.max_iters:
        window = trace[cfg.max_iters - 50:cfg.max_iters]
        rises = int(np.sum(np.diff(window) > 1e-9))
        print(f"  shipped budget {cfg.max_iters}: final "
              f"{window[-1]:.2f}, {rises} rises in the last 50")


if __name__ == "__main__":
    main()

"""Stationary equilibria of the commute game and equilibrium diagnostics.

A stationary pair is a value vector and a distribution such that one Bellman
backup shifts the values by a single constant (so the induced policy is
time-invariant) and that policy leaves the distribution invariant.  At a
frozen distribution the solver finds the values exactly by soft policy
iteration and the invariant law of their policy by one linear solve, then
damps the distribution toward that law.  Values are gauge-fixed to V(0) = 0
since the pair only pins values up to an additive constant.

The diagnostics connect the stationary pair to classical within-day
equilibrium notions: the logit equilibrium (the stationary distribution
without inertia, solved directly by one root solve), the
switching-invariance residual, the value/travel-cost gap bracket under flat
switching penalties, the population lower bound, and the flatness of the
entropy-augmented cost profile.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import softmax, xlogy

from .core import (
    CostModel,
    InvalidInputError,
    SolverFailure,
    _bellman_core,
    _forward_step_core,
    bellman_apply,
    check_stochastic,
    dist_distance,
    forward_step,
    uniform_distribution,
)
from .fictitious import FPConfig, fictitious_play

__all__ = [
    "StationaryPair",
    "solve_smfe",
    "logit_sue",
    "smfe_residuals",
    "sdsue_check",
    "value_gap_check",
    "omega_bound",
    "omega_bound_check",
    "augmented_cost_profile",
]

logger = logging.getLogger(__name__)


@dataclass
class StationaryPair:
    """Stationary value/distribution pair with its per-day cost constant."""

    V_bar: np.ndarray
    mu_bar: np.ndarray
    lambda_bar: float
    pi_bar: np.ndarray


def _relative_values(cm, mu, v_start):
    """Average-cost values at frozen ``mu``: gauge-fixed V, lambda, pi and G V.

    Soft policy iteration, i.e. Newton's method on G V = V + lambda
    (Puterman, *Markov Decision Processes*, 1994, ch. 8), from ``v_start``:
    solve (I - pi) V + lambda 1 = c for the softmax policy pi of V, with
    c(s) = f(s) + sum_x pi(x|s) (d(s, x) + ln pi(x|s) / theta) and column 0
    (free since V(0) = 0) holding the ones of lambda.  It stops at a repeat
    of V or once a step lowers neither the least move nor the least lambda
    so far: only rounding stalls both.  The caller certifies the result: r1
    compares the returned backup G V, whose policy is pi, with V + lambda.
    """
    f = cm.cost(mu)  # frozen mu: one cost evaluation for all steps
    d = cm.inertia_matrix
    v = v_start - v_start[0]
    eye = np.eye(cm.M)
    least_lam = least_move = math.inf
    for _ in range(100):  # only a rounding cycle reaches this cap
        _, pi = _bellman_core(f, d, v, cm.theta)
        c = f + (pi * d).sum(axis=1) + xlogy(pi, pi).sum(axis=1) / cm.theta
        a = eye - pi
        a[:, 0] = 1.0
        x = np.linalg.solve(a, c)
        lam = float(x[0])
        x[0] = 0.0
        move = float(np.max(np.abs(x - v)))
        v = x
        if move == 0.0 or (move >= least_move and lam >= least_lam):
            break
        least_move, least_lam = min(move, least_move), min(lam, least_lam)
    backed, pi = _bellman_core(f, d, v, cm.theta)
    return v, lam, pi, backed


def _stationary_distribution(pi):
    """Invariant law of a policy: (I - pi)^T nu = 0 with sum nu = 1, one solve.

    The normalization replaces the first (redundant) balance equation.
    Entries far below 1e-16 can round a few ulps below 0; they are clipped.
    """
    eye = np.eye(pi.shape[0])
    a = eye - pi.T
    a[0] = 1.0
    nu = np.clip(np.linalg.solve(a, eye[0]), 0.0, None)
    return nu / math.fsum(nu)


class DampedStep:
    """Step controller of the damped update mu <- (1-a) mu + a target.

    A fixed step can lock into a two-cycle when theta times the cost spread
    is stiff, so the step is halved (and the halved value becomes the cap)
    after 50 rounds without a new best residual, down to 2**-20, and doubled
    back toward the cap after 50 rounds of improvement.  Deterministic.
    """

    def __init__(self, step: float):
        self.step = step
        self.ceiling = step
        self.best = math.inf
        self.stall = 0
        self.grow = 0

    def move(self, mu, target, residual: float) -> np.ndarray:
        """Adapt the step to ``residual``, then damp ``mu`` toward ``target``."""
        if residual < self.best:
            self.best = residual
            self.stall = 0
            self.grow += 1
            if self.grow >= 50:
                self.step = min(2.0 * self.step, self.ceiling)
                self.grow = 0
        else:
            self.stall += 1
            self.grow = 0
            if self.stall >= 50 and self.step > 2.0**-20:
                self.step *= 0.5
                self.ceiling = self.step
                self.stall = 0
        mu = (1.0 - self.step) * mu + self.step * target
        return mu / math.fsum(mu)


def solve_smfe(
    cm: CostModel,
    init=None,
    tol: float = 1e-8,
    damping: float = 0.5,
    max_outer: int = 100_000,
    fallback: bool = True,
) -> StationaryPair:
    """Solve for a stationary pair by alternating value and distribution updates.

    Each outer round solves the average-cost values exactly at the current
    distribution, then damps the distribution toward the invariant law of
    the induced policy.  A round prices its pair once: r1 comes from the
    backup G V that ends the value solve and r2 from one forward step of its
    policy, the formulas of ``smfe_residuals`` without its input checks and
    second backup.  If the distribution residual stalls, one long-horizon
    fictitious play run re-seeds the distribution from the middle of the
    horizon, where the equilibrium is closest to stationary.  Raises
    SolverFailure if the cap is exhausted; its payload holds the last pair
    priced with that pair's r1 and r2.  The step is halved only after 50
    rounds without a new best residual, so a start near a solution needs a
    small ``damping``: at 0.5, ``init`` set to route_e1t1's own ``mu_bar``
    (``tol=1e-10``) goes from r2 = 9.9e-9 to 0.92 in 20 rounds.
    """
    if init is None:
        mu = uniform_distribution(cm.M)
    else:
        mu = check_stochastic(init, "initial distribution", (cm.M,))
    v = np.zeros(cm.M)
    lam = 0.0
    r1 = r2 = math.inf
    damper = DampedStep(damping)
    fallback_at = min(5_000, max(max_outer // 2, 1))
    fallback_used = not fallback
    for outer in range(max_outer):
        v, lam, pi, backed = _relative_values(cm, mu, v)
        r1, r2 = _pair_residuals(backed, v, lam, pi, mu)
        if r1 <= tol and r2 <= tol:
            logger.info("stationary solve converged after %d rounds", outer + 1)
            return StationaryPair(V_bar=v, mu_bar=mu, lambda_bar=lam, pi_bar=pi)
        if outer + 1 == max_outer:
            break  # the failure reports the pair that r1 and r2 measure
        if outer + 1 >= fallback_at and not fallback_used and r2 > 1e-3:
            mu = _fallback_seed(cm)
            v = np.zeros(cm.M)
            damper = DampedStep(damping)
            fallback_used = True
            logger.info("stationary solve re-seeded from long-horizon run")
            continue
        mu = damper.move(mu, _stationary_distribution(pi), r2)
    raise SolverFailure(
        f"stationary solve stopped at residuals r1={r1:.3e}, r2={r2:.3e}",
        residual=max(r1, r2),
        payload={"V_bar": v, "mu_bar": mu, "lambda_bar": lam, "r1": r1, "r2": r2},
    )


def _fallback_seed(cm, horizon=200):
    report = fictitious_play(
        cm,
        FPConfig(
            mu0=uniform_distribution(cm.M),
            horizon=horizon,
            max_iters=500,
            exploitability_tol=1e-9,
        ),
    )
    return report.avg_mf[horizon // 2]


def logit_sue(cm: CostModel, tol: float = 1e-10) -> np.ndarray:
    """Logit equilibrium mu = softmax(-theta f(mu)) of the one-day choice.

    The stationary distribution of a model without inertia.  One root solve
    by MINPACK's Powell hybrid method (scipy's ``hybr``) of the logit form
    z + theta (f(mu(z))[1:] - f(mu(z))[0]) = 0, mu(z) = softmax([0, z]),
    from the uniform distribution z = 0.  The inertia matrix is ignored.
    Certified by the residual d_f(mu, softmax(-theta f(mu))) <= ``tol``;
    raises SolverFailure with that residual otherwise.
    """
    # Imported on first use: scipy.optimize adds about 60% to the import time
    # of the package, and no other code path needs it.
    from scipy.optimize import root

    def to_mu(z):
        return softmax(np.concatenate([[0.0], z]))

    def logit_form(z):
        f = cm.cost(to_mu(z))
        return z + cm.theta * (f[1:] - f[0])

    sol = root(logit_form, np.zeros(cm.M - 1), method="hybr", options={"xtol": 1e-14})
    mu = to_mu(sol.x)
    residual = dist_distance(mu, softmax(-cm.theta * cm.cost(mu)))
    if not residual <= tol:
        raise SolverFailure(
            f"logit SUE stopped at residual {residual:.3e} above tol={tol:g} "
            f"({sol.message})",
            residual=residual,
        )
    return check_stochastic(mu, "SUE distribution", (cm.M,))


def smfe_residuals(p: StationaryPair, cm: CostModel):
    """The two defining residuals of a stationary pair.

    r1 = max_s |G V(s) - V(s) - lambda|, r2 = d_f(K_pi mu, mu).
    """
    backed, _ = bellman_apply(p.V_bar, p.mu_bar, cm)
    mu = np.asarray(p.mu_bar, dtype=float)  # validated by bellman_apply
    pi = check_stochastic(p.pi_bar, "policy", (cm.M, cm.M))
    return _pair_residuals(backed, p.V_bar, p.lambda_bar, pi, mu)


def _pair_residuals(backed, v, lam, pi, mu):
    """(r1, r2) of a pair from its backup ``backed`` = G V; inputs unchecked."""
    r1 = float(np.max(np.abs(backed - v - lam)))
    return r1, dist_distance(_forward_step_core(pi, mu), mu)


def sdsue_check(mu, pi) -> float:
    """Switching-invariance residual max_k |mu(k) - sum_j mu(j) pi(k|j)|.

    Zero exactly when ``mu`` is a fixed point of the switching-choice model
    with policy ``pi``; identical to the distribution residual of a
    stationary pair.
    """
    return dist_distance(forward_step(pi, mu), mu)


def _indicator_epsilon(cm: CostModel) -> float:
    d = cm.inertia_matrix
    if np.any(np.diag(d) != 0.0):
        raise InvalidInputError("inertia is not of indicator form (nonzero diagonal)")
    off = d[~np.eye(cm.M, dtype=bool)]
    if off.size == 0:
        return 0.0
    if np.any(off != off[0]):
        raise InvalidInputError("inertia is not of indicator form (varying penalty)")
    return float(off[0])


def value_gap_check(p: StationaryPair, cm: CostModel, slack: float = 1e-9) -> bool:
    """Bracket of value gaps by travel-cost gaps under flat switching penalty.

    For every ordered pair with V(x) > V(y):
    V(x)-V(y) > f(x,mu)-f(y,mu) > V(x)-V(y) - epsilon, within ``slack``.
    Only defined for indicator inertia d = epsilon * 1{s != s'}.
    """
    eps = _indicator_epsilon(cm)
    f = cm.cost(p.mu_bar)
    v_gap = p.V_bar[:, None] - p.V_bar[None, :]  # [x, y] = V(x) - V(y)
    f_gap = f[:, None] - f[None, :]
    bracketed = (v_gap > f_gap - slack) & (f_gap > v_gap - eps - slack)
    return bool(((v_gap <= 1e-10) | bracketed).all())


def omega_bound(cm: CostModel) -> float:
    """Population lower bound 1/(M e^{4 theta C}); 0 (vacuous) once it underflows."""
    return math.exp(-4.0 * cm.theta * cm.bound_C - math.log(cm.M))


def omega_bound_check(mfe_mu, cm: CostModel) -> bool:
    """Population lower bound mu_n(s) >= omega_bound(cm) for all n >= 1.

    Day 0 is exempt: the initial distribution may contain zeros.  Where the
    bound underflows, strict positivity of the softmax policies carries it.
    """
    mfe_mu = check_stochastic(mfe_mu, "mean field sequence", (None, cm.M))
    return bool(np.all(mfe_mu[1:] >= omega_bound(cm)))


def augmented_cost_profile(mu, v_or_f, theta: float) -> np.ndarray:
    """Entropy-augmented profile g(s) = cost(s) + (1/theta) ln mu(s).

    A flat profile (max - min below tolerance) certifies the logit
    equilibrium condition for the given cost vector.
    """
    mu = check_stochastic(mu, "distribution", (None,))
    v_or_f = np.asarray(v_or_f, dtype=float)
    if v_or_f.shape != mu.shape:
        raise InvalidInputError("cost vector and distribution shapes differ")
    if np.any(mu <= 0.0):
        raise InvalidInputError("profile needs a strictly positive distribution")
    return v_or_f + np.log(mu) / theta

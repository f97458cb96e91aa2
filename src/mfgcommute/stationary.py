"""Stationary equilibria of the commute game and equilibrium diagnostics.

A stationary pair is a value vector and a distribution such that one Bellman
backup shifts the values by a single constant (so the induced policy is
time-invariant) and that policy leaves the distribution invariant.  Given
the values, the second condition fixes the distribution: it is the invariant
law of the values' own softmax policy, one linear solve.  So the solver's
only unknowns are the values, gauge-fixed to V(0) = 0 since the pair pins
them only up to an additive constant, and one Newton solve of the first
condition finds the pair.

The diagnostics connect the stationary pair to classical within-day
equilibrium notions: the logit equilibrium (the stationary distribution
without inertia, solved by the same Newton method), the value/travel-cost
gap bracket under flat switching penalties, the population lower bound, and
the flatness of the entropy-augmented cost profile.  Switching invariance,
K_pi mu = mu, is the residual r2 of ``smfe_residuals``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CostModel,
    InvalidInputError,
    SolverFailure,
    _forward_step_core,
    _number,
    _numbers,
    _soft_backup,
    _softmax_policies,
    _xlogx,
    bellman_apply,
    check_stochastic,
    dist_distance,
    forward_step,
    uniform_distribution,
)
from .fictitious import FPConfig, fictitious_play

__all__ = [
    "PAIR_TOL",
    "SUE_TOL",
    "StationaryPair",
    "solve_smfe",
    "logit_sue",
    "smfe_residuals",
    "value_gap_check",
    "omega_bound",
    "omega_bound_check",
    "augmented_cost_profile",
]

logger = logging.getLogger(__name__)

# Certificate thresholds: r1, r2 of a pair; d_f(mu, softmax(-theta f(mu))) of logit_sue.
PAIR_TOL = 1e-8
SUE_TOL = 1e-10


@dataclass
class StationaryPair:
    """Stationary value/distribution pair with its per-day cost constant.

    ``pi_bar``, V's softmax policy, is kept for callers that build pairs;
    the certificate ``smfe_residuals`` does not read it.
    """

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
        _, u, z = _soft_backup(cm.kernel, v, cm.theta)
        pi = _softmax_policies(cm.kernel, u, z)
        c = f + (pi * d).sum(axis=1) + _xlogx(pi).sum(axis=1) / cm.theta
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
    soft, u, z = _soft_backup(cm.kernel, v, cm.theta)
    return v, lam, _softmax_policies(cm.kernel, u, z), f + soft


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


def _softmax(a):
    # exp(a - max a) / sum over a vector: no exponent above 0, and the
    # largest term gives the sum at least 1.
    e = np.exp(a - a.max())
    return e / e.sum()


def _newton(fun, x, what):
    """A root of ``fun`` by Newton's method from ``x``: (state, stop reason).

    ``fun(x)`` returns (F, state), the state holding what priced F.  Each
    step solves J dx = -F, with J by forward differences (step sqrt(eps)
    max(1, |x_j|)), then backtracks from t = 1 by halving until
    |F(x + t dx)|^2 <= (1 - 2e-4 t) |F(x)|^2, the Armijo condition on |F|^2
    (Dennis & Schnabel, *Numerical Methods for Unconstrained Optimization
    and Nonlinear Equations*, 1983, sec. 6.3); a non-finite F fails it.
    Stops "converged" at max |F| <= 1e-13, "stalled" when no step down to
    t = 2**-20 passes (rounding, a kink or a local minimum of |F|),
    "singular" when J is, and "capped" after 100 steps.  The state is the
    last accepted point's (the start's if no step passed, never a rejected
    trial's), for the caller to certify by its own residuals.
    """
    fx, state = fun(x)
    steps, evaluations, stop = 0, 1, "capped"
    while steps < 100:
        if np.abs(fx).max(initial=0.0) <= 1e-13:
            stop = "converged"
            break
        jac = np.empty((fx.size, x.size))
        for j in range(x.size):
            xj = x.copy()
            xj[j] += 1.4901161193847656e-08 * max(1.0, abs(x[j]))
            jac[:, j] = (fun(xj)[0] - fx) / (xj[j] - x[j])
        evaluations += x.size
        try:
            dx = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            stop = "singular"
            break
        size = fx @ fx
        for halvings in range(21):
            t = 0.5**halvings
            trial = x + t * dx
            f_trial, trial_state = fun(trial)
            evaluations += 1
            if f_trial @ f_trial <= (1.0 - 2e-4 * t) * size:
                break
        else:
            stop = "stalled"
            break
        x, fx, state = trial, f_trial, trial_state
        steps += 1
        logger.debug("%s: Newton step %d, max|F| %.3e, line-search step %g",
                     what, steps, np.abs(fx).max(initial=0.0), t)
    logger.info("%s: Newton %s after %d steps and %d evaluations, max|F| %.3e",
                what, stop, steps, evaluations, np.abs(fx).max(initial=0.0))
    return state, stop


def _pair_equations(cm):
    """The stationary pair's equations in the relative values alone.

    Unknowns x = V(1..M-1), with V(0) = 0.  At x the equations return (F,
    (V, lambda, pi, mu, G V)): pi is the softmax policy of V, mu = K_pi mu
    its invariant law (``_stationary_distribution``, one linear solve), G V
    the backup of V against mu and lambda = (G V - V)(0).  The rows F are
    (G V - V)(1..M-1) - lambda, so state 0's row holds by the choice of
    lambda and the balance K_pi mu = mu by the choice of mu.  That law is
    unique: every state moves to the state of least V with probability at
    least e^-KERNEL_LIMIT / M > 0, so the chain has one recurrent class.
    """
    def equations(x):
        v = np.concatenate([[0.0], x])
        soft, u, z = _soft_backup(cm.kernel, v, cm.theta)
        pi = _softmax_policies(cm.kernel, u, z)
        mu = _stationary_distribution(pi)
        backed = cm.cost(mu) + soft
        lam = float(backed[0])
        return backed[1:] - v[1:] - lam, (v, lam, pi, mu, backed)

    return equations


def solve_smfe(
    cm: CostModel,
    init=None,
    damping: float | None = None,
    max_outer: int | None = None,
    fallback: bool | None = None,
) -> StationaryPair:
    """Solve for a stationary pair by one Newton solve in the relative values.

    ``_newton`` solves ``_pair_equations`` for V(1..M-1) cold, from V = 0,
    straight at the model's theta; the distribution is no unknown, since
    the invariant law of V's own policy meets the balance condition.  On the
    shipped route configs it takes 6 steps, on the bottleneck ones 19 and
    28.  It stops at max |F| <= 1e-13, or stalls once the line search needs
    a step below 2**-20.  The pair that priced its last accepted point is
    certified by ``_pair_residuals``, the formulas of ``smfe_residuals``,
    and returned when r1 and r2 are both <= ``PAIR_TOL``.  Otherwise
    SolverFailure is raised, its payload the pair (``V_bar``, ``mu_bar``,
    ``lambda_bar``) with that pair's ``r1`` and ``r2``.

    The keywords ``init``, ``damping``, ``max_outer`` and ``fallback`` are
    legacy: given all four, the former damped loop, ``_solve_damped``, runs
    instead, at the fixed step ``damping``; given some but not all,
    InvalidInputError names the missing ones.  They are kept only for the
    benchmark's ``bottleneck-smfe`` workload, which times that loop from a
    warm start, and for ``scripts/fingerprint.py``'s ``cap30`` and
    ``damped`` cases.
    """
    legacy = {"init": init, "damping": damping, "max_outer": max_outer, "fallback": fallback}
    missing = [name for name, value in legacy.items() if value is None]
    if 0 < len(missing) < len(legacy):
        raise InvalidInputError(f"the damped loop needs {', '.join(missing)} as well")
    if not missing:
        return _solve_damped(cm, **legacy)
    (v, lam, pi, mu, backed), stop = _newton(_pair_equations(cm), np.zeros(cm.M - 1),
                                             "stationary pair")
    r1, r2 = _pair_residuals(backed, v, lam, _forward_step_core(pi, mu), mu)
    if r1 <= PAIR_TOL and r2 <= PAIR_TOL:
        return StationaryPair(V_bar=v, mu_bar=mu, lambda_bar=lam, pi_bar=pi)
    raise SolverFailure(
        f"stationary Newton solve {stop} at residuals r1={r1:.3e}, r2={r2:.3e}",
        residual=max(r1, r2),
        payload=_pair_record(v, mu, lam, r1, r2),
    )


def _solve_damped(cm: CostModel, *, init, damping: float, max_outer: int,
                  fallback: bool) -> StationaryPair:
    """The former stationary solver, kept for the benchmark and the fingerprint alone.

    Reached only through ``solve_smfe``'s four legacy keywords.  Each outer
    round solves the average-cost values exactly at the current
    distribution, then moves the distribution toward the invariant law nu
    of the induced policy at the fixed step ``damping``:
    mu <- (1 - damping) mu + damping nu.  A round prices its pair once, r1
    from the backup G V that ends the value solve and r2 from one forward
    step of its policy.  With ``fallback``, the first round from round
    min(5000, max_outer // 2) on whose r2 exceeds 1e-3 re-seeds, once, from
    the middle day of one long-horizon fictitious play run.  Raises
    SolverFailure if the cap is exhausted, its payload the last pair priced
    with that pair's r1 and r2; InvalidInputError for ``damping`` outside
    (0, 1] or ``max_outer`` below 1.  A start near a solution needs a small
    step: at 0.5, 1e-8 of mass moved off route_e1t1's ``mu_bar`` takes r2
    from 2.1e-7 to 0.42 in 5 rounds.  No caller converges, and no test
    reaches the converged return or the re-seed (ROADMAP item 16).
    """
    if not 0.0 < damping <= 1.0:
        raise InvalidInputError("damping must be in (0, 1]")
    if max_outer < 1:
        raise InvalidInputError("max_outer must be at least 1")
    mu = check_stochastic(init, "initial distribution", (cm.M,))
    v = np.zeros(cm.M)
    reseed_at = min(5_000, max_outer // 2) if fallback else math.inf
    for outer in range(max_outer):
        v, lam, pi, backed = _relative_values(cm, mu, v)
        r1, r2 = _pair_residuals(backed, v, lam, _forward_step_core(pi, mu), mu)
        if r1 <= PAIR_TOL and r2 <= PAIR_TOL:
            logger.info("stationary solve converged after %d rounds", outer + 1)
            return StationaryPair(V_bar=v, mu_bar=mu, lambda_bar=lam, pi_bar=pi)
        if outer + 1 == max_outer:
            break  # the failure reports the pair that r1 and r2 measure
        if outer + 1 >= reseed_at and r2 > 1e-3:
            fp = FPConfig(uniform_distribution(cm.M), horizon=200, max_iters=500,
                          exploitability_tol=1e-9)
            mu = fictitious_play(cm, fp).avg_mf[100]
            v = np.zeros(cm.M)
            reseed_at = math.inf
            logger.info("stationary solve re-seeded from long-horizon run")
            continue
        mu = (1.0 - damping) * mu + damping * _stationary_distribution(pi)
        mu = mu / math.fsum(mu)
    raise SolverFailure(
        f"stationary solve stopped at residuals r1={r1:.3e}, r2={r2:.3e}",
        residual=max(r1, r2),
        payload=_pair_record(v, mu, lam, r1, r2),
    )


def logit_sue(cm: CostModel) -> np.ndarray:
    """Logit equilibrium mu = softmax(-theta f(mu)) of the one-day choice.

    The stationary distribution of a model without inertia.  One Newton
    solve (``_newton``, as for the stationary pair) of the logit form
    z + theta (f(mu(z))[1:] - f(mu(z))[0]) = 0, mu(z) = softmax([0, z]),
    from the uniform distribution z = 0.  The inertia matrix is ignored.
    Certified by d_f(mu, softmax(-theta f)) <= ``SUE_TOL`` at the mu and f
    of Newton's last accepted point; raises SolverFailure with that
    residual otherwise.
    """
    def logit_form(z):
        mu = _softmax(np.concatenate([[0.0], z]))
        f = cm.cost(mu)
        return z + cm.theta * (f[1:] - f[0]), (mu, f)

    (mu, f), stop = _newton(logit_form, np.zeros(cm.M - 1), "logit SUE")
    residual = dist_distance(mu, _softmax(-cm.theta * f))
    if not residual <= SUE_TOL:
        raise SolverFailure(f"logit SUE Newton solve {stop} at residual {residual:.3e} "
                            f"above SUE_TOL={SUE_TOL:g}", residual=residual)
    return check_stochastic(mu, "SUE distribution", (cm.M,))


def smfe_residuals(p: StationaryPair, cm: CostModel):
    """The certificate of a stationary pair, read from (V, mu, lambda) alone.

    r1 = max_s |G V(s) - V(s) - lambda| and r2 = d_f(K_pi mu, mu), with G V
    and pi from one ``bellman_apply`` of V against mu: pi is V's own softmax
    policy, as in both solvers, and ``p.pi_bar`` is not read.  A malformed
    ``V_bar``, ``mu_bar`` or ``lambda_bar`` raises InvalidInputError naming it.
    """
    v, mu, lam = _checked_pair(p, cm)
    backed, pi = bellman_apply(v, mu, cm)
    return _pair_residuals(backed, v, lam, forward_step(pi, mu), mu)


def _checked_pair(p: StationaryPair, cm: CostModel):
    """(V, mu, lambda) of ``p`` as numbers of ``cm``'s shape; InvalidInputError names the field."""
    v = _numbers(p.V_bar, "V_bar")
    if v.shape != (cm.M,):
        raise InvalidInputError(f"V_bar must have shape ({cm.M},), got {v.shape}")
    return v, check_stochastic(p.mu_bar, "mu_bar", (cm.M,)), _number(p.lambda_bar, "lambda_bar")


def _pair_residuals(backed, v, lam, pushed, mu):
    """(r1, r2) of a pair from G V = ``backed`` and K_pi mu = ``pushed``; unchecked."""
    return float(np.max(np.abs(backed - v - lam))), float(np.max(np.abs(pushed - mu)))


def _pair_record(v, mu, lam, r1, r2) -> dict:
    """A pair and its r1, r2: the stationary solvers' failure payload and the CLI's record."""
    return {"V_bar": v, "mu_bar": mu, "lambda_bar": lam, "r1": r1, "r2": r2}


def _indicator_epsilon(cm: CostModel) -> float | None:
    """The epsilon of indicator inertia d = epsilon 1{s != s'} (0 without inertia), else None."""
    eps = cm.inertia_matrix.max()
    return float(eps) if np.array_equal(cm.inertia_matrix, eps * (1.0 - np.eye(cm.M))) else None


def value_gap_check(p: StationaryPair, cm: CostModel) -> bool:
    """Bracket of value gaps by travel-cost gaps under flat switching penalty.

    For every ordered pair with V(x) > V(y):
    V(x)-V(y) > f(x,mu)-f(y,mu) > V(x)-V(y) - epsilon, within a slack of
    1e-9.  Only defined for indicator inertia d = epsilon * 1{s != s'}, no
    inertia being epsilon = 0; raises InvalidInputError for any other, and
    for a malformed pair field as ``smfe_residuals`` does.
    """
    slack = 1e-9
    eps = _indicator_epsilon(cm)
    if eps is None:
        raise InvalidInputError("inertia is not of indicator form")
    v, mu, _ = _checked_pair(p, cm)
    f = cm.cost(mu)
    v_gap = v[:, None] - v[None, :]  # [x, y] = V(x) - V(y)
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

    ``mu`` is a distribution or a (..., M) stack of them, of the shape of
    the costs ``v_or_f``.  A flat profile (max - min along the last axis
    below tolerance) certifies the logit equilibrium condition for its cost
    vector.  Raises InvalidInputError for a ``theta`` that is not positive.
    """
    theta = _number(theta, "theta")
    if theta <= 0.0:
        raise InvalidInputError("theta must be positive")
    v_or_f = np.atleast_1d(_numbers(v_or_f, "cost vector"))
    mu = check_stochastic(mu, "distribution", v_or_f.shape)
    if np.any(mu <= 0.0):
        raise InvalidInputError("profile needs a strictly positive distribution")
    return v_or_f + np.log(mu) / theta

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
    """A root of ``fun`` by Newton's method from ``x``: (x, stop reason).

    Each step solves J dx = -F, with the Jacobian J by forward differences
    (step sqrt(eps) max(1, |x_j|)), then backtracks from t = 1 by halving
    until |F(x + t dx)|^2 <= (1 - 2e-4 t) |F(x)|^2, the Armijo condition on
    |F|^2 (Dennis & Schnabel, *Numerical Methods for Unconstrained
    Optimization and Nonlinear Equations*, 1983, sec. 6.3); a non-finite F
    fails it.  Stops "converged" at max |F| <= 1e-13, "stalled" when no step
    down to t = 2**-20 passes (rounding, a kink or a local minimum of |F|),
    "singular" when J is, and "capped" after 100 steps.  The caller
    certifies x by its own residuals.
    """
    fx = fun(x)
    steps, evaluations, stop = 0, 1, "capped"
    while steps < 100:
        if np.abs(fx).max(initial=0.0) <= 1e-13:
            stop = "converged"
            break
        jac = np.empty((fx.size, x.size))
        for j in range(x.size):
            xj = x.copy()
            xj[j] += 1.4901161193847656e-08 * max(1.0, abs(x[j]))
            jac[:, j] = (fun(xj) - fx) / (xj[j] - x[j])
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
            f_trial = fun(trial)
            evaluations += 1
            if f_trial @ f_trial <= (1.0 - 2e-4 * t) * size:
                break
        else:
            stop = "stalled"
            break
        x, fx = trial, f_trial
        steps += 1
        logger.debug("%s: Newton step %d, max|F| %.3e, line-search step %g",
                     what, steps, np.abs(fx).max(initial=0.0), t)
    logger.info("%s: Newton %s after %d steps and %d evaluations, max|F| %.3e",
                what, stop, steps, evaluations, np.abs(fx).max(initial=0.0))
    return x, stop


def _pair_equations(cm):
    """The stationary pair's equations in the relative values alone, and the pair they build.

    Unknowns x = V(1..M-1), with V(0) = 0.  ``pair(x)`` gives (V, lambda,
    pi, mu, G V): pi is the softmax policy of V, mu = K_pi mu its invariant
    law (``_stationary_distribution``, one linear solve), G V the backup of V
    against mu and lambda = (G V - V)(0).  The rows are (G V - V)(1..M-1)
    - lambda, so state 0's row holds by the choice of lambda and the balance
    K_pi mu = mu by the choice of mu.  That law is unique: every state moves
    to the state of least V with probability at least e^-KERNEL_LIMIT / M > 0,
    so the chain has one recurrent class.
    """
    def pair(x):
        v = np.concatenate([[0.0], x])
        soft, u, z = _soft_backup(cm.kernel, v, cm.theta)
        pi = _softmax_policies(cm.kernel, u, z)
        mu = _stationary_distribution(pi)
        backed = cm.cost(mu) + soft
        return v, float(backed[0]), pi, mu, backed

    def equations(x):
        v, lam, _, _, backed = pair(x)
        return backed[1:] - v[1:] - lam

    return equations, pair


def solve_smfe(
    cm: CostModel,
    init=None,
    tol: float = 1e-8,
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
    a step below 2**-20.  The pair it ends at is priced by
    ``_pair_residuals``, the formulas of ``smfe_residuals``, and returned
    when r1 and r2 are both <= ``tol``.  Otherwise SolverFailure is raised,
    its payload the pair (``V_bar``, ``mu_bar``, ``lambda_bar``) with that
    pair's ``r1`` and ``r2``.  Raises InvalidInputError for a ``tol`` that
    is not positive.

    The keywords ``init``, ``damping``, ``max_outer`` and ``fallback`` are
    legacy: given all four, the former damped loop, ``_solve_damped``, runs
    instead, at the fixed step ``damping``; given some but not all,
    InvalidInputError names the missing ones.  They are kept only for the
    benchmark's ``bottleneck-smfe`` workload, which times that loop from a
    warm start, and for ``scripts/fingerprint.py``'s ``cap30`` and
    ``damped`` cases.
    """
    tol = _number(tol, "tol")
    if tol <= 0.0:
        raise InvalidInputError("tol must be positive")
    legacy = {"init": init, "damping": damping, "max_outer": max_outer, "fallback": fallback}
    missing = [name for name, value in legacy.items() if value is None]
    if 0 < len(missing) < len(legacy):
        raise InvalidInputError(f"the damped loop needs {', '.join(missing)} as well")
    if not missing:
        return _solve_damped(cm, tol=tol, **legacy)
    equations, pair = _pair_equations(cm)
    x, stop = _newton(equations, np.zeros(cm.M - 1), "stationary pair")
    v, lam, pi, mu, backed = pair(x)
    r1, r2 = _pair_residuals(backed, v, lam, _forward_step_core(pi, mu), mu)
    if r1 <= tol and r2 <= tol:
        return StationaryPair(V_bar=v, mu_bar=mu, lambda_bar=lam, pi_bar=pi)
    raise SolverFailure(
        f"stationary Newton solve {stop} at residuals r1={r1:.3e}, r2={r2:.3e}",
        residual=max(r1, r2),
        payload={"V_bar": v, "mu_bar": mu, "lambda_bar": lam, "r1": r1, "r2": r2},
    )


def _solve_damped(cm: CostModel, *, init, tol: float, damping: float, max_outer: int,
                  fallback: bool) -> StationaryPair:
    """The former stationary solver, kept for the benchmark and the fingerprint alone.

    Reached only through ``solve_smfe``'s four legacy keywords, which checks
    ``tol``.  Each outer round solves the average-cost values exactly at the
    current distribution, then moves the distribution toward the invariant
    law nu of the induced policy at the fixed step ``damping``: mu <- (1 -
    damping) mu + damping nu.  A round prices its pair once, r1 from the
    backup G V that ends the value solve and r2 from one forward step of its
    policy.  With ``fallback``, the first round from round min(5000,
    max_outer // 2) on whose r2 exceeds 1e-3 re-seeds, once, from the middle
    day of one long-horizon fictitious play run.  Raises SolverFailure if
    the cap is exhausted, its payload the last pair priced with that pair's
    r1 and r2; InvalidInputError for ``damping`` outside (0, 1] or
    ``max_outer`` below 1.  A start near a solution needs a small step: at
    0.5, route_e1t1's own ``mu_bar`` (``tol=1e-10``) goes from r2 = 9.9e-9
    to 0.92 in 20 rounds.
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
        if r1 <= tol and r2 <= tol:
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
        payload={"V_bar": v, "mu_bar": mu, "lambda_bar": lam, "r1": r1, "r2": r2},
    )


def logit_sue(cm: CostModel, tol: float = 1e-10) -> np.ndarray:
    """Logit equilibrium mu = softmax(-theta f(mu)) of the one-day choice.

    The stationary distribution of a model without inertia.  One Newton
    solve (``_newton``, as for the stationary pair) of the logit form
    z + theta (f(mu(z))[1:] - f(mu(z))[0]) = 0, mu(z) = softmax([0, z]),
    from the uniform distribution z = 0.  The inertia matrix is ignored.
    Certified by the residual d_f(mu, softmax(-theta f(mu))) <= ``tol``;
    raises SolverFailure with that residual otherwise, and InvalidInputError
    for a ``tol`` that is not positive.
    """
    tol = _number(tol, "tol")
    if tol <= 0.0:
        raise InvalidInputError("tol must be positive")

    def to_mu(z):
        return _softmax(np.concatenate([[0.0], z]))

    def logit_form(z):
        f = cm.cost(to_mu(z))
        return z + cm.theta * (f[1:] - f[0])

    z, stop = _newton(logit_form, np.zeros(cm.M - 1), "logit SUE")
    mu = to_mu(z)
    residual = dist_distance(mu, _softmax(-cm.theta * cm.cost(mu)))
    if not residual <= tol:
        raise SolverFailure(
            f"logit SUE stopped at residual {residual:.3e} above tol={tol:g} "
            f"(Newton {stop})",
            residual=residual,
        )
    return check_stochastic(mu, "SUE distribution", (cm.M,))


def smfe_residuals(p: StationaryPair, cm: CostModel):
    """The two defining residuals of a stationary pair.

    r1 = max_s |G V(s) - V(s) - lambda|, r2 = d_f(K_pi mu, mu).
    """
    backed, _ = bellman_apply(p.V_bar, p.mu_bar, cm)
    mu = np.asarray(p.mu_bar, dtype=float)  # validated by bellman_apply
    return _pair_residuals(backed, p.V_bar, p.lambda_bar, forward_step(p.pi_bar, mu), mu)


def _pair_residuals(backed, v, lam, pushed, mu):
    """(r1, r2) of a pair from G V = ``backed`` and K_pi mu = ``pushed``; unchecked."""
    return float(np.max(np.abs(backed - v - lam))), float(np.max(np.abs(pushed - mu)))


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


def value_gap_check(p: StationaryPair, cm: CostModel) -> bool:
    """Bracket of value gaps by travel-cost gaps under flat switching penalty.

    For every ordered pair with V(x) > V(y):
    V(x)-V(y) > f(x,mu)-f(y,mu) > V(x)-V(y) - epsilon, within a slack of
    1e-9.  Only defined for indicator inertia d = epsilon * 1{s != s'}.
    """
    slack = 1e-9
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
    equilibrium condition for the given cost vector.  Raises
    InvalidInputError for a ``theta`` that is not a positive number.
    """
    theta = _number(theta, "theta")
    if theta <= 0.0:
        raise InvalidInputError("theta must be positive")
    mu = check_stochastic(mu, "distribution", (None,))
    v_or_f = _numbers(v_or_f, "cost vector")
    if v_or_f.shape != mu.shape:
        raise InvalidInputError("cost vector and distribution shapes differ")
    if np.any(mu <= 0.0):
        raise InvalidInputError("profile needs a strictly positive distribution")
    return v_or_f + np.log(mu) / theta

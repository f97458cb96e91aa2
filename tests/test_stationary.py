from __future__ import annotations

import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import softmax

from mfgcommute import stationary
from mfgcommute.bottleneck import bottleneck_cost_model, load_spec
from mfgcommute.core import (
    DIST_TOL,
    CostModel,
    InvalidInputError,
    SolverFailure,
    _soft_backup,
    _softmax_policies,
    backward_induction,
    bellman_apply,
    dist_distance,
    forward_propagate,
    forward_step,
    uniform_distribution,
)
from mfgcommute.fictitious import FPConfig, exploitability, fictitious_play
from mfgcommute.route import RouteInertiaSpec, path_costs, route_cost_model
from mfgcommute.stationary import (
    StationaryPair,
    augmented_cost_profile,
    logit_sue,
    omega_bound,
    omega_bound_check,
    smfe_residuals,
    solve_smfe,
    value_gap_check,
)
from conftest import make_table_cost_model, shipped_model
from oracles import brute_value_gap_check, hybr, hybr_pair

# Frozen diagnostics: residual after shifting 0.05 of mass between the first
# two states of the converged epsilon=theta=1 stationary distribution, and
# the value/travel-cost gaps of a two-state model with costs (0, 0.5),
# switching penalty 0.3 and noise scale 2.
PERTURBED_R2 = 0.04160414142070061
TWO_STATE_MU = [0.8442789490909176, 0.15572105090908242]
TWO_STATE_V_GAP = 0.6726041887510579
# Certificate of the exactly solved equilibria below, and the resolution at
# which the turnpike test compares their distances.
EXACT_TOL = 1e-12


@pytest.fixture(scope="module")
def pair_e0t1(route_cm_e0t1):
    return solve_smfe(route_cm_e0t1)


@pytest.fixture(scope="module")
def pair_e1t1(route_cm_e1t1):
    return solve_smfe(route_cm_e1t1)


@pytest.fixture(scope="module")
def fp_e1t1(route_cm_e1t1, grid9_mu0):
    return fictitious_play(
        route_cm_e1t1,
        FPConfig(mu0=grid9_mu0, horizon=30, max_iters=2000,
                 exploitability_tol=1e-9),
    )


@pytest.fixture(scope="module")
def exact_e1t1(route_cm_e1t1, grid9_mu0, fp_e1t1):
    """The route_e1t1 finite-horizon equilibrium, solved to rounding.

    Solves mu = Phi(mu), where Phi is backward induction followed by forward
    propagation from mu0, with scipy's hybr started from the fictitious-play
    average.  Day 0 is fixed to mu0; days 1..N-1 are row logits with the
    first column pinned to 0, so every iterate is a valid mean field.
    Raises unless the fixed-point residual and the exploitability certify
    the result.
    """
    cm, mu0 = route_cm_e1t1, grid9_mu0

    def mean_field(z):
        logits = np.hstack([np.zeros((len(z), 1)), z])
        return np.vstack([mu0, softmax(logits, axis=1)])

    def phi(mu):
        _, pi = backward_induction(mu, cm)
        return forward_propagate(pi, mu0), pi

    def residual(x):
        mu = mean_field(x.reshape(-1, cm.M - 1))
        return (phi(mu)[0] - mu)[1:, 1:].ravel()

    start = fp_e1t1.avg_mf[1:]
    z0 = np.log(start[:, 1:]) - np.log(start[:, :1])
    sol = hybr(residual, z0.ravel())
    mu = mean_field(sol.x.reshape(z0.shape))
    flow, pi = phi(mu)
    gap = dist_distance(flow, mu)
    if not gap <= EXACT_TOL:
        raise RuntimeError(f"exact solve failed ({sol.message}): residual {gap:.2e}")
    expl = exploitability(pi, mu, cm, mu0)
    if not expl <= 1e-10:
        raise RuntimeError(f"exact solve not an equilibrium: exploitability {expl:.2e}")
    return mu


@pytest.fixture(scope="module")
def exact_pair_e1t1(route_cm_e1t1):
    """The route_e1t1 stationary pair, solved to rounding by ``oracles.hybr_pair``."""
    return hybr_pair(route_cm_e1t1)


@pytest.fixture(scope="module")
def bottleneck_cm_e1t20():
    return shipped_model("bottleneck_e1t20")[1:3]


def two_state_model(f0=0.0, f1=0.5, eps=0.3, theta=2.0):
    f = np.array([f0, f1])
    return CostModel(
        cost=lambda mu: np.zeros_like(mu) + f,
        inertia_matrix=eps * (1.0 - np.eye(2)),
        theta=theta,
        bound_C=max(f0, f1, eps, 1.0),
    )


def test_solve_residuals_within_tolerance(pair_e0t1, pair_e1t1,
                                          route_cm_e0t1, route_cm_e1t1):
    for pair, cm in ((pair_e0t1, route_cm_e0t1), (pair_e1t1, route_cm_e1t1)):
        r1, r2 = smfe_residuals(pair, cm)
        assert r1 <= 1e-8 and r2 <= 1e-8
        v, pi = bellman_apply(pair.V_bar, pair.mu_bar, cm)
        assert np.array_equal(pi, pair.pi_bar)


def test_no_inertia_recovers_logit_sue(pair_e0t1, route_cm_e0t1, grid9):
    sue = logit_sue(route_cm_e0t1)
    assert dist_distance(pair_e0t1.mu_bar, sue) <= 1e-7
    f = path_costs(pair_e0t1.mu_bar, grid9)
    gauge_v = pair_e0t1.V_bar - pair_e0t1.V_bar[0]
    gauge_f = f - f[0]
    assert np.max(np.abs(gauge_v - gauge_f)) <= 1e-9


def test_symmetric_two_state_splits_evenly():
    cm = two_state_model(f0=0.7, f1=0.7, eps=0.4, theta=1.5)
    pair = solve_smfe(cm)
    assert np.allclose(pair.mu_bar, [0.5, 0.5], atol=1e-9)


def test_perturbed_distribution_residual_regression(pair_e1t1, route_cm_e1t1):
    mu = pair_e1t1.mu_bar.copy()
    mu[0] += 0.05
    mu[1] -= 0.05
    perturbed = StationaryPair(V_bar=pair_e1t1.V_bar, mu_bar=mu,
                               lambda_bar=pair_e1t1.lambda_bar,
                               pi_bar=pair_e1t1.pi_bar)
    _, r2 = smfe_residuals(perturbed, route_cm_e1t1)
    assert r2 == pytest.approx(PERTURBED_R2, rel=1e-5)
    assert r2 > 0.01


def test_certificate_pushes_mu_through_the_policy_of_v():
    # With a cost that does not depend on mu, the solved V and lambda pass
    # r1 at any mu.  A pair that pairs them with mu = (0.1, 0.9) and claims
    # the identity as its policy is no stationary pair: V's own policy moves
    # that mu by 0.598, and r2 must say so rather than trust pi_bar.
    cm = make_table_cost_model([0.0, 0.5], 0.3 * (1.0 - np.eye(2)), theta=2.0)
    solved = solve_smfe(cm)
    mu = np.array([0.1, 0.9])
    pair = StationaryPair(solved.V_bar, mu, solved.lambda_bar, np.eye(2))
    r1, r2 = smfe_residuals(pair, cm)
    _, pi = bellman_apply(solved.V_bar, mu, cm)
    assert r1 <= 1e-15
    assert r2 == float(np.max(np.abs(forward_step(pi, mu) - mu)))
    assert r2 == pytest.approx(0.5978, abs=1e-4)


@pytest.mark.parametrize("field, value, check", [
    ("lambda_bar", "x", smfe_residuals),
    ("lambda_bar", None, smfe_residuals),
    ("lambda_bar", True, smfe_residuals),
    ("lambda_bar", float("nan"), smfe_residuals),
    ("lambda_bar", np.array([0.0, 1.0]), smfe_residuals),
    ("V_bar", [float("nan"), 0.0], smfe_residuals),
    ("mu_bar", [0.5, 0.5, 0.0], smfe_residuals),
    ("V_bar", np.zeros(3), value_gap_check),
    ("V_bar", ["x", 0.0], value_gap_check),
    ("mu_bar", [0.5, 0.6], value_gap_check),
], ids=["lambda-string", "lambda-none", "lambda-bool", "lambda-nan", "lambda-array",
        "v-nan", "mu-length", "gap-v-length", "gap-v-string", "gap-mu-sum"])
def test_a_malformed_pair_field_is_named(field, value, check):
    # Each field by the package's number rule, not numpy's: a string, None,
    # a bool, a nan or an array of the wrong shape names its field.
    cm = make_table_cost_model([0.0, 0.5], 0.3 * (1.0 - np.eye(2)), theta=2.0)
    pair = replace(solve_smfe(cm), **{field: value})
    with pytest.raises(InvalidInputError, match=field):
        check(pair, cm)


def test_logit_sue_recovers_the_vickrey_departure_pattern():
    # bottleneck_e0t20 (epsilon = 0, theta = 20) solved straight at theta = 20.
    # Departures run at alpha / (alpha - beta) = 2 times capacity before the
    # desired arrival and at alpha / (alpha + gamma) = 0.4 times after it.
    _, cm, spec, _ = shipped_model("bottleneck_e0t20")
    mu = logit_sue(cm)
    assert dist_distance(mu, softmax(-cm.theta * cm.cost(mu))) <= 1e-12
    rates = mu / spec.normalized_capacity
    assert np.max(np.abs(rates[11:17] - 2.0)) <= 5e-4
    assert np.max(np.abs(rates[21:34] - 0.4)) <= 5e-4


def test_softmax_matches_scipy():
    # Inputs spanning +-700, some shifted to where exp alone overflows or
    # underflows in every entry, and -theta f on both bottleneck configs at
    # the uniform split and with all commuters in one slice.
    rng = np.random.default_rng(23)
    inputs = [rng.uniform(-700.0, 700.0, 40), rng.uniform(-700.0, 700.0, 6),
              rng.uniform(300.0, 1000.0, 40), rng.uniform(-1000.0, -800.0, 6),
              np.array([-700.0, 0.0, 700.0]), np.array([700.0, 700.0]), np.zeros(1)]
    for name in ("bottleneck_e1t20", "bottleneck_e0t20"):
        cm = shipped_model(name)[1]
        for mu in (uniform_distribution(cm.M), np.eye(cm.M)[cm.M // 2]):
            inputs.append(-cm.theta * cm.cost(mu))
    for a in inputs:
        ours, ref = stationary._softmax(a), softmax(a)
        assert np.isfinite(ours).all() and abs(ours.sum() - 1.0) <= DIST_TOL
        tol = 4 * np.finfo(float).eps * ref + np.finfo(float).smallest_subnormal
        assert (np.abs(ours - ref) <= tol).all()


def test_sue_pair_construction_is_stationary(route_cm_e0t1, grid9):
    # With no inertia, (V, mu) = (f(., sue), sue) satisfies both conditions.
    mu = logit_sue(route_cm_e0t1)
    v = path_costs(mu, grid9)
    lam = -math.log(float(np.exp(-1.0 * v).sum()))
    _, pi = bellman_apply(v, mu, route_cm_e0t1)
    pair = StationaryPair(V_bar=v, mu_bar=mu, lambda_bar=lam, pi_bar=pi)
    r1, r2 = smfe_residuals(pair, route_cm_e0t1)
    assert r1 <= 1e-7 and r2 <= 1e-7


def test_sdsue_diagnostics(pair_e1t1, route_cm_e1t1):
    # Switching invariance K_pi mu = mu is the stationary residual r2.
    assert smfe_residuals(pair_e1t1, route_cm_e1t1)[1] <= 1e-8
    mu = np.array([0.5, 0.3, 0.2])
    assert dist_distance(forward_step(np.eye(3), mu), mu) == 0.0
    uniform_pol = np.full((3, 3), 1.0 / 3.0)
    assert dist_distance(forward_step(uniform_pol, mu), mu) == pytest.approx(
        dist_distance(mu, uniform_distribution(3)), abs=1e-12
    )


def test_value_gap_collapses_without_penalty(pair_e0t1, route_cm_e0t1, grid9):
    assert value_gap_check(pair_e0t1, route_cm_e0t1)
    f = path_costs(pair_e0t1.mu_bar, grid9)
    gaps = np.subtract.outer(pair_e0t1.V_bar, pair_e0t1.V_bar)
    fgaps = np.subtract.outer(f, f)
    assert np.max(np.abs(gaps - fgaps)) <= 1e-8


def test_value_gap_route_with_inertia(pair_e1t1, route_cm_e1t1):
    assert value_gap_check(pair_e1t1, route_cm_e1t1)


def test_value_gap_two_state_regression():
    cm = two_state_model()
    pair = solve_smfe(cm)
    assert np.allclose(pair.mu_bar, TWO_STATE_MU, atol=1e-7)
    v_gap = float(pair.V_bar[1] - pair.V_bar[0])
    assert v_gap == pytest.approx(TWO_STATE_V_GAP, abs=1e-7)
    # bracketing: V gap > f gap > V gap - eps
    assert v_gap > 0.5 > v_gap - 0.3
    assert value_gap_check(pair, cm)


def test_value_gap_check_matches_the_pairwise_loop():
    # Random value and cost vectors around the bracket's edges, ties included.
    rng = np.random.default_rng(12)
    outcomes = set()
    for _ in range(300):
        m = int(rng.integers(1, 7))
        eps = float(rng.choice([0.0, 0.3, 1.0]))
        f = rng.random(m)
        v = np.round(f + rng.random(m) * eps * rng.choice([0.5, 1.0, 2.0]), 1)
        cm = make_table_cost_model(f, eps * (1.0 - np.eye(m)), theta=1.0)
        pair = StationaryPair(V_bar=v, mu_bar=uniform_distribution(m),
                              lambda_bar=0.0, pi_bar=np.full((m, m), 1.0 / m))
        ok = value_gap_check(pair, cm)
        assert ok == brute_value_gap_check(v, f, eps, 1e-9)
        outcomes.add(ok)
    assert outcomes == {True, False}


def test_value_gap_rejects_non_indicator_inertia(grid9):
    cm = route_cost_model(grid9, 1.0, RouteInertiaSpec("overlap", 1.0))
    pair = StationaryPair(V_bar=np.zeros(6), mu_bar=uniform_distribution(6),
                          lambda_bar=0.0, pi_bar=np.full((6, 6), 1 / 6))
    with pytest.raises(InvalidInputError):
        value_gap_check(pair, cm)


def test_indicator_epsilon_reads_the_inertia_matrix(grid9):
    # Indicator inertia gives its penalty, and no inertia at all gives 0;
    # overlap and shift inertia are not a flat penalty.
    for eps in (1.0, 0.0):
        cm = route_cost_model(grid9, 1.0, RouteInertiaSpec("indicator", eps))
        assert stationary._indicator_epsilon(cm) == eps
    overlap = route_cost_model(grid9, 1.0, RouteInertiaSpec("overlap", 1.0))
    assert stationary._indicator_epsilon(overlap) is None
    assert stationary._indicator_epsilon(shipped_model("bottleneck_e1t20")[1]) is None
    assert stationary._indicator_epsilon(shipped_model("bottleneck_e0t20")[1]) == 0.0


def test_omega_bound_on_solver_output(fp_e1t1, route_cm_e1t1):
    assert omega_bound_check(fp_e1t1.avg_mf, route_cm_e1t1)


def test_omega_bound_day_zero_exempt(route_cm_e1t1):
    mfe = np.tile(uniform_distribution(6), (5, 1))
    mfe[0] = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    assert omega_bound_check(mfe, route_cm_e1t1)


def test_omega_bound_large_theta_trivial(grid9, grid9_mu0):
    cm = route_cost_model(grid9, 20.0, RouteInertiaSpec("indicator", 0.0))
    rep = fictitious_play(cm, FPConfig(mu0=grid9_mu0, horizon=10, max_iters=50,
                                       exploitability_tol=1e-9))
    assert omega_bound_check(rep.avg_mf, cm)


def test_augmented_profile_flat_for_softmax():
    rng = np.random.default_rng(0)
    theta = 1.7
    f = rng.random(6) * 3
    w = np.exp(-theta * f)
    mu = w / w.sum()
    profile = augmented_cost_profile(mu, f, theta)
    assert profile.max() - profile.min() <= 1e-12
    assert np.allclose(profile, -math.log(w.sum()) / theta, atol=1e-12)


def test_augmented_profile_generic_not_flat_and_validation():
    rng = np.random.default_rng(1)
    mu = rng.dirichlet(np.ones(5))
    f = rng.random(5)
    profile = augmented_cost_profile(mu, f, 1.0)
    assert profile.max() - profile.min() > 1e-3
    with pytest.raises(InvalidInputError):
        augmented_cost_profile(np.array([0.0, 1.0]), np.zeros(2), 1.0)
    with pytest.raises(InvalidInputError):
        augmented_cost_profile(uniform_distribution(3), np.zeros(2), 1.0)
    # theta = 0 would divide by zero and a negative theta flip the profile.
    for theta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="theta"):
            augmented_cost_profile(mu, f, theta)
    for theta in ("1", None, True):
        with pytest.raises(InvalidInputError, match="theta must be a number"):
            augmented_cost_profile(mu, f, theta)
    # The cost vector follows the number rule too: no strings, no booleans,
    # and no NaN to spread through the profile.
    for costs in (["1", "2"], [True, False], [1.0, math.nan]):
        with pytest.raises(InvalidInputError, match="cost vector"):
            augmented_cost_profile([0.5, 0.5], costs, 1.0)


def test_augmented_profile_of_a_stack_is_the_per_day_profiles(route_cm_e1t1, fp_e1t1):
    cm, avg_mf = route_cm_e1t1, fp_e1t1.avg_mf
    costs = cm.cost(avg_mf)
    stacked = augmented_cost_profile(avg_mf, costs, cm.theta)
    assert stacked.shape == avg_mf.shape
    for n, (mu, f) in enumerate(zip(avg_mf, costs)):
        assert np.array_equal(stacked[n], augmented_cost_profile(mu, f, cm.theta))


def test_newton_returns_the_state_of_its_last_accepted_point(route_cm_e1t1):
    # A converged pair solve hands back exactly what a fresh evaluation at
    # its own V(1..M-1) gives.
    equations = stationary._pair_equations(route_cm_e1t1)
    state, stop = stationary._newton(equations, np.zeros(route_cm_e1t1.M - 1), "pair")
    assert stop == "converged"
    for got, fresh in zip(state, equations(state[0][1:])[1]):
        assert np.array_equal(got, fresh)
    # F(x) = x^2 + 1 has no root.  From x = 1 the first step lands at x = 0
    # up to the difference step, where F = 1 is least, and every halving of
    # the next step is rejected; from x = 0 no step passes.  Either way the
    # state is the accepted point's, not the last trial's.
    trials = []

    def no_root(x):
        trials.append(x.copy())
        f = x * x + 1.0
        return f, (x.copy(), f)

    for start in (1.0, 0.0):
        trials.clear()
        (x, f), stop = stationary._newton(no_root, np.array([start]), "no root")
        assert stop == "stalled"
        assert abs(x[0]) < 1e-8 and f[0] == 1.0
        assert trials[-1][0] ** 2 + 1.0 > f[0]

    # F = 1 has a zero Jacobian: no step is taken and the start's state
    # comes back.  F = e^x has no root, and each full step x -> x - 1
    # passes the line search, so 100 steps from x = 80 end near x = -20.
    def flat(x):
        return np.ones(1), x.copy()

    x, stop = stationary._newton(flat, np.zeros(1), "flat")
    assert stop == "singular" and x[0] == 0.0

    def exp(x):
        f = np.exp(x)
        return f, (x.copy(), f)

    (x, f), stop = stationary._newton(exp, np.array([80.0]), "exp")
    assert stop == "capped"
    assert abs(x[0] + 20.0) < 1e-3 and f[0] == math.exp(x[0])


def test_unique_stationary_point_across_initializations(route_cm_e1t1):
    # The Newton solve of the pair equations, started from spread value
    # vectors instead of V = 0, certifies the cold start's pair every time.
    cm = route_cm_e1t1
    cold = solve_smfe(cm)
    equations = stationary._pair_equations(cm)
    rng = np.random.default_rng(2)
    for _ in range(10):
        start = 2.0 * rng.normal(size=cm.M - 1)
        (v, lam, pi, mu, _), stop = stationary._newton(equations, start, "spread start")
        r1, r2 = smfe_residuals(StationaryPair(v, mu, lam, pi), cm)
        assert stop == "converged" and r1 <= 1e-8 and r2 <= 1e-8
        assert dist_distance(mu, cold.mu_bar) <= 1e-12
        assert np.max(np.abs(v - cold.V_bar)) <= 1e-12


def test_stationary_matches_day_to_day_tail(pair_e1t1, fp_e1t1):
    assert dist_distance(fp_e1t1.avg_mf[28], pair_e1t1.mu_bar) <= 1e-2
    assert dist_distance(fp_e1t1.avg_mf[29], pair_e1t1.mu_bar) <= 1e-2


def test_mfe_tail_approach_is_monotone(exact_pair_e1t1, exact_e1t1):
    # Turnpike check.  A finite-horizon equilibrium is close to the
    # stationary pair only away from both ends of the horizon: the zero
    # terminal value shortens the lookahead of the last policies, so the
    # distance to the stationary point falls from day 0 and rises again into
    # the last day (in continuous time this is the exponential estimate
    # C (exp(-w t) + exp(-w (T - t))) of Cardaliaguet, Lasry, Lions and
    # Porretta, "Long time average of mean field games").  On route_e1t1 it
    # shrinks by a factor 0.175 a day from 1.3e-5 on day 5 to 1e-13 on day 16,
    # then grows by about 5.7 a day to 2.0e-3 on day 29.  Every day from 5 to
    # the last must move in its arm's direction at the fixtures' resolution,
    # and the approach must gain a factor 10.  An unconverged
    # fictitious-play average (3.2e-3 from the equilibrium) fails at day 5.
    d = [dist_distance(day, exact_pair_e1t1.mu_bar) for day in exact_e1t1]
    last = len(d) - 1
    turn = min(range(5, last + 1), key=d.__getitem__)
    approach = [(n, d[n], d[n + 1]) for n in range(5, turn)
                if d[n + 1] > d[n] + EXACT_TOL]
    departure = [(n, d[n], d[n + 1]) for n in range(turn, last)
                 if d[n + 1] < d[n] - EXACT_TOL]
    assert not approach, f"distance to stationarity increased at {approach}"
    assert not departure, f"terminal layer not monotone at {departure}"
    assert d[turn] <= d[5] / 10.0, (
        f"closest day {turn}: d={d[turn]:.3e} vs d5/10={d[5] / 10:.3e}")


def test_both_newton_solves_fail_with_their_residuals_without_a_fixed_point():
    # Two options, no inertia, theta = 5: the option that holds more than
    # half the commuters costs 1, the other 0.  The logit response to either
    # cost vector puts 0.993 on the cheap option, which then holds the
    # majority, so mu = softmax(-theta f(mu)) has no solution, and without
    # inertia neither has the stationary pair.  Each solve stalls and raises
    # with its residual; the pair solve also reports the pair it stalled at.
    cm = CostModel(cost=lambda mu: np.where(mu[..., :1] > 0.5, [1.0, 0.0], [0.0, 1.0]),
                   inertia_matrix=np.zeros((2, 2)), theta=5.0, bound_C=1.0)
    with pytest.raises(SolverFailure, match="stalled") as exc:
        logit_sue(cm)
    assert exc.value.residual == pytest.approx(0.4933, abs=1e-4)
    assert exc.value.payload is None
    with pytest.raises(SolverFailure, match="stalled") as exc:
        solve_smfe(cm)
    p = exc.value.payload
    assert list(p) == ["V_bar", "mu_bar", "lambda_bar", "r1", "r2"]
    assert (p["r1"], p["r2"]) == (1.0, 0.0) and exc.value.residual == 1.0


def test_solver_failure_payload_is_the_pair_its_residuals_measure(
        route_cm_e1t1, bottleneck_cm_e1t20, grid9):
    # A capped solve reports the pair it priced last, not that pair's
    # distribution moved one more damped step; the Newton solve, which
    # stalls on grid9 with indicator inertia at epsilon = 1, theta = 20,
    # reports the pair it stalled at.
    bottleneck = bottleneck_cm_e1t20[0]
    stiff = route_cost_model(grid9, 20.0, RouteInertiaSpec("indicator", 1.0))
    for cm, damped in ((route_cm_e1t1, True), (bottleneck, True), (stiff, False)):
        knobs = {"init": uniform_distribution(cm.M), "damping": 0.5, "max_outer": 30,
                 "fallback": False} if damped else {}
        with pytest.raises(SolverFailure) as exc:
            solve_smfe(cm, **knobs)
        p = exc.value.payload
        assert list(p) == ["V_bar", "mu_bar", "lambda_bar", "r1", "r2"]
        pi = bellman_apply(p["V_bar"], p["mu_bar"], cm)[1]
        pair = StationaryPair(p["V_bar"], p["mu_bar"], p["lambda_bar"], pi)
        assert smfe_residuals(pair, cm) == (p["r1"], p["r2"])


def test_solve_smfe_rejects_an_init_of_the_wrong_length():
    with pytest.raises(InvalidInputError):
        solve_smfe(two_state_model(), init=uniform_distribution(3), damping=0.5,
                   max_outer=100_000, fallback=True)


def test_solve_smfe_needs_all_four_legacy_keywords(route_cm_e1t1):
    # Some but not all of the damped loop's keywords name the missing ones
    # before any round runs.
    given = {"init": uniform_distribution(6), "damping": 0.5, "max_outer": 5,
             "fallback": False}
    for drop in (("init",), ("damping", "fallback"), ("init", "damping", "max_outer")):
        with pytest.raises(InvalidInputError) as exc:
            solve_smfe(route_cm_e1t1, **{k: v for k, v in given.items() if k not in drop})
        assert all(name in str(exc.value) for name in drop)
        assert not any(name in str(exc.value) for name in given if name not in drop)


def test_solve_smfe_rejects_knobs_it_cannot_use(route_cm_e1t1):
    # A step outside (0, 1] leaves the simplex or never moves mu, and no
    # round leaves nothing to report.
    for knobs in ({"damping": -0.5}, {"damping": 0.0}, {"max_outer": 0}):
        with pytest.raises(InvalidInputError):
            solve_smfe(route_cm_e1t1, **{"init": uniform_distribution(6), "damping": 0.5,
                                         "max_outer": 5, "fallback": False, **knobs})


@pytest.mark.parametrize("name", ["route_e1t1", "route_e0t1", "route_e0t20"])
def test_newton_pair_on_the_route_configs(name):
    cm = shipped_model(name)[1]
    pair = solve_smfe(cm)
    r1, r2 = smfe_residuals(pair, cm)
    assert r1 <= 1e-8 and r2 <= 1e-8
    assert pair.V_bar[0] == 0.0
    assert dist_distance(pair.mu_bar, hybr_pair(cm).mu_bar) <= 1e-12


def test_newton_pair_is_the_logit_point_that_repels_fictitious_play():
    # bottleneck_e0t20 has no inertia, so its stationary law is the logit
    # equilibrium; criterion 9b's FP run moves away from it.
    cm = shipped_model("bottleneck_e0t20")[1]
    pair = solve_smfe(cm)
    r1, r2 = smfe_residuals(pair, cm)
    assert r1 <= 1e-8 and r2 <= 1e-8
    assert dist_distance(pair.mu_bar, logit_sue(cm)) <= 1e-10
    assert dist_distance(pair.mu_bar, hybr_pair(cm).mu_bar) <= 1e-12


SHIPPED = ["route_e1t1", "route_e0t1", "route_e0t20", "bottleneck_e1t20", "bottleneck_e0t20"]


def _model(name, repo_root, grid9):
    # A shipped config by name, or one of three models off them: two that a
    # Newton solve with mu's logits as unknowns misses (it stalls on
    # bottleneck_e0t5 and hits its step cap on grid9_overlap_e1t20), and
    # grid9_indicator_e1t20, on which solve_smfe stalls.
    if name == "bottleneck_e0t5":
        spec = load_spec(repo_root / "scenarios" / "bottleneck_guo2018.json")
        return bottleneck_cost_model(replace(spec, epsilon=0.0), 5.0)
    if name == "grid9_overlap_e1t20":
        return route_cost_model(grid9, 20.0, RouteInertiaSpec("overlap", 1.0))
    if name == "grid9_indicator_e1t20":
        return route_cost_model(grid9, 20.0, RouteInertiaSpec("indicator", 1.0))
    return shipped_model(name)[1]


@pytest.mark.parametrize("name", SHIPPED + ["bottleneck_e0t5", "grid9_overlap_e1t20"])
def test_newton_pair_is_certified(repo_root, grid9, name):
    cm = _model(name, repo_root, grid9)
    pair = solve_smfe(cm)
    r1, r2 = smfe_residuals(pair, cm)
    assert r1 <= 1e-8 and r2 <= 1e-8
    assert pair.V_bar[0] == 0.0


@pytest.mark.parametrize("name", SHIPPED + ["grid9_indicator_e1t20"])
def test_residuals_do_not_read_pi_bar(repo_root, grid9, name):
    # The certificate is a function of (V, mu, lambda): swapping the stored
    # policy for the uniform one leaves it bit for bit, on the certified
    # pairs and on the pair at which the solve stalls.
    cm = _model(name, repo_root, grid9)
    try:
        pair = solve_smfe(cm)
    except SolverFailure as exc:
        p = exc.payload
        pair = StationaryPair(p["V_bar"], p["mu_bar"], p["lambda_bar"],
                              bellman_apply(p["V_bar"], p["mu_bar"], cm)[1])
    uniform = np.full((cm.M, cm.M), 1.0 / cm.M)
    assert smfe_residuals(replace(pair, pi_bar=uniform), cm) == smfe_residuals(pair, cm)


def test_newton_pair_on_bottleneck_e1t20_matches_a_continuation(bottleneck_cm_e1t20):
    # An independent path to the same pair: ``oracles.hybr_pair`` scales the
    # inertia up from the logit pair, each step solved by scipy's hybr.
    cm = bottleneck_cm_e1t20[0]
    reference = hybr_pair(cm)
    assert max(smfe_residuals(reference, cm)) <= EXACT_TOL
    pair = solve_smfe(cm)
    assert dist_distance(pair.mu_bar, reference.mu_bar) <= 1e-12
    assert dist_distance(pair.V_bar, reference.V_bar) <= 1e-10
    assert abs(pair.lambda_bar - reference.lambda_bar) <= 1e-10


def test_newton_solve_logs_each_step(route_cm_e1t1, caplog):
    with caplog.at_level(logging.DEBUG, logger="mfgcommute.stationary"):
        solve_smfe(route_cm_e1t1)
    steps = [r for r in caplog.records if r.levelno == logging.DEBUG]
    done = [r for r in caplog.records if r.levelno == logging.INFO]
    assert steps and all("Newton step" in r.getMessage() for r in steps)
    assert len(done) == 1
    assert f"converged after {len(steps)} steps" in done[0].getMessage()


def test_relative_values_solve_the_average_cost_equation(
        route_cm_e1t1, grid9, bottleneck_cm_e1t20):
    # Policy iteration at a frozen mean field ends at G V = V + lambda up to
    # rounding, on a mild, a stiff (theta = 20) and the 40-slice model.
    models = [route_cm_e1t1,
              route_cost_model(grid9, 20.0, RouteInertiaSpec("indicator", 0.0)),
              bottleneck_cm_e1t20[0]]
    rng = np.random.default_rng(3)
    for cm in models:
        mu = rng.dirichlet(np.ones(cm.M))
        v, lam, pi, backed = stationary._relative_values(cm, mu, np.zeros(cm.M))
        applied, applied_pi = bellman_apply(v, mu, cm)
        assert v[0] == 0.0
        assert np.max(np.abs(applied - v - lam)) <= 1e-12 * max(1.0, abs(lam))
        # solve_smfe's r1 rests on this: the returned backup is G V itself.
        assert np.array_equal(backed, applied)
        assert np.array_equal(pi, applied_pi)


def test_relative_values_independent_of_start(route_cm_e1t1, bottleneck_cm_e1t20):
    rng = np.random.default_rng(4)
    for cm in (route_cm_e1t1, bottleneck_cm_e1t20[0]):
        mu = rng.dirichlet(np.ones(cm.M))
        v0, lam0, _, _ = stationary._relative_values(cm, mu, np.zeros(cm.M))
        v1, lam1, _, _ = stationary._relative_values(cm, mu, 50.0 * rng.normal(size=cm.M))
        scale = max(1.0, abs(lam0))
        assert abs(lam1 - lam0) <= 1e-12 * scale
        assert np.max(np.abs(v1 - v0)) <= 1e-12 * max(scale, np.max(np.abs(v0)))


def test_invariant_law_of_a_nearly_degenerate_policy(bottleneck_cm_e1t20):
    # A population bunched around the desired arrival slice prices the far
    # slices so high that the policy has entries far below 1e-16.  The law
    # must still be a distribution that the policy leaves in place, although
    # rounding in the solve lands a few of its tiny entries below 0 for some
    # of these bunches.
    cm, spec = bottleneck_cm_e1t20
    slices = np.arange(cm.M)
    for centre in spec.r / spec.slice_hours + np.array([-1.0, 0.0, 1.0]):
        for width in (1.5, 2.0, 3.0, 4.0, 6.0):
            w = np.exp(-((slices - centre) / width) ** 2)
            mu = w / w.sum()
            _, u, z = _soft_backup(cm.kernel, cm.cost(mu), cm.theta)
            pi = _softmax_policies(cm.kernel, u, z)
            assert pi.min() < 1e-200
            nu = stationary._stationary_distribution(pi)
            assert np.all(nu >= 0.0)
            assert abs(math.fsum(nu) - 1.0) <= DIST_TOL
            assert dist_distance(forward_step(pi, nu), nu) <= 1e-14


def test_invariant_law_of_two_state_chain():
    # Leaving state 0 with probability p and state 1 with probability q gives
    # the law (q, p) / (p + q).
    for p, q in ((0.3, 0.6), (0.5, 0.5), (1e-9, 0.2), (0.999, 1e-12)):
        pi = np.array([[1.0 - p, p], [q, 1.0 - q]])
        nu = stationary._stationary_distribution(pi)
        exact = np.array([q, p]) / (p + q)
        assert np.max(np.abs(nu - exact)) <= 1e-15


def test_omega_bound_value():
    cm = two_state_model()  # theta 2, C 1, M 2
    assert omega_bound(cm) == pytest.approx(math.exp(-8.0) / 2.0, rel=1e-15)
    assert omega_bound(two_state_model(theta=200.0)) == 0.0

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from scipy.special import xlogy

from mfgcommute import core
from mfgcommute.core import (
    KERNEL_LIMIT,
    CostModel,
    InvalidInputError,
    KernelLimitError,
    NumericError,
    _backward_induction_core,
    _forward_propagate_core,
    _forward_step_core,
    _soft_backup,
    _xlogx,
    backward_induction,
    bellman_apply,
    check_stochastic,
    dist_distance,
    forward_propagate,
    forward_step,
    policy_evaluate,
    uniform_distribution,
    uniform_policy_seq,
)
from mfgcommute.fictitious import exploitability
from mfgcommute.route import RouteInertiaSpec, route_cost_model
from mfgcommute.stationary import omega_bound_check
from conftest import make_table_cost_model, shipped_model
from oracles import (
    brute_forward_step,
    brute_soft_backup,
    brute_policy_distance,
    brute_seq_distance,
    concavity_check,
    log_domain_push,
    log_domain_sweep,
    masked_xlogx,
    occupancy_total_cost,
)


def random_distribution(rng, m):
    p = rng.random(m) + 1e-3
    p /= p.sum()
    return p / p.sum()


def random_policy(rng, m):
    p = rng.random((m, m)) + 1e-3
    return p / p.sum(axis=1, keepdims=True)


def random_sparse_policies(rng, n, m):
    # Random policy rows with exact zeros and subnormal entries mixed in.
    p = rng.random((n, m, m))
    p[rng.random(p.shape) < 0.3] = 0.0
    p[..., 0] += 1e-3  # every row keeps mass
    p /= p.sum(axis=2, keepdims=True)
    # A third of the zeros turn subnormal, which moves no row sum visibly.
    tiny = (p == 0.0) & (rng.random(p.shape) < 0.3)
    p[tiny] = np.finfo(float).smallest_subnormal * rng.integers(1, 2**40, tiny.sum())
    return p


def random_cost_model(rng, m, theta=1.0, bound=2.0):
    f_table = rng.random(m) * bound * 0.5
    coupling = rng.random((m, m)) * bound * 0.5 / m
    d_table = rng.random((m, m)) * bound
    return make_table_cost_model(f_table, d_table, theta, coupling)


# ---------------------------------------------------------------------------
# metrics


def test_dist_distance_identity():
    p = np.array([0.2, 0.3, 0.5])
    assert dist_distance(p, p) == 0.0


def test_dist_distance_extreme_points():
    assert dist_distance([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_dist_distance_hand_value():
    assert dist_distance([0.5, 0.5], [0.3, 0.7]) == pytest.approx(0.2, abs=1e-15)


def test_dist_distance_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        dist_distance([0.5, 0.5], [0.3, 0.3, 0.4])


def test_dist_distance_reads_entries_by_the_number_rule():
    # A numeric string or a bool is no number, a NaN would make the metric
    # NaN, and two empty arrays have no largest entry: each is an input error.
    with pytest.raises(InvalidInputError, match="first array must be a number"):
        dist_distance(["1", True], [0.0, 0.0])
    with pytest.raises(InvalidInputError, match="first array must be finite"):
        dist_distance([math.nan, 0.0], [0.0, 0.0])
    with pytest.raises(InvalidInputError, match="entries"):
        dist_distance(np.zeros(0), np.zeros(0))


def test_seq_distance_single_day_difference():
    rng = np.random.default_rng(0)
    a = np.stack([random_distribution(rng, 4) for _ in range(6)])
    b = a.copy()
    b[3] = a[3] + np.array([0.05, -0.05, 0.1, -0.1])
    assert dist_distance(a, b) == pytest.approx(0.1, abs=1e-15)
    assert dist_distance(a, a) == 0.0


def test_seq_and_policy_distance_match_brute_force():
    rng = np.random.default_rng(1)
    a = np.stack([random_distribution(rng, 5) for _ in range(7)])
    b = np.stack([random_distribution(rng, 5) for _ in range(7)])
    assert dist_distance(a, b) == brute_seq_distance(a, b)
    pa = np.stack([random_policy(rng, 5) for _ in range(7)])
    pb = np.stack([random_policy(rng, 5) for _ in range(7)])
    assert dist_distance(pa, pb) == brute_policy_distance(pa, pb)
    with pytest.raises(InvalidInputError):
        dist_distance(a, b[:4])


# ---------------------------------------------------------------------------
# validators


def test_check_distribution_rejects_negative_and_unnormalized():
    for bad in ([0.5, -0.5, 1.0], [0.5, 0.4], [[0.5, 0.5]], [0.5, np.nan, 0.5],
                [np.inf, 0.0], []):
        with pytest.raises(InvalidInputError):
            check_stochastic(bad, "distribution", (None,))
    with pytest.raises(InvalidInputError):
        check_stochastic([0.5, 0.5], "distribution", (3,))
    assert np.array_equal(check_stochastic([0.25, 0.75], "distribution", (None,)),
                          [0.25, 0.75])


def test_check_stochastic_reads_entries_by_the_number_rule():
    # A bool or a numeric string is not a probability, even where numpy would
    # read it as one; a ragged row is not a number either.  Each names the field.
    for bad in (["0.5", "0.5"], [True, False], np.array([True, False]), [0.5, None],
                [[0.5, 0.5], [1.0]]):
        with pytest.raises(InvalidInputError, match="mu0 must be a number"):
            check_stochastic(bad, "mu0", (None,))
    for bad in ([np.nan, 1.0], np.array([np.inf, 0.0])):
        with pytest.raises(InvalidInputError, match="mu0 must be finite"):
            check_stochastic(bad, "mu0", (None,))
    assert check_stochastic(np.array([1, 0]), "mu0", (2,)).dtype == np.float64


def test_check_policy_rejects_bad_rows():
    with pytest.raises(InvalidInputError):
        check_stochastic([[0.5, 0.6], [0.5, 0.5]], "policy", (2, 2))
    with pytest.raises(InvalidInputError):
        check_stochastic([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]], "policy", (2, 2))
    seq = np.full((3, 2, 2), 0.5)
    assert np.array_equal(check_stochastic(seq, "policy sequence", (None, 2, 2)), seq)
    seq[2, 1] = [0.5, 0.6]
    with pytest.raises(InvalidInputError):
        check_stochastic(seq, "policy sequence", (None, 2, 2))


def test_a_sequence_of_no_days_is_rejected_by_name(route_cm_e1t1, grid9_mu0):
    # Shape (0, M) is no horizon: each operator rejects it, naming the
    # field, instead of failing on index 0 or returning a one-day table.
    cm, m = route_cm_e1t1, route_cm_e1t1.M
    no_mf, no_pi = np.zeros((0, m)), np.zeros((0, m, m))
    calls = [
        (lambda: forward_propagate(no_pi, grid9_mu0), "policy sequence"),
        (lambda: backward_induction(no_mf, cm), "mean field sequence"),
        (lambda: policy_evaluate(no_pi, no_mf, cm), "mean field sequence"),
        (lambda: exploitability(no_pi, no_mf, cm, grid9_mu0), "mean field sequence"),
        (lambda: omega_bound_check(no_mf, cm), "mean field sequence"),
    ]
    for call, name in calls:
        with pytest.raises(InvalidInputError, match=f"{name} has no entries"):
            call()


def test_cost_model_validation():
    d = np.zeros((2, 2))

    def zero_cost(mu):
        return np.zeros_like(mu)

    with pytest.raises(InvalidInputError):
        CostModel(cost=zero_cost, inertia_matrix=d, theta=0.0, bound_C=1.0)
    for bad in (np.zeros((2, 3)), np.array([[0.0, -0.5], [0.0, 0.0]]),
                np.array([[0.0, 5.0], [5.0, 0.0]]), np.array([[0.0, np.nan], [0.0, 0.0]])):
        with pytest.raises(InvalidInputError):
            CostModel(cost=zero_cost, inertia_matrix=bad, theta=1.0, bound_C=1.0)
    # A scenario derives bound_C from its costs, so a NaN or inf cost
    # parameter surfaces here rather than mid-solve.
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(InvalidInputError, match="bound_C"):
            CostModel(cost=zero_cost, inertia_matrix=d, theta=1.0, bound_C=bad)
    # A string, None or a bool is not a number, in a scalar field or as an
    # entry of the inertia matrix, and each names its field.
    for field, value in [("theta", "1"), ("theta", True), ("theta", None),
                         ("bound_C", None), ("bound_C", np.True_),
                         ("inertia_matrix", [["0", "1"], ["1", "0"]]),
                         ("inertia_matrix", [[0.0, True], [True, 0.0]])]:
        kwargs = {"inertia_matrix": d, "theta": 1.0, "bound_C": 1.0, field: value}
        with pytest.raises(InvalidInputError, match=f"{field} must be a number"):
            CostModel(cost=zero_cost, **kwargs)
    with pytest.raises(InvalidInputError, match="at least one state"):
        CostModel(cost=zero_cost, inertia_matrix=np.zeros((0, 0)), theta=1.0, bound_C=1.0)
    ok = CostModel(cost=zero_cost, inertia_matrix=d, theta=1.0, bound_C=1.0)
    assert ok.inertia_matrix.shape == (2, 2)
    assert ok.M == 2


def test_cost_model_kernel_limit():
    def zero_cost(mu):
        return np.zeros_like(mu)

    d = 2.0 * (1.0 - np.eye(2))
    at_limit = CostModel(cost=zero_cost, inertia_matrix=d, theta=KERNEL_LIMIT / 2.0,
                         bound_C=2.0)
    assert np.array_equal(at_limit.kernel, np.exp(-at_limit.theta * d))
    assert np.all(at_limit.kernel > np.finfo(float).tiny)
    above = np.nextafter(KERNEL_LIMIT, math.inf) / 2.0
    with pytest.raises(KernelLimitError, match=r"= 700\.0000000000001 exceeds the kernel limit 700$"):
        CostModel(cost=zero_cost, inertia_matrix=d, theta=above, bound_C=2.0)


def test_cost_model_determinism_bit_for_bit():
    rng = np.random.default_rng(2)
    cm = random_cost_model(rng, 4)
    mu = random_distribution(rng, 4)
    assert np.array_equal(cm.cost(mu), cm.cost(mu))


# ---------------------------------------------------------------------------
# bellman backup


def test_bellman_uniform_when_scores_flat():
    cm = make_table_cost_model([0.3, 0.3, 0.3], np.zeros((3, 3)), theta=2.0)
    v, pi = bellman_apply(np.full(3, 1.7), uniform_distribution(3), cm)
    assert np.allclose(pi, 1.0 / 3.0, atol=1e-15)


def test_bellman_two_state_hand_softmax():
    cm = make_table_cost_model([0.0, 0.0], np.zeros((2, 2)), theta=1.0)
    v, pi = bellman_apply(np.array([0.0, math.log(3.0)]), uniform_distribution(2), cm)
    assert np.allclose(pi, [[0.75, 0.25], [0.75, 0.25]], atol=1e-15)
    # V(s) = f - ln(e^0 + e^{-ln 3}) = -ln(4/3)
    assert np.allclose(v, -math.log(4.0 / 3.0), atol=1e-15)


def test_bellman_translation_invariance():
    rng = np.random.default_rng(3)
    cm = random_cost_model(rng, 5, theta=2.5)
    mu = random_distribution(rng, 5)
    v_next = rng.random(5)
    c = 17.25
    v0, pi0 = bellman_apply(v_next, mu, cm)
    v1, pi1 = bellman_apply(v_next + c, mu, cm)
    assert np.allclose(v1, v0 + c, atol=1e-12)
    assert np.allclose(pi0, pi1, atol=1e-13)


def test_bellman_no_overflow_at_large_scores():
    # theta * (value range) = 700 must stay finite and positive under the
    # min-V shift: the far option's weight exp(-700) is still a normal float.
    cm = make_table_cost_model([0.0, 0.0], np.zeros((2, 2)), theta=700.0)
    v, pi = bellman_apply(np.array([0.0, 1.0]), uniform_distribution(2), cm)
    assert np.all(np.isfinite(v))
    assert np.all(pi > 0.0) and np.allclose(pi.sum(axis=1), 1.0, atol=1e-12)


def test_bellman_rejects_bad_inputs():
    cm = make_table_cost_model([0.0, 0.0], np.zeros((2, 2)), theta=1.0)
    with pytest.raises(InvalidInputError):
        bellman_apply(np.array([np.nan, 0.0]), uniform_distribution(2), cm)
    with pytest.raises(InvalidInputError):
        bellman_apply(np.zeros(3), uniform_distribution(2), cm)
    with pytest.raises(InvalidInputError):
        bellman_apply(np.zeros(2), uniform_distribution(3), cm)
    for bad in (["0", "0"], [True, False], np.array([False, False]), [0.0, None]):
        with pytest.raises(InvalidInputError, match="value vector must be a number"):
            bellman_apply(bad, uniform_distribution(2), cm)
    with pytest.raises(InvalidInputError, match="value vector must be finite"):
        bellman_apply([0.0, np.inf], uniform_distribution(2), cm)


def test_bellman_policy_strictly_positive():
    rng = np.random.default_rng(4)
    for _ in range(50):
        cm = random_cost_model(rng, 4, theta=rng.uniform(0.5, 5.0))
        v, pi = bellman_apply(rng.random(4) * 3, random_distribution(rng, 4), cm)
        assert np.all(pi > 0.0)


def oracle_models(grid9):
    """Cost models the backup is checked on against the brute-force oracle."""
    rng = np.random.default_rng(16)
    models = [random_cost_model(rng, m, theta=float(rng.uniform(0.3, 5.0)))
              for m in (2, 3, 5, 8)]
    models.append(separable_cost_model(rng, 5, theta=3.0))
    models.append(route_cost_model(grid9, 20.0, RouteInertiaSpec("indicator", 1.0)))
    models.append(shipped_model("bottleneck_e1t20")[1])
    models.append(at_kernel_limit())
    return models


def separable_cost_model(rng, m, theta):
    # d(s, x) = b(x) with b != 0: every row of the kernel is exp(-theta b),
    # so the cores take their batched branch.
    b = rng.random(m)
    cm = make_table_cost_model(rng.random(m), np.tile(b, (m, 1)), theta,
                               rng.random((m, m)) / m)
    assert cm.kernel_row is not None
    return cm


def general_form(cm):
    # A copy of the model without its common kernel row: the cores then run
    # the scaling form on a separable kernel too, and on every 1 x 1 kernel.
    cm = copy.copy(cm)
    cm.kernel_row = None
    return cm


def at_kernel_limit():
    return make_table_cost_model([0.0, 0.3], 1.0 - np.eye(2), theta=KERNEL_LIMIT)


def assert_matches_oracle(value, policy, f, cm, v_next):
    want_value, want_policy = brute_soft_backup(f, cm.inertia_matrix, v_next, cm.theta)
    assert np.all(np.abs(value - want_value) <= 1e-12 * np.maximum(1.0, np.abs(want_value)))
    assert np.max(np.abs(policy - want_policy)) <= 1e-12


def test_bellman_matches_brute_soft_backup(grid9):
    rng = np.random.default_rng(17)
    for cm in oracle_models(grid9):
        mu = random_distribution(rng, cm.M)
        f = cm.cost(mu)
        # Value spreads from flat to far past the kernel's shift range.
        for scale in (0.0, 1.0, 50.0):
            v_next = rng.random(cm.M) * scale
            value, policy = bellman_apply(v_next, mu, cm)
            assert_matches_oracle(value, policy, f, cm, v_next)
    # The corner of the limit: both options of row 0 score theta * 1 = 700,
    # so its normalizer is 2 exp(-700).
    cm = at_kernel_limit()
    value, policy = bellman_apply(np.array([1.0, 0.0]), uniform_distribution(2), cm)
    assert np.allclose(policy[0], 0.5, rtol=0.0, atol=1e-15)
    assert_matches_oracle(value, policy, cm.cost(uniform_distribution(2)), cm,
                          np.array([1.0, 0.0]))


def test_backward_induction_days_match_oracle_and_bellman_apply(grid9):
    rng = np.random.default_rng(18)
    for cm in oracle_models(grid9):
        kernel = cm.kernel.copy()
        mu = np.stack([random_distribution(rng, cm.M) for _ in range(12)])
        values, policies = backward_induction(mu, cm)
        f_table = cm.cost(mu)
        for n in range(len(mu)):
            assert_matches_oracle(values[n], policies[n], f_table[n], cm, values[n + 1])
            # One backup formula: day n of the sweep is bellman_apply up to
            # rounding.  Both branches of the sweep form u from f, not from
            # V = f + g, and sum the shifts of g over the days.
            value, policy = bellman_apply(values[n + 1], mu[n], cm)
            scale = np.finfo(float).eps * np.abs(values).max()
            assert np.max(np.abs(values[n] - value)) <= 32 * scale
            assert np.max(np.abs(policies[n] - policy)) <= 4 * cm.theta * scale
            assert not np.shares_memory(policy, cm.kernel)
        # Both build their policies in place; never in the shared kernel.
        assert not np.shares_memory(policies, cm.kernel)
        assert np.array_equal(cm.kernel, kernel)


# ---------------------------------------------------------------------------
# backward induction


def test_backward_induction_single_day_formula():
    rng = np.random.default_rng(5)
    cm = random_cost_model(rng, 4, theta=1.5)
    mu = np.stack([random_distribution(rng, 4)])
    values, policies = backward_induction(mu, cm)
    f = cm.cost(mu[0])
    d = cm.inertia_matrix
    expected = f - np.log(np.exp(-cm.theta * d).sum(axis=1)) / cm.theta
    assert np.allclose(values[0], expected, atol=1e-12)
    assert np.allclose(values[1], 0.0)
    assert policies.shape == (1, 4, 4)


def test_backward_induction_zero_costs_entropy_ladder():
    m, n, theta = 5, 7, 2.0
    cm = make_table_cost_model(np.zeros(m), np.zeros((m, m)), theta=theta)
    mu = np.tile(uniform_distribution(m), (n, 1))
    values, _ = backward_induction(mu, cm)
    for k in range(n + 1):
        expected = -(n - k) * math.log(m) / theta
        assert np.allclose(values[k], expected, atol=1e-12)


def test_backward_induction_consistent_with_policy_evaluate(route_cm_e1t1, grid9_mu0):
    rng = np.random.default_rng(6)
    mu = np.stack([random_distribution(rng, 6) for _ in range(8)])
    values, policies = backward_induction(mu, route_cm_e1t1)
    evaluated = policy_evaluate(policies, mu, route_cm_e1t1)
    assert np.max(np.abs(values - evaluated)) < 1e-10


# ---------------------------------------------------------------------------
# forward operators


def test_forward_step_identity_policy():
    mu = np.array([0.2, 0.3, 0.5])
    out = forward_step(np.eye(3), mu)
    assert np.allclose(out, mu, atol=1e-15)


def test_forward_step_state_independent_policy():
    q = np.array([0.1, 0.6, 0.3])
    pi = np.tile(q, (3, 1))
    out = forward_step(pi, np.array([0.5, 0.25, 0.25]))
    assert np.allclose(out, q, atol=1e-14)


def test_forward_step_matches_brute_force_exactly():
    rng = np.random.default_rng(7)
    for m in (2, 3, 6, 40):
        for _ in range(25):
            mu = random_distribution(rng, m)
            pi = random_policy(rng, m)
            ours = forward_step(pi, mu)
            ref = brute_forward_step(pi, mu)
            assert np.array_equal(ours, ref)
            assert abs(math.fsum(ours) - 1.0) < 1e-12


def test_forward_step_shape_errors_and_drift_guard():
    with pytest.raises(InvalidInputError):
        forward_step(np.eye(3), np.array([0.5, 0.5]))
    with pytest.raises(InvalidInputError):
        forward_step(np.full((2, 3), 1.0 / 3.0), np.array([0.5, 0.5]))
    bad = np.array([[0.7, 0.2], [0.5, 0.5]])  # first row leaks mass
    with pytest.raises(NumericError):
        _forward_step_core(bad, np.array([0.5, 0.5]))


def test_forward_propagate_identity_and_single_step():
    mu0 = np.array([1.0, 0.0])
    pols = np.tile(np.eye(2), (4, 1, 1))
    out = forward_propagate(pols, mu0)
    assert np.allclose(out, mu0, atol=1e-15)

    pols = np.tile(np.array([[0.3, 0.7], [0.4, 0.6]]), (2, 1, 1))
    out = forward_propagate(pols, mu0)
    assert np.allclose(out[1], [0.3, 0.7], atol=1e-15)


def test_kernel_form_push_matches_the_explicit_policies(grid9):
    # Fictitious play pushes flows through the sweep's factors (u, z) and
    # never forms the policies; that push must be forward_propagate of them.
    rng = np.random.default_rng(19)
    for cm in oracle_models(grid9):
        mu = np.stack([random_distribution(rng, cm.M) for _ in range(12)])
        mu0 = random_distribution(rng, cm.M)
        mu0[rng.integers(cm.M)] = 0.0
        mu0 /= mu0.sum()
        _, u, z = _backward_induction_core(cm.cost(mu), cm)
        got = _forward_propagate_core(cm, u, z, mu0)
        want = forward_propagate(backward_induction(mu, cm)[1], mu0)
        assert np.array_equal(got[0], mu0)
        assert np.max(np.abs(got - want)) <= 1e-15
    # The corner of the kernel limit: row 0's normalizer is 2 exp(-700), so
    # the push divides by the least z the limit admits.
    cm = at_kernel_limit()
    _, u, z = _soft_backup(cm.kernel, np.array([1.0, 0.0]), cm.theta)
    assert z[0] == 2.0 * math.exp(-KERNEL_LIMIT)
    mu0 = np.array([1.0, 0.0])
    got = _forward_propagate_core(cm, np.stack([u, u]), np.stack([z, z]), mu0)
    _, policy = bellman_apply(np.array([1.0, 0.0]), mu0, cm)
    assert np.allclose(got[1], 0.5, rtol=0.0, atol=1e-15)
    assert np.max(np.abs(got[1] - forward_step(policy, mu0))) <= 1e-15


def test_kernel_form_push_drift_guard():
    # A z that does not normalize its rows leaks mass; the push shares
    # forward_step's guard and raises rather than renormalizing it away.
    rng = np.random.default_rng(20)
    cm = random_cost_model(rng, 4, theta=1.5)
    mu = np.stack([random_distribution(rng, 4) for _ in range(3)])
    _, u, z = _backward_induction_core(cm.cost(mu), cm)
    mu0 = random_distribution(rng, 4)
    _forward_propagate_core(cm, u, z, mu0)
    with pytest.raises(NumericError, match="mass drift"):
        _forward_propagate_core(cm, u, z * 1.01, mu0)
    # The batched push of a separable model keeps the guard on every day.
    cm = separable_cost_model(rng, 4, theta=1.5)
    _, u, z = _backward_induction_core(cm.cost(mu), cm)
    _forward_propagate_core(cm, u, z, mu0)
    with pytest.raises(NumericError, match="mass drift"):
        _forward_propagate_core(cm, u, z * 1.01, mu0)


SEPARABLE_CONFIGS = ("route_e0t1", "route_e0t20", "bottleneck_e0t20")


def assert_sweeps_agree(theta, got, want, got_push, want_push, mu0):
    # Two sweeps of one cost table, and their pushes from mu0, within
    # rounding: one forms u from V = f + g, so its u carries about theta ulps
    # of max |V|, and the other sums its shifts g over N days.
    values, u, z = want
    got_values, got_u, got_z = got
    scale = np.finfo(float).eps * max(1.0, np.abs(values).max())
    assert got_values.shape == values.shape and got_z.shape == z.shape
    assert np.array_equal(got_values[-1], values[-1])
    assert np.max(np.abs(got_values - values)) <= 32 * scale
    assert np.max(np.abs(got_u - u)) <= 4 * theta * scale
    assert np.max(np.abs(got_z / z - 1.0)) <= 4 * theta * scale
    assert np.array_equal(got_push[0], mu0)
    assert np.max(np.abs(got_push - want_push)) <= 4 * theta * scale


def assert_batched_matches_the_loop(cm, mu, mu0):
    # The batched branch against the day loop on one cost table.
    f_table = cm.cost(mu)
    general = general_form(cm)
    loop = _backward_induction_core(f_table, general)
    got = _backward_induction_core(f_table, cm)
    assert_sweeps_agree(
        cm.theta, got, loop,
        _forward_propagate_core(cm, *got[1:], mu0),
        _forward_propagate_core(general, *loop[1:], mu0), mu0)


def test_separable_branch_matches_the_day_loop():
    rng = np.random.default_rng(21)
    for name in SEPARABLE_CONFIGS:
        cfg, cm, _, _ = shipped_model(name)
        for _ in range(5):
            mu = rng.dirichlet(np.ones(cm.M), size=cfg.horizon)
            assert_batched_matches_the_loop(cm, mu, rng.dirichlet(np.ones(cm.M)))
    # Random separable models with b != 0, down to one option and one day.
    for m in (1, 2, 5, 12):
        for horizon in (1, 2, 30):
            cm = separable_cost_model(rng, m, theta=float(rng.uniform(0.3, 20.0)))
            mu = rng.dirichlet(np.ones(m), size=horizon)
            assert_batched_matches_the_loop(cm, mu, rng.dirichlet(np.ones(m)))


def test_scaling_form_day_loop_matches_the_log_domain_loop(monkeypatch):
    # The day loop's sweep and push against the log-domain loop they
    # replaced (oracles.log_domain_sweep), within the batched branch's bounds.
    # No M takes the prefix products here, so every model runs the loop.
    monkeypatch.setattr(core, "_PREFIX_MAX_M", 0)
    rng = np.random.default_rng(23)

    def check(cm, mu, mu0):
        f_table = cm.cost(mu)
        general = general_form(cm)
        got = _backward_induction_core(f_table, general)
        want = log_domain_sweep(f_table, cm.kernel, cm.theta)
        assert_sweeps_agree(
            cm.theta, got, want,
            _forward_propagate_core(general, *got[1:], mu0),
            log_domain_push(cm.kernel, *want[1:], mu0), mu0)

    for name in ("route_e1t1", "bottleneck_e1t20"):
        cfg, cm, _, _ = shipped_model(name)
        for _ in range(5):
            mu = rng.dirichlet(np.ones(cm.M), size=cfg.horizon)
            check(cm, mu, rng.dirichlet(np.ones(cm.M)))
    # Down to one option, where the loop runs on a 1 x 1 kernel, and one day,
    # where it runs no iteration.
    for m in (1, 2, 5, 12):
        for horizon in (1, 2, 30):
            cm = random_cost_model(rng, m, theta=float(rng.uniform(0.3, 20.0)))
            mu = rng.dirichlet(np.ones(m), size=horizon)
            check(cm, mu, rng.dirichlet(np.ones(m)))


def count_factors(monkeypatch, name):
    # The number of factors of each call of core.<name>, a chain or its
    # prefix products, in order.
    calls = []
    inner = getattr(core, name)

    def counted(kernel, scales, *rest):
        calls.append(len(scales))
        return inner(kernel, scales, *rest)

    monkeypatch.setattr(core, name, counted)
    return calls


def test_prefix_products_match_the_day_loop_and_the_log_domain_loop(monkeypatch):
    # A small kernel whose horizon needs no rescale runs the sweep and the
    # push as prefix products.  On the same inputs they must match the day
    # loop (forced by M* = 0) and the log-domain loop, within the batched
    # branch's bounds.  The horizons give the doubling's edge cases: 0 and 1
    # products take no level, 2 one, 3 a second level that reaches only the
    # last product, 29 and 32 five levels, the first ending short of a power
    # of two and the second on one.  Inertia of at most 1 keeps theta max d
    # below 20, so the stride is at least 32 for M <= 8.
    rng = np.random.default_rng(25)
    calls = count_factors(monkeypatch, "_prefix_products")
    for m in (1, 2, 5, 8):
        for n_products in (0, 1, 2, 3, 29, 32):
            cm = random_cost_model(rng, m, theta=float(rng.uniform(0.3, 20.0)), bound=1.0)
            f_table = cm.cost(rng.dirichlet(np.ones(m), size=n_products + 1))
            mu0 = rng.dirichlet(np.ones(m))
            general = general_form(cm)
            got = _backward_induction_core(f_table, general)
            got_push = _forward_propagate_core(general, *got[1:], mu0)
            assert calls == [n_products, n_products]
            with monkeypatch.context() as patch:
                patch.setattr(core, "_PREFIX_MAX_M", 0)
                loop = _backward_induction_core(f_table, general)
                loop_push = _forward_propagate_core(general, *loop[1:], mu0)
            assert len(calls) == 2
            calls.clear()
            assert_sweeps_agree(cm.theta, got, loop, got_push, loop_push, mu0)
            want = log_domain_sweep(f_table, cm.kernel, cm.theta)
            assert_sweeps_agree(
                cm.theta, got, want, got_push,
                log_domain_push(cm.kernel, *want[1:], mu0), mu0)
            assert (got[1].max(axis=1) == 1.0).all()


def test_each_model_takes_its_pinned_path(monkeypatch):
    # Which of the sweep and the push run as prefix products: route_e1t1
    # (M = 6, H = 1) both; bottleneck_e1t20 (M = 40) neither, it loops over
    # the days; route_e0t1 neither, it has a common kernel row.  The first
    # two, like every small-M model below, make one _chain call in the sweep
    # and one in the push; route_e0t1 makes none.  A small-M
    # model at theta max d = 300 over 60 days has a stride of 2, so its sweep
    # loops, rescaling, while its push, bounded by M e^H, takes the products.
    # At theta max d = 50 the stride is 13: 12 days take the products and
    # 60 days the loop, the two forms the headroom test below covers.
    rng = np.random.default_rng(26)
    calls = count_factors(monkeypatch, "_prefix_products")
    chains = count_factors(monkeypatch, "_chain")

    def paths(cm, n_days):
        calls.clear()
        chains.clear()
        f_table = cm.cost(rng.dirichlet(np.ones(cm.M), size=n_days))
        _, u, z = _backward_induction_core(f_table, cm)
        sweep, sweep_chains = list(calls), len(chains)
        _forward_propagate_core(cm, u, z, rng.dirichlet(np.ones(cm.M)))
        return sweep, calls[len(sweep):], (sweep_chains, len(chains) - sweep_chains)

    assert paths(shipped_model("route_e1t1")[1], 30) == ([29], [29], (1, 1))
    assert paths(shipped_model("bottleneck_e1t20")[1], 30) == ([], [], (1, 1))
    assert paths(shipped_model("route_e0t1")[1], 30) == ([], [], (0, 0))
    assert paths(headroom_cost_model(rng, 5, 300.0), 60) == ([], [59], (1, 1))
    for m in (3, 8):
        assert paths(headroom_cost_model(rng, m, 50.0), 12) == ([11], [11], (1, 1))
        assert paths(headroom_cost_model(rng, m, 50.0), 60) == ([], [59], (1, 1))


def headroom_cost_model(rng, m, theta_d_max):
    # theta * max d at theta_d_max, with costs spread over 16 to 24 times
    # max d: exp(theta (min f - f)) underflows for the dearest options even
    # at theta max d = 50, and the day's z ranges over up to e^(theta max d).
    d_table = rng.random((m, m))
    d_table /= d_table.max()
    spread = rng.uniform(16.0, 24.0)
    f_table = rng.random(m) * spread
    f_table[rng.permutation(m)[:2]] = 0.0, spread
    coupling = rng.random((m, m)) * spread / m
    cm = make_table_cost_model(f_table, d_table, theta_d_max, coupling)
    assert cm.kernel_row is None and cm.theta * cm.inertia_matrix.max() == theta_d_max
    return cm


@pytest.mark.parametrize("theta_d_max", [50.0, 300.0, 699.0])
def test_scaling_form_keeps_its_headroom_at_the_kernel_limit(theta_d_max):
    # A weight exp would round to 0 can come back by a z ratio of up to
    # e^(theta max d); the sweep's headroom H = theta max d keeps it.  Every
    # day must still be the brute-force backup of the next day's values, and
    # the push forward_propagate of the explicit tables.  The sweep rescales
    # u inside its loop every floor((ln float max - 1) / (H + ln M)) days:
    # 13 at theta max d = 50, so only the 60-day horizon reaches that
    # rescale there.  Every day's u comes back with max exactly 1.  So the
    # test covers both forms of the sweep: its 12-day cases at theta max d =
    # 50 need no rescale and take the prefix products, and its 60-day cases
    # take the day loop.  The push takes the products on every case (M <= 8).
    rng = np.random.default_rng(24)
    for n_days in (12, 60):
        for m in (3, 5, 8):
            for _ in range(8):
                cm = headroom_cost_model(rng, m, theta_d_max)
                mu = rng.dirichlet(np.ones(m), size=n_days)
                f_table = cm.cost(mu)
                weights = np.exp((f_table.min(axis=1)[:, None] - f_table) * cm.theta)
                assert (weights == 0.0).any()
                values, policies = backward_induction(mu, cm)
                for n in range(n_days):
                    assert_matches_oracle(values[n], policies[n], f_table[n], cm, values[n + 1])
                mu0 = rng.dirichlet(np.ones(m))
                _, u, z = _backward_induction_core(f_table, cm)
                assert (u.max(axis=1) == 1.0).all()
                got = _forward_propagate_core(cm, u, z, mu0)
                assert np.max(np.abs(got - forward_propagate(policies, mu0))) <= 1e-15


def test_cost_model_derives_the_headroom_and_the_stride(monkeypatch):
    # The sweep reads the headroom H = -ln min K and its rescale stride
    # max(1, floor((ln float max - 1) / (H + ln M))) from the model, derived
    # once: (709.78 - 1) / (1 + ln 6) = 253.9 on route_e1t1, 11.4 on
    # bottleneck_e1t20, and 1.01 at the kernel limit (H = 700, M = 2).
    for name in SEPARABLE_CONFIGS + ("route_e1t1", "bottleneck_e1t20"):
        cm = shipped_model(name)[1]
        assert cm.headroom == -math.log(cm.kernel.min())
    assert shipped_model("route_e1t1")[1].stride == 253
    assert shipped_model("bottleneck_e1t20")[1].stride == 11
    assert at_kernel_limit().stride == 1
    # One option without inertia never grows, so no horizon reaches a rescale:
    # its 300-day sweep takes the prefix products.
    calls = count_factors(monkeypatch, "_prefix_products")
    alone = make_table_cost_model([0.5], np.zeros((1, 1)), theta=2.0, coupling=[[0.3]])
    assert alone.headroom == 0.0 and alone.stride >= np.iinfo(np.intp).max
    _backward_induction_core(alone.cost(np.ones((300, 1))), general_form(alone))
    assert calls == [299]
    # A stride of 1 rescales every day.  No shipped model needs that, so a
    # copy of two of them takes it: its sweep must loop over the days and
    # agree with the model's own sweep and push.
    rng = np.random.default_rng(27)
    for name in ("route_e1t1", "bottleneck_e1t20"):
        cfg, cm, _, _ = shipped_model(name)
        every_day = copy.copy(cm)
        every_day.stride = 1
        for _ in range(3):
            f_table = cm.cost(rng.dirichlet(np.ones(cm.M), size=cfg.horizon))
            mu0 = rng.dirichlet(np.ones(cm.M))
            want = _backward_induction_core(f_table, cm)
            want_push = _forward_propagate_core(cm, *want[1:], mu0)
            calls.clear()
            got = _backward_induction_core(f_table, every_day)
            assert calls == []
            got_push = _forward_propagate_core(every_day, *got[1:], mu0)
            assert_sweeps_agree(cm.theta, got, want, got_push, want_push, mu0)


def test_kernel_row_is_set_exactly_when_the_kernel_rows_are_equal():
    for name in SEPARABLE_CONFIGS + ("route_e1t1", "bottleneck_e1t20"):
        cm = shipped_model(name)[1]
        if name in SEPARABLE_CONFIGS:
            assert np.array_equal(cm.kernel, np.tile(cm.kernel_row, (cm.M, 1)))
        else:
            assert cm.kernel_row is None
    # Rows that differ by one ulp in a single kernel entry are not equal: the
    # cores then run the day loop and return its bits.
    rng = np.random.default_rng(22)
    b = rng.random(4)
    d = np.tile(b, (4, 1))
    while True:
        d[2, 1] = np.nextafter(d[2, 1], 1.0)
        cm = make_table_cost_model(rng.random(4), d, 3.0, rng.random((4, 4)) / 4)
        if cm.kernel[2, 1] != cm.kernel[0, 1]:
            break
    assert cm.kernel[2, 1] == np.nextafter(cm.kernel[0, 1], 0.0)
    assert np.array_equal(np.delete(cm.kernel, 2, axis=0), np.tile(cm.kernel[0], (3, 1)))
    assert cm.kernel_row is None
    mu = rng.dirichlet(np.ones(4), size=6)
    mu0 = rng.dirichlet(np.ones(4))
    general = general_form(cm)
    loop = _backward_induction_core(cm.cost(mu), general)
    got = _backward_induction_core(cm.cost(mu), cm)
    assert all(np.array_equal(a, b) for a, b in zip(got, loop))
    assert np.array_equal(
        _forward_propagate_core(cm, *got[1:], mu0),
        _forward_propagate_core(general, *loop[1:], mu0))
    assert np.array_equal(backward_induction(mu, cm)[0], loop[0])


def test_operators_reject_shapes_that_do_not_match_the_model():
    cm = make_table_cost_model([0.5, 1.0], np.zeros((2, 2)), theta=1.0)
    three_states = np.full((4, 3), 1.0 / 3.0)
    with pytest.raises(InvalidInputError):
        backward_induction(three_states, cm)
    mu = np.full((4, 2), 0.5)
    with pytest.raises(InvalidInputError):
        policy_evaluate(uniform_policy_seq(4, 3), mu, cm)
    with pytest.raises(InvalidInputError):
        policy_evaluate(uniform_policy_seq(5, 2), mu, cm)
    with pytest.raises(InvalidInputError):
        forward_propagate(np.full((4, 2, 3), 1.0 / 3.0), uniform_distribution(2))
    with pytest.raises(InvalidInputError):
        forward_propagate(uniform_policy_seq(4, 3), uniform_distribution(2))


def test_forward_propagate_mass_conservation():
    rng = np.random.default_rng(8)
    pols = np.stack([random_policy(rng, 5) for _ in range(10)])
    out = forward_propagate(pols, random_distribution(rng, 5))
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# policy evaluation and total cost


def test_policy_evaluate_rejects_a_non_finite_value():
    # A cost that breaks its bound_C contract surfaces as a NumericError,
    # not as inf values.
    cm = CostModel(cost=lambda mu: np.full_like(mu, np.inf), inertia_matrix=np.zeros((2, 2)),
                   theta=1.0, bound_C=1.0)
    with pytest.raises(NumericError, match="non-finite value at day 1"):
        policy_evaluate(uniform_policy_seq(2, 2), np.full((2, 2), 0.5), cm)


def test_policy_evaluate_two_state_hand_value():
    theta = 2.0
    f_table = np.array([0.4, 1.1])
    d_table = np.array([[0.0, 0.5], [0.7, 0.0]])
    cm = make_table_cost_model(f_table, d_table, theta=theta)
    p = 0.75
    pi = np.array([[[p, 1 - p], [1 - p, p]]])
    mu = np.stack([uniform_distribution(2)])
    values = policy_evaluate(pi, mu, cm)
    ent0 = (p * math.log(p) + (1 - p) * math.log(1 - p)) / theta
    v0 = f_table[0] + (1 - p) * d_table[0, 1] + ent0
    v1 = f_table[1] + (1 - p) * d_table[1, 0] + ent0
    assert np.allclose(values[0], [v0, v1], atol=1e-14)


def test_policy_evaluate_deterministic_policy_zero_entropy():
    m, n = 4, 6
    cm = make_table_cost_model(np.zeros(m), np.zeros((m, m)), theta=1.0)
    perm = np.roll(np.eye(m), 1, axis=1)
    pi = np.tile(perm, (n, 1, 1))
    mu = np.tile(uniform_distribution(m), (n, 1))
    values = policy_evaluate(pi, mu, cm)
    assert np.allclose(values, 0.0, atol=1e-15)


def test_xlogx_matches_scipy_xlogy():
    rng = np.random.default_rng(21)
    for m in (6, 40):
        p = random_sparse_policies(rng, 30, m)
        # Occupancy sums exceed 1, so the test covers entries above 1 too.
        p[:, :, 1] *= 1.0 + 1e3 * rng.random((30, m))
        zero = p == 0.0
        assert zero.any() and (p[~zero] < np.finfo(float).tiny).any() and (p > 1.0).any()
        ours, ref = _xlogx(p), xlogy(p, p)
        assert (ours[zero] == 0.0).all() and not np.signbit(ours[zero]).any()
        tol = 4 * np.finfo(float).eps * np.abs(ref) + np.finfo(float).smallest_subnormal
        assert (np.abs(ours - ref) <= tol).all()
        # The floored form gives the masked log's bits, sign of zero included.
        assert ours.tobytes() == masked_xlogx(p).tobytes()
        buf = np.full(p.shape, np.nan)
        assert _xlogx(p, out=buf) is buf
        assert buf.tobytes() == ours.tobytes()
    zeros = np.zeros((3, 4))
    for got in (_xlogx(zeros), _xlogx(zeros, out=np.ones((3, 4)))):
        assert (got == 0.0).all() and not np.signbit(got).any()


def test_policy_evaluate_batched_entropy_matches_a_per_day_loop():
    # policy_evaluate forms the entropy of all days at once; the reference
    # is the day-by-day recursion with scipy's xlogy.
    rng = np.random.default_rng(22)
    for cm in (random_cost_model(rng, 6, theta=1.3), shipped_model("bottleneck_e1t20")[1]):
        n, m, d = 30, cm.M, cm.inertia_matrix
        pi = random_sparse_policies(rng, n, m)
        mu = forward_propagate(pi, uniform_distribution(m))
        f = cm.cost(mu)
        ref = np.zeros((n + 1, m))
        for k in range(n - 1, -1, -1):
            p = pi[k]
            ref[k] = (f[k] + (p * (d + ref[k + 1])).sum(axis=1)
                      + xlogy(p, p).sum(axis=1) / cm.theta)
        got = policy_evaluate(pi, mu, cm)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_total_cost_uniform_single_day_entropy():
    m, theta = 6, 3.0
    cm = make_table_cost_model(np.zeros(m), np.zeros((m, m)), theta=theta)
    pi = uniform_policy_seq(1, m)
    mu = np.stack([uniform_distribution(m)])
    got = float(np.sum(uniform_distribution(m) * policy_evaluate(pi, mu, cm)[0]))
    assert got == pytest.approx(-math.log(m) / theta, abs=1e-14)


def test_total_cost_matches_occupancy_oracle():
    rng = np.random.default_rng(9)
    cm = random_cost_model(rng, 4, theta=1.3)
    pi = np.stack([random_policy(rng, 4) for _ in range(5)])
    mu0 = random_distribution(rng, 4)
    mu = forward_propagate(pi, mu0)
    ours = float(np.sum(mu0 * policy_evaluate(pi, mu, cm)[0]))
    theirs = occupancy_total_cost(pi, mu, cm, mu0)
    assert ours == pytest.approx(theirs, abs=1e-10)


def test_optimal_policy_beats_perturbations():
    rng = np.random.default_rng(10)
    cm = random_cost_model(rng, 4, theta=1.0)
    mu0 = random_distribution(rng, 4)
    mu = forward_propagate(uniform_policy_seq(6, 4), mu0)
    values, best = backward_induction(mu, cm)
    j_best = float(np.sum(mu0 * policy_evaluate(best, mu, cm)[0]))
    assert j_best == pytest.approx(float(np.sum(mu0 * values[0])), abs=1e-12)
    for _ in range(100):
        noise = rng.random(best.shape) * 0.2
        perturbed = best + noise
        perturbed /= perturbed.sum(axis=2, keepdims=True)
        assert j_best <= float(np.sum(mu0 * policy_evaluate(perturbed, mu, cm)[0])) + 1e-9


# ---------------------------------------------------------------------------
# structural inequalities


def test_concavity_check_equality_and_translation():
    rng = np.random.default_rng(11)
    cm = random_cost_model(rng, 5, theta=2.0)
    mu = random_distribution(rng, 5)
    v = rng.random(5)
    assert concavity_check(v, v, mu, cm)
    assert concavity_check(v, v + 3.7, mu, cm)


def test_concavity_check_random_sweep():
    rng = np.random.default_rng(12)
    for _ in range(300):
        m = int(rng.integers(2, 6))
        cm = random_cost_model(rng, m, theta=float(rng.uniform(0.3, 4.0)))
        mu = random_distribution(rng, m)
        v = rng.random(m) * 4 - 2
        v_alt = rng.random(m) * 4 - 2
        assert concavity_check(v, v_alt, mu, cm)


def test_value_spread_bounded_by_3c():
    rng = np.random.default_rng(13)
    for _ in range(300):
        m = int(rng.integers(2, 6))
        cm = random_cost_model(rng, m, theta=float(rng.uniform(0.3, 4.0)))
        mu = random_distribution(rng, m)
        v, _ = bellman_apply(rng.random(m) * 5, mu, cm)
        spread = float(v.max() - v.min())
        assert spread <= 3.0 * cm.bound_C + 1e-9


def test_row_stochasticity_of_produced_policies():
    rng = np.random.default_rng(14)
    cm = random_cost_model(rng, 5, theta=1.0)
    mu = np.stack([random_distribution(rng, 5) for _ in range(6)])
    _, policies = backward_induction(mu, cm)
    assert np.max(np.abs(policies.sum(axis=2) - 1.0)) < 1e-12
    assert np.all(policies >= 0.0) and np.all(policies <= 1.0)


def test_operations_thread_safe():
    # Pure functions on shared immutable inputs: concurrent calls must
    # reproduce the serial results bit for bit.
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(15)
    cm = random_cost_model(rng, 5, theta=1.2)
    mus = [random_distribution(rng, 5) for _ in range(32)]
    vs = [rng.random(5) for _ in range(32)]
    serial = [bellman_apply(v, mu, cm) for v, mu in zip(vs, mus)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda args: bellman_apply(*args, cm),
                                 zip(vs, mus)))
    for (sv, sp), (pv, pp) in zip(serial, parallel):
        assert np.array_equal(sv, pv) and np.array_equal(sp, pp)

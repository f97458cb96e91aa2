from __future__ import annotations

import numpy as np
import pytest

from mfgcommute.core import (
    InvalidInputError,
    dist_distance,
    forward_propagate,
    uniform_distribution,
    uniform_policy_seq,
)
from mfgcommute import fictitious
from mfgcommute.fictitious import (
    FPConfig,
    exploitability,
    fictitious_play,
    fp_average_policy,
)
from conftest import make_table_cost_model, shipped_model
from oracles import rescan_average_policy

# Exploitability of the all-uniform policy pair on the epsilon=theta=1 route
# scenario, frozen from a converged evaluation of the two cost totals.
UNIFORM_ROUTE_EXPLOITABILITY = 391.1579046028901


def test_fp_average_policy_single_iterate():
    rng = np.random.default_rng(2)
    mf = rng.dirichlet(np.ones(3), size=4)
    pol = rng.dirichlet(np.ones(3), size=(4, 3))
    avg = fp_average_policy([(mf, pol)], 1)
    assert np.allclose(avg, pol, atol=1e-15)


def test_fp_average_policy_identical_policies():
    rng = np.random.default_rng(3)
    pol = rng.dirichlet(np.ones(3), size=(4, 3))
    history = [(rng.dirichlet(np.ones(3), size=4), pol) for _ in range(5)]
    avg = fp_average_policy(history, 5)
    assert np.allclose(avg, pol, atol=1e-12)


def test_fp_average_policy_two_iteration_hand_example():
    mf = np.array([[0.5, 0.5]])
    pol_a = np.array([[[1.0, 0.0], [1.0, 0.0]]])
    pol_b = np.array([[[0.0, 1.0], [0.0, 1.0]]])
    avg = fp_average_policy([(mf, pol_a), (mf, pol_b)], 2)
    assert np.allclose(avg, 0.5, atol=1e-15)


def test_fp_average_policy_zero_occupancy_rows_uniform():
    mf = np.array([[1.0, 0.0]])
    pol = np.array([[[0.2, 0.8], [0.9, 0.1]]])
    avg = fp_average_policy([(mf, pol)], 1)
    assert np.allclose(avg[0, 0], [0.2, 0.8], atol=1e-15)
    assert np.allclose(avg[0, 1], [0.5, 0.5], atol=1e-15)
    with pytest.raises(InvalidInputError):
        fp_average_policy([(mf, pol)], 2)


def test_fp_average_policy_rejects_a_history_of_two_shapes():
    one_day = (np.array([[0.5, 0.5]]), np.full((1, 2, 2), 0.5))
    two_days = (np.full((2, 2), 0.5), np.full((2, 2, 2), 0.5))
    with pytest.raises(InvalidInputError, match="inconsistent shapes"):
        fp_average_policy([one_day, two_days], 2)


def test_exploitability_zero_for_best_response():
    cm = make_table_cost_model([0.5, 1.0, 0.2], np.full((3, 3), 0.3) - 0.3 * np.eye(3),
                               theta=1.5)
    from mfgcommute.core import backward_induction

    mu0 = uniform_distribution(3)
    mu = forward_propagate(uniform_policy_seq(5, 3), mu0)
    _, best = backward_induction(mu, cm)
    induced = forward_propagate(best, mu0)
    # evaluate the best response against its own induced flow at equilibrium
    # conditions only when consistent; here use the pair (best, induced)
    gap = exploitability(best, induced, cm, mu0)
    assert gap >= -1e-9


def test_exploitability_inconsistent_pair_rejected():
    cm = make_table_cost_model([0.5, 1.0], np.zeros((2, 2)), theta=1.0)
    pi = uniform_policy_seq(3, 2)
    bad_mu = np.tile(np.array([0.9, 0.1]), (3, 1))
    with pytest.raises(InvalidInputError):
        exploitability(pi, bad_mu, cm, uniform_distribution(2))


def test_exploitability_rejects_shapes_that_do_not_match_the_model():
    cm = make_table_cost_model([0.5, 1.0], np.zeros((2, 2)), theta=1.0)
    pi = uniform_policy_seq(3, 3)
    mu = forward_propagate(pi, uniform_distribution(3))
    with pytest.raises(InvalidInputError):
        exploitability(pi, mu, cm, uniform_distribution(3))
    pi = uniform_policy_seq(3, 2)
    mu = forward_propagate(pi, uniform_distribution(2))
    with pytest.raises(InvalidInputError):
        exploitability(pi[:2], mu, cm, uniform_distribution(2))
    with pytest.raises(InvalidInputError):
        exploitability(pi, mu, cm, uniform_distribution(3))


def test_exploitability_uniform_route_regression(route_cm_e1t1, grid9_mu0):
    pol = uniform_policy_seq(30, 6)
    mu = forward_propagate(pol, grid9_mu0)
    gap = exploitability(pol, mu, route_cm_e1t1, grid9_mu0)
    assert gap > 0.0
    assert gap == pytest.approx(UNIFORM_ROUTE_EXPLOITABILITY, rel=1e-8)


def test_fp_config_validation():
    with pytest.raises(InvalidInputError):
        FPConfig(mu0=uniform_distribution(3), horizon=0)
    with pytest.raises(InvalidInputError):
        FPConfig(mu0=uniform_distribution(3), horizon=2, max_iters=0)
    with pytest.raises(InvalidInputError):
        FPConfig(mu0=uniform_distribution(3), horizon=2, exploitability_tol=0.0)
    # A count is an integral number, never truncated, and a bool is not one;
    # the tolerance is a number.  Each names its field.
    for field, value in [
        ("horizon", 2.5), ("horizon", "3"), ("horizon", True), ("horizon", float("inf")),
        ("max_iters", 2.5), ("max_iters", None), ("max_iters", False),
        ("max_iters", float("nan")), ("exploitability_tol", "1e-6"),
        ("exploitability_tol", None), ("exploitability_tol", True),
    ]:
        kwargs = {"horizon": 2, field: value}
        with pytest.raises(InvalidInputError, match=field):
            FPConfig(mu0=uniform_distribution(3), **kwargs)
    # The initial split and policy are read by the same rule.
    for mu0 in ([True, False], ["0.5", "0.5"]):
        with pytest.raises(InvalidInputError, match="initial distribution must be a number"):
            FPConfig(mu0=mu0, horizon=2)
    with pytest.raises(InvalidInputError, match="initial policy must be a number"):
        FPConfig(mu0=[1.0, 0.0], horizon=1, initial_policy=[[[True, False], [False, True]]])
    cfg = FPConfig(mu0=uniform_distribution(3), horizon=2.0, max_iters=np.int64(3))
    assert (cfg.horizon, cfg.max_iters) == (2, 3)
    assert type(cfg.horizon) is int and type(cfg.max_iters) is int
    with pytest.raises(InvalidInputError):
        FPConfig(mu0=uniform_distribution(3), horizon=2,
                 initial_policy=uniform_policy_seq(3, 3))
    with pytest.raises(InvalidInputError):
        FPConfig(mu0=uniform_distribution(3), horizon=2,
                 initial_policy=uniform_policy_seq(2, 2))


def test_fictitious_play_rejects_a_mu0_of_the_wrong_length(route_cm_e1t1):
    with pytest.raises(InvalidInputError, match="dimension does not match"):
        fictitious_play(route_cm_e1t1, FPConfig(mu0=uniform_distribution(3), horizon=2))


def test_one_shot_convergence_without_congestion():
    # mu-independent costs: the first best response is globally optimal.
    cm = make_table_cost_model([0.5, 1.0, 0.2, 0.9],
                               np.full((4, 4), 0.4) - 0.4 * np.eye(4), theta=2.0)
    report = fictitious_play(
        cm, FPConfig(mu0=uniform_distribution(4), horizon=6,
                     exploitability_tol=1e-9),
    )
    assert report.converged
    assert report.iterations_run == 1
    assert len(report.exploitability_trace) == 1
    assert report.exploitability_trace[0] <= 1e-9


def test_fictitious_play_report_invariants(route_cm_e1t1, grid9_mu0):
    cfg = FPConfig(mu0=grid9_mu0, horizon=30, max_iters=40,
                   exploitability_tol=1e-9)
    report = fictitious_play(route_cm_e1t1, cfg)
    assert not report.converged
    assert report.iterations_run == 40
    assert len(report.exploitability_trace) == 40
    assert min(report.exploitability_trace) >= -1e-9
    assert dist_distance(forward_propagate(report.avg_policy, grid9_mu0),
                        report.avg_mf) <= 1e-10
    assert np.max(np.abs(report.avg_policy.sum(axis=2) - 1.0)) < 1e-12
    assert np.max(np.abs(report.avg_mf.sum(axis=1) - 1.0)) < 1e-12
    assert report.value_seq.shape == (31, 6)
    assert np.allclose(report.value_seq[30], 0.0)


def test_fictitious_play_deterministic(route_cm_e1t1, grid9_mu0):
    # bottleneck_e1t20 (M = 40) runs the day loop, route_e1t1 the prefix
    # products; both share one buffer between the held pass and the fold.
    _, bottleneck_cm, _, bottleneck_fp = shipped_model("bottleneck_e1t20")
    runs = [
        (route_cm_e1t1, FPConfig(mu0=grid9_mu0, horizon=30, max_iters=25,
                                 exploitability_tol=1e-9)),
        (bottleneck_cm, FPConfig(mu0=bottleneck_fp.mu0, horizon=bottleneck_fp.horizon,
                                 max_iters=5, exploitability_tol=1e-9)),
    ]
    for cm, cfg in runs:
        a = fictitious_play(cm, cfg)
        b = fictitious_play(cm, cfg)
        assert a.exploitability_trace == b.exploitability_trace
        assert np.array_equal(a.avg_mf, b.avg_mf)
        assert np.array_equal(a.avg_policy, b.avg_policy)
        assert np.array_equal(a.value_seq, b.value_seq)


def test_incremental_average_matches_rescan(monkeypatch, route_cm_e1t1, grid9_mu0):
    # The solver's running averages must agree with recomputing the
    # occupancy-weighted formula from the stored iterates, and the first
    # iterate's flow must replace the start outright.  The flows are the
    # solver's own, pushed through the sweep's factors (u, z); they match
    # forward_propagate of the best responses up to rounding.
    from mfgcommute.core import backward_induction

    flows = []
    push = fictitious._forward_propagate_core

    def captured(*args):
        flows.append(push(*args))
        return flows[-1].copy()

    monkeypatch.setattr(fictitious, "_forward_propagate_core", captured)

    n, m = 30, 6

    def run(iters):
        cfg = FPConfig(mu0=grid9_mu0, horizon=n, max_iters=iters, exploitability_tol=1e-12)
        return fictitious_play(route_cm_e1t1, cfg)

    report = run(8)
    assert len(flows) == 8
    start = forward_propagate(uniform_policy_seq(n, m), grid9_mu0)
    avg_mf = start
    history = []
    for j, mf in enumerate(flows, start=1):
        _, pol = backward_induction(avg_mf, route_cm_e1t1)
        assert np.max(np.abs(mf - forward_propagate(pol, grid9_mu0))) <= 1e-15
        history.append((mf, pol))
        avg_mf = ((j - 1) / j) * avg_mf + (1.0 / j) * mf
    snapshot = [(mf.copy(), pol.copy()) for mf, pol in history]
    rescan = rescan_average_policy(history, 8)
    # The package's own rescan meets the same reference and must not share
    # the loop's in-place fold.
    assert np.max(np.abs(fp_average_policy(history, 8) - rescan)) <= 4 * np.finfo(float).eps
    for (mf, pol), (mf_was, pol_was) in zip(history, snapshot):
        assert np.array_equal(mf, mf_was) and np.array_equal(pol, pol_was)

    # The loop folds the factors of each best response, not its tables, so
    # its average policy meets the rescan up to rounding.
    assert np.max(np.abs(report.avg_policy - rescan)) <= 4 * np.finfo(float).eps
    assert np.array_equal(report.avg_mf, avg_mf)
    first_flow = history[0][0]
    assert not np.array_equal(first_flow, start)
    assert np.array_equal(run(1).avg_mf, first_flow)


def test_fictitious_play_leaves_its_inputs_unchanged(route_cm_e1t1, route_cm_e0t1, grid9_mu0):
    # The loop folds each best response into its sums in place; no array of
    # the caller's may take part in that, on the day loop (route_e1t1) or the
    # batched branch of a separable model (route_e0t1).
    for cm in (route_cm_e1t1, route_cm_e0t1):
        start = np.random.default_rng(7).dirichlet(np.ones(cm.M), size=(30, cm.M))
        cfg = FPConfig(mu0=grid9_mu0, horizon=30, max_iters=5, exploitability_tol=1e-12,
                       initial_policy=start)
        inputs = (cfg.mu0, cfg.initial_policy, cm.kernel, cm.inertia_matrix)
        if cm.kernel_row is not None:
            inputs += (cm.kernel_row,)
        snapshot = [a.copy() for a in inputs]
        fictitious_play(cm, cfg)
        assert all(np.array_equal(a, was) for a, was in zip(inputs, snapshot))


@pytest.mark.parametrize("case", ["route_e1t1", "bottleneck_e1t20", "table_with_empty_rows"])
def test_trace_matches_exploitability_of_each_prefix(
    case, route_cm_e1t1, grid9_mu0
):
    # Intermediate trace entries come from the occupancy form, the last one
    # from the backward-sweep certificate; both must price the same pair.
    # The bottleneck's 40 options check the occupancy sums at full size.
    if case == "route_e1t1":
        cm, mu0 = route_cm_e1t1, grid9_mu0
    elif case == "bottleneck_e1t20":
        _, cm, _, fp = shipped_model("bottleneck_e1t20")
        mu0 = fp.mu0
    else:
        # Linear congestion keeps FP from converging in a few iterations; the
        # zero entry of mu0 leaves day-0 occupancy rows empty.
        coupling = np.array([[2.0, 0.5, 0.0, 0.3],
                             [0.5, 1.5, 0.4, 0.0],
                             [0.0, 0.4, 2.5, 0.6],
                             [0.3, 0.0, 0.6, 1.0]])
        cm = make_table_cost_model([0.5, 1.0, 0.2, 0.9],
                                   np.full((4, 4), 0.4) - 0.4 * np.eye(4), theta=2.0,
                                   coupling=coupling)
        mu0 = np.array([0.5, 0.0, 0.3, 0.2])
    n = 30
    trace = fictitious_play(
        cm, FPConfig(mu0=mu0, horizon=n, max_iters=12, exploitability_tol=1e-12)
    ).exploitability_trace
    assert len(trace) == 12
    for k in range(1, 13):
        report = fictitious_play(
            cm, FPConfig(mu0=mu0, horizon=n, max_iters=k, exploitability_tol=1e-12)
        )
        certified = exploitability(report.avg_policy, report.avg_mf, cm, mu0)
        assert report.exploitability_trace[-1] == certified
        assert trace[k - 1] == pytest.approx(certified, rel=1e-9)
    if case == "table_with_empty_rows":
        assert report.avg_mf[0, 1] == 0.0


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(fictitious, name)

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(fictitious, name, counted)
    return calls


@pytest.mark.parametrize("case", ["unconverged", "one_shot"])
def test_average_policy_is_formed_and_swept_once_per_run(
    case, monkeypatch, route_cm_e1t1, grid9_mu0
):
    evaluations = _count_calls(monkeypatch, "_policy_evaluate_core")
    averages = _count_calls(monkeypatch, "_weighted_policy_average")
    if case == "unconverged":
        report = fictitious_play(
            route_cm_e1t1,
            FPConfig(mu0=grid9_mu0, horizon=30, max_iters=20, exploitability_tol=1e-9),
        )
        assert not report.converged and report.iterations_run == 20
    else:
        # The model of test_one_shot_convergence_without_congestion: it must
        # converge through the certificate too.
        cm = make_table_cost_model([0.5, 1.0, 0.2, 0.9],
                                   np.full((4, 4), 0.4) - 0.4 * np.eye(4), theta=2.0)
        report = fictitious_play(
            cm,
            FPConfig(mu0=uniform_distribution(4), horizon=6, exploitability_tol=1e-9),
        )
        assert report.converged and report.iterations_run == 1
    assert len(evaluations) == 1
    assert len(averages) == 1


def test_occupancy_form_stays_finite_at_the_kernel_limit():
    # theta * max d = 700, and option 2, where all mass starts, lies at the
    # largest switching cost from both options worth taking: its z is about
    # e^-700, so mf / z reaches e^700.  The fold keeps its sums scaled by
    # min K; unscaled, their x ln x passes the float range within 40
    # iterations.  Own-option congestion keeps play going.
    d = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 1.0], [1.0, 1.0, 0.0]])
    cm = make_table_cost_model([0.0, 0.3, 5.0], d, theta=700.0,
                               coupling=np.diag([1.0, 1.0, 0.0]))
    mu0 = np.array([0.0, 0.0, 1.0])

    def run(k):
        return fictitious_play(
            cm, FPConfig(mu0=mu0, horizon=2, max_iters=k, exploitability_tol=1e-300))

    trace = run(60).exploitability_trace
    assert len(trace) == 60 and np.isfinite(trace).all()
    for k in (20, 40, 60):
        report = run(k)
        certified = exploitability(report.avg_policy, report.avg_mf, cm, mu0)
        assert report.exploitability_trace[-1] == certified
        assert trace[k - 1] == pytest.approx(certified, rel=1e-9)

"""End-to-end acceptance gate.

Runs the shipped experiment configurations through the library and checks
every numbered criterion at its stated tolerance, printing one PASS/FAIL
line per criterion (run with ``pytest -v -s tests/test_acceptance.py``).

Two sub-checks are knowingly red and left failing on purpose; see the
module comments at the assertions:

* criterion 4 (last-day stabilization at 1e-3): the terminal condition
  gives the second-to-last policy a one-day lookahead, which detaches the
  final day from the stationary pattern by ~2e-3 no matter how tightly the
  equilibrium is solved;
* criterion 9b (exploitability non-increasing over the last 50
  iterations): the bottleneck_e0t20 equilibrium repels the averaging
  dynamics of fictitious play, so the exploitability oscillates around a
  plateau instead of decaying (``scripts/bottleneck_fp_stability.py``).
"""

from __future__ import annotations


import numpy as np
import pytest

from mfgcommute.core import (
    bellman_apply,
    dist_distance,
    forward_step,
    policy_evaluate,
    uniform_distribution,
)
from mfgcommute.fictitious import fictitious_play
from mfgcommute.route import path_costs
from mfgcommute.stationary import (
    augmented_cost_profile,
    logit_sue,
    omega_bound_check,
    smfe_residuals,
    solve_smfe,
    value_gap_check,
)
from mfgcommute.bottleneck import BottleneckSpec, delay_profile
from conftest import make_table_cost_model, shipped_model
from oracles import brute_forward_step, mc_policy_value, point_queue_delays

# Relative cost spread across routes on the last day of the shipped
# epsilon=0, theta=20 run, frozen from its first successful execution.
FROZEN_DUE_SPREAD = 0.0006423549683823964


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>3} {name}: {status} ({detail})"
    print(line)
    assert ok, line


def run_config(name):
    cfg, cm, scen, fp = shipped_model(name)
    return cfg, cm, scen, fictitious_play(cm, fp)


@pytest.fixture(scope="module")
def run_e1t1():
    return run_config("route_e1t1")


@pytest.fixture(scope="module")
def run_e0t1():
    return run_config("route_e0t1")


@pytest.fixture(scope="module")
def run_e0t20():
    return run_config("route_e0t20")


@pytest.fixture(scope="module")
def run_b0t20():
    return run_config("bottleneck_e0t20")


def test_criterion_01_second_day_sue(run_e0t1):
    cfg, cm, net, report = run_e0t1
    mu = report.avg_mf
    flats = []
    gaps = []
    for n in range(1, cfg.horizon):
        profile = augmented_cost_profile(mu[n], path_costs(mu[n], net), cfg.theta)
        flats.append(float(profile.max() - profile.min()))
        gaps.append(dist_distance(mu[n], mu[1]))
    ok = max(flats) <= 1e-3 and max(gaps) <= 1e-3
    _report(1, "second-day SUE", ok,
            f"max flatness {max(flats):.3e}, max d_f to day 1 {max(gaps):.3e}")


def test_criterion_02_due_limit(run_e0t20):
    cfg, cm, net, report = run_e0t20
    f29 = path_costs(report.avg_mf[29], net)
    spread = float((f29.max() - f29.min()) / f29.mean())
    ok = spread <= 0.05 and spread == pytest.approx(FROZEN_DUE_SPREAD, rel=1e-4)
    _report(2, "DUE cost spread", ok, f"relative spread {spread:.3e}")


def test_criterion_03_fictitious_play_convergence(run_e1t1):
    cfg, cm, net, report = run_e1t1
    trace = report.exploitability_trace
    first = trace[0]
    best = min(trace[:500])
    ok = best <= 1e-3 * first
    _report(3, "exploitability drop", ok,
            f"initial {first:.3e}, best within 500 iters {best:.3e}")


def test_criterion_04_stabilization_with_inertia(run_e1t1):
    cfg, cm, net, report = run_e1t1
    mu = report.avg_mf
    late = dist_distance(mu[28], mu[29])
    early = dist_distance(mu[0], mu[1])
    ok = late <= 1e-3 and early >= 0.05
    # Known red: the exact equilibrium has d_f(mu_28, mu_29) = 1.96e-3.  The
    # one-day-lookahead policy on the second-to-last day detaches the final
    # day from the stationary pattern; the 1e-3 target is below the model's
    # own terminal-boundary effect.
    _report(4, "stabilization with inertia", ok,
            f"d_f(mu28, mu29) {late:.3e}, d_f(mu0, mu1) {early:.3e}")


def test_criterion_05_last_day_policy_structure(run_e1t1):
    cfg, cm, net, report = run_e1t1
    pol = report.avg_policy[29]
    diag_std = float(np.std(np.diag(pol)))
    row_stds = [float(np.std(np.delete(pol[s], s))) for s in range(pol.shape[0])]
    ok = diag_std <= 1e-2 and max(row_stds) <= 1e-2
    _report(5, "last-day policy structure", ok,
            f"diag std {diag_std:.2e}, max off-diag row std {max(row_stds):.2e}")


def test_criterion_06_stationary_sue_correspondence(route_cm_e0t1, grid9):
    pair = solve_smfe(route_cm_e0t1)
    r1, r2 = smfe_residuals(pair, route_cm_e0t1)
    gap = dist_distance(pair.mu_bar, logit_sue(route_cm_e0t1))
    ok = gap <= 1e-7 and r1 <= 1e-8 and r2 <= 1e-8
    _report(6, "stationary pair is the logit SUE", ok,
            f"d_f {gap:.2e}, residuals ({r1:.2e}, {r2:.2e})")


def test_criterion_07_value_gap_bracket(route_cm_e1t1):
    pair = solve_smfe(route_cm_e1t1)
    ok = value_gap_check(pair, route_cm_e1t1)
    spread = float(pair.V_bar.max() - pair.V_bar.min())
    _report(7, "value/travel-cost gap bracket", ok, f"value spread {spread:.3f}")


def test_criterion_08_population_lower_bound(run_e0t1, run_e1t1, run_e0t20,
                                             run_b0t20):
    converged = []
    results = []
    for tag, (cfg, cm, scen, report) in (
        ("route_e0t1", run_e0t1), ("route_e1t1", run_e1t1),
        ("route_e0t20", run_e0t20), ("bottleneck_e0t20", run_b0t20),
    ):
        if report.converged:
            converged.append(tag)
            results.append(omega_bound_check(report.avg_mf, cm))
    ok = bool(converged) and all(results)
    _report(8, "population lower bound", ok,
            f"checked on converged runs {converged}")


def test_criterion_09a_bottleneck_stationary_days(run_b0t20):
    cfg, cm, spec, report = run_b0t20
    mu = report.avg_mf
    gap = max(dist_distance(mu[n], mu[1]) for n in range(1, cfg.horizon))
    _report("9a", "bottleneck day-1 stationarity", gap <= 5e-3,
            f"max d_f to day 1 {gap:.3e}")


def test_criterion_09b_bottleneck_exploitability_tail(run_b0t20):
    cfg, cm, spec, report = run_b0t20
    tail = report.exploitability_trace[-50:]
    increases = [k for k in range(len(tail) - 1) if tail[k + 1] > tail[k] + 1e-9]
    ok = not increases
    # Known red: fictitious play cannot converge here.  With epsilon = 0
    # every day 1..29 is the static logit fixed point mu = softmax(-theta
    # f(mu)), and fictitious play on it is the method of successive
    # averages.  scripts/bottleneck_fp_stability.py solves that fixed point
    # (residual 7e-15, Vickrey departure rates) and finds best-response
    # Jacobian eigenvalues 19.95 +- 73.32i there: real part far above 1, so
    # the point repels the averaging.  Run for 3000 iterations, the
    # exploitability changes direction 89 times and stays between 8.36 and
    # 14.34 after iteration 500; at the shipped 500 iterations it ends at
    # 10.18 and rises at 49 of the last 50 steps.
    _report("9b", "bottleneck exploitability tail", ok,
            f"final {tail[-1]:.2f}, {len(increases)} increases in last 50")


def test_criterion_09c_bottleneck_delay_oracle(run_b0t20):
    cfg, cm, spec, report = run_b0t20
    rng = np.random.default_rng(93)
    worst = 0.0
    for _ in range(1000):
        mu = rng.dirichlet(np.ones(spec.M) * rng.uniform(0.3, 3.0))
        got = delay_profile(mu, spec)
        want = point_queue_delays(mu, spec.normalized_capacity, spec.slice_hours)
        worst = max(worst, float(np.max(np.abs(got - want))))
    _report("9c", "bottleneck delay oracle", worst <= 1e-10,
            f"max deviation {worst:.2e} hours")


def test_criterion_10a_monte_carlo_policy_value():
    rng = np.random.default_rng(100)
    m, n = 3, 4
    f_table = rng.random(m) * 2
    coupling = rng.random((m, m)) * 0.5
    d_table = rng.random((m, m))
    np.fill_diagonal(d_table, 0.0)
    cm = make_table_cost_model(f_table, d_table, theta=1.5, coupling=coupling)
    pi = rng.dirichlet(np.ones(m), size=(n, m))
    mu = np.vstack([uniform_distribution(m)[None, :],
                    rng.dirichlet(np.ones(m), size=n - 1)])
    values = policy_evaluate(pi, mu, cm)
    worst_z = 0.0
    for s in range(m):
        est, se = mc_policy_value(pi, mu, cm, s, 1_000_000, rng)
        worst_z = max(worst_z, abs(est - values[0][s]) / se)
    _report("10a", "Monte-Carlo rollout oracle", worst_z <= 3.0,
            f"worst |z| {worst_z:.2f} over {m} start states")


def test_criterion_10b_point_queue_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        spec = BottleneckSpec(M=m, L=float(rng.uniform(1, 4)),
                              capacity=float(rng.uniform(500, 5000)),
                              demand=6000, alpha=10, beta=5, gamma=15,
                              r=1.0, epsilon=0.0)
        mu = rng.dirichlet(np.ones(m) * rng.uniform(0.3, 3.0))
        got = delay_profile(mu, spec)
        want = point_queue_delays(mu, spec.normalized_capacity, spec.slice_hours)
        worst = max(worst, float(np.max(np.abs(got - want))))
    _report("10b", "point-queue oracle", worst <= 1e-10,
            f"max deviation {worst:.2e} hours")


def test_criterion_10c_forward_step_exact():
    rng = np.random.default_rng(102)
    exact = True
    for _ in range(1000):
        m = int(rng.integers(2, 41))
        mu = rng.dirichlet(np.ones(m))
        pi = rng.dirichlet(np.ones(m), size=m)
        exact = exact and np.array_equal(forward_step(pi, mu),
                                         brute_forward_step(pi, mu))
    _report("10c", "forward step exactness", exact, "1000 random instances")


def test_criterion_11_invariant_suite():
    from oracles import concavity_check

    rng = np.random.default_rng(110)
    failures = {"concavity": 0, "3C": 0, "translation": 0,
                "rows": 0, "fifo": 0, "sdsue": 0}

    for _ in range(1000):
        m = int(rng.integers(2, 6))
        theta = float(rng.uniform(0.3, 4.0))
        f_table = rng.random(m) * 2
        coupling = rng.random((m, m)) / m
        d_table = rng.random((m, m)) * 2
        cm = make_table_cost_model(f_table, d_table, theta, coupling)
        mu = rng.dirichlet(np.ones(m))
        v = rng.random(m) * 4 - 2
        v_alt = rng.random(m) * 4 - 2

        if not concavity_check(v, v_alt, mu, cm):
            failures["concavity"] += 1

        backed, pi = bellman_apply(v, mu, cm)
        if float(backed.max() - backed.min()) > 3.0 * cm.bound_C + 1e-9:
            failures["3C"] += 1

        c = float(rng.uniform(-5, 5))
        shifted, pi_shift = bellman_apply(v + c, mu, cm)
        if (np.max(np.abs(shifted - backed - c)) > 1e-11
                or np.max(np.abs(pi_shift - pi)) > 1e-12):
            failures["translation"] += 1

        if (np.max(np.abs(pi.sum(axis=1) - 1.0)) > 1e-12
                or np.any(pi < 0.0) or np.any(pi > 1.0)):
            failures["rows"] += 1

    rng_f = np.random.default_rng(111)
    for _ in range(1000):
        m = int(rng_f.integers(2, 12))
        spec = BottleneckSpec(M=m, L=float(rng_f.uniform(1, 4)),
                              capacity=float(rng_f.uniform(500, 5000)),
                              demand=6000, alpha=10, beta=5, gamma=15,
                              r=1.0, epsilon=0.0)
        mu = rng_f.dirichlet(np.ones(m) * rng_f.uniform(0.3, 3.0))
        arrival = spec.slice_positions() + delay_profile(mu, spec)
        if np.any(np.diff(arrival) < -1e-12):
            failures["fifo"] += 1

    rng_s = np.random.default_rng(112)
    for _ in range(1000):
        m = int(rng_s.integers(2, 8))
        pi = rng_s.dirichlet(np.ones(m), size=m)
        stat = np.linalg.matrix_power(pi, 512)[0]
        stat = stat / stat.sum()
        if dist_distance(forward_step(pi, stat), stat) > 1e-9:
            failures["sdsue"] += 1

    ok = all(v == 0 for v in failures.values())
    _report(11, "invariant suite", ok, f"failures {failures}")

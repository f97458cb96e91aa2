from __future__ import annotations


import json
from dataclasses import replace

import numpy as np
import pytest

from mfgcommute.core import InvalidInputError, dist_distance, uniform_distribution
from mfgcommute.fictitious import FPConfig, fictitious_play
from mfgcommute.route import (
    RoadNetwork,
    RouteInertiaSpec,
    link_flows,
    load_network,
    path_costs,
    route_cost_model,
)
from mfgcommute.stationary import augmented_cost_profile, logit_sue
from oracles import brute_overlap_inertia

# Link table and path-link relationship of the nine-node grid, kept inline so
# the tests do not trust the shipped scenario file.
GRID_LINKS = [
    (600, 0.23, 15), (600, 0.29, 12), (600, 0.22, 14), (500, 0.18, 12),
    (900, 0.21, 14), (600, 0.20, 17), (500, 0.16, 17), (500, 0.24, 19),
    (500, 0.18, 11), (800, 0.19, 17), (700, 0.23, 10), (600, 0.16, 16),
]
GRID_PATHS = [
    (0, 1, 4, 9), (0, 3, 6, 9), (0, 3, 8, 11),
    (2, 7, 10, 11), (2, 5, 8, 11), (2, 5, 6, 9),
]


def test_shipped_network_matches_reference_tables(grid9):
    assert grid9.demand == 2000
    assert np.array_equal(
        np.column_stack([grid9.capacity, grid9.coef, grid9.free_flow]), GRID_LINKS
    )
    assert list(grid9.paths) == [tuple(p) for p in GRID_PATHS]


def test_link_flows_one_hot(grid9):
    mu = np.zeros(6)
    mu[0] = 1.0
    v = link_flows(mu, grid9)
    for l in range(12):
        assert v[l] == (2000.0 if l in GRID_PATHS[0] else 0.0)


def test_link_flows_uniform_share(grid9):
    v = link_flows(uniform_distribution(6), grid9)
    # link 0 lies on paths 0, 1, 2
    assert v[0] == pytest.approx(2000 * 3 / 6, abs=1e-9)
    # every link here is used by exactly three paths
    assert v.sum() == pytest.approx(2000 * 4, rel=1e-12)


def test_link_flows_dimension_mismatch(grid9):
    with pytest.raises(InvalidInputError):
        link_flows(np.array([1.0, 0.0]), grid9)


def one_link(c, b, t0, demand):
    return RoadNetwork(capacity=[c], coef=[b], free_flow=[t0], paths=[[0]], demand=demand)


def bpr(c, b, t0, v):
    """BPR time of a one-link, one-path network whose whole demand v uses it."""
    return path_costs([1.0], one_link(c, b, t0, v))[0]


def test_bpr_time_table_values():
    assert path_costs([0.0], one_link(600, 0.23, 15, 600.0))[0] == 15.0
    assert bpr(600, 0.23, 15, 600.0) == pytest.approx(18.45, abs=1e-12)
    assert bpr(700, 0.23, 10, 1400.0) == pytest.approx(46.8, abs=1e-12)


def test_bpr_monotone_in_flow():
    rng = np.random.default_rng(0)
    for _ in range(200):
        c, b, t0 = rng.uniform(300, 900), rng.uniform(0.1, 0.3), rng.uniform(5, 20)
        v = np.sort(rng.uniform(0, 2500, size=2))
        assert bpr(c, b, t0, v[0]) <= bpr(c, b, t0, v[1])


def test_path_cost_single_path_pileup(grid9):
    for s, path in enumerate(GRID_PATHS):
        mu = np.zeros(6)
        mu[s] = 1.0
        expected = sum(
            t0 * (1 + b * (2000.0 / c) ** 4)
            for c, b, t0 in (GRID_LINKS[l] for l in path)
        )
        assert path_costs(mu, grid9)[s] == pytest.approx(expected, rel=1e-12)


def test_path_cost_free_flow_limit(grid9):
    tiny = replace(grid9, demand=1e-9)
    costs = path_costs(uniform_distribution(6), tiny)
    assert costs[0] == pytest.approx(15 + 12 + 14 + 17, abs=1e-9)


def test_path_cost_monotone_in_own_share(grid9):
    rng = np.random.default_rng(1)
    for _ in range(100):
        mu = rng.dirichlet(np.ones(6))
        s = int(rng.integers(6))
        bump = 0.1 * (1 - mu[s])
        shifted = mu * (1 - bump / max(1 - mu[s], 1e-12))
        shifted[s] = mu[s] + bump
        shifted /= shifted.sum()
        assert path_costs(shifted, grid9)[s] >= path_costs(mu, grid9)[s] - 1e-9


def test_inertia_specs(grid9):
    ind = RouteInertiaSpec("indicator", 0.8).matrix(grid9)
    assert np.all(np.diag(ind) == 0.0)
    assert np.all(ind[~np.eye(6, dtype=bool)] == 0.8)

    ovl = RouteInertiaSpec("overlap", 2.0).matrix(grid9)
    assert np.all(np.diag(ovl) == 0.0)
    # paths 0 and 1 share links {0, 9} out of 6 distinct links
    assert ovl[0, 1] == pytest.approx(2.0 * (1 - 2 / 6), rel=1e-12)
    assert np.allclose(ovl, ovl.T)

    with pytest.raises(InvalidInputError):
        RouteInertiaSpec("nope", 1.0)
    with pytest.raises(InvalidInputError):
        RouteInertiaSpec("indicator", -0.1)


def test_overlap_inertia_matches_set_loop(grid9):
    rng = np.random.default_rng(5)
    nets = [grid9]
    for _ in range(50):
        n_links = int(rng.integers(1, 15))
        paths = [rng.choice(n_links, size=int(rng.integers(1, n_links + 1)), replace=False)
                 for _ in range(int(rng.integers(1, 9)))]
        nets.append(RoadNetwork(capacity=np.full(n_links, 500.0), coef=np.full(n_links, 0.2),
                                free_flow=np.full(n_links, 10.0), paths=paths, demand=100.0))
    for net in nets:
        for eps in (0.0, 1.0, 2.0, float(rng.uniform(0, 3))):
            got = RouteInertiaSpec("overlap", eps).matrix(net)
            assert np.array_equal(got, brute_overlap_inertia(net.paths, eps))


def test_route_cost_model_bound_dominates_costs(grid9, route_cm_e1t1):
    rng = np.random.default_rng(2)
    for _ in range(200):
        mu = rng.dirichlet(np.ones(6))
        f = route_cm_e1t1.cost(mu)
        assert np.all(f >= 0.0) and np.all(f <= route_cm_e1t1.bound_C)
    d = route_cm_e1t1.inertia_matrix
    assert np.all(d >= 0.0) and np.all(d <= route_cm_e1t1.bound_C)


def test_cost_model_batched_rows_equal_single_days(route_cm_e1t1):
    # Fictitious play prices a whole horizon in one call and the stationary
    # solver one day at a time; their results are comparable only while
    # every batched row equals the single-day call bit for bit.
    cm = route_cm_e1t1
    rng = np.random.default_rng(4)
    for _ in range(20):
        mu_seq = rng.dirichlet(np.ones(cm.M), size=30)
        batch = cm.cost(mu_seq)
        for n in range(30):
            assert np.array_equal(batch[n], cm.cost(mu_seq[n]))


def no_inertia(net, theta):
    return route_cost_model(net, theta, RouteInertiaSpec("indicator", 0.0))


def test_logit_sue_symmetric_parallel_links():
    net = RoadNetwork(capacity=[500, 500], coef=[0.2, 0.2], free_flow=[10, 10],
                      paths=((0,), (1,)), demand=800)
    assert np.allclose(logit_sue(no_inertia(net, 2.0)), [0.5, 0.5], atol=1e-10)


def test_logit_sue_flat_at_tiny_theta(grid9):
    mu = logit_sue(no_inertia(grid9, 1e-6))
    assert dist_distance(mu, uniform_distribution(6)) < 1e-4


def test_logit_sue_equalizes_augmented_cost(grid9):
    mu = logit_sue(no_inertia(grid9, 1.0))
    profile = augmented_cost_profile(mu, path_costs(mu, grid9), 1.0)
    assert profile.max() - profile.min() <= 1e-8


def test_network_validation():
    good = dict(capacity=[500, 500], coef=[0.2, 0.2], free_flow=[10, 10],
                paths=((0, 1),), demand=100)
    assert RoadNetwork(**good).incidence.tolist() == [[1.0, 1.0]]
    for bad in [
        {"paths": ((0, 3),)},
        {"paths": ((0, 0, 1),)},  # a repeated link would be costed once
        {"paths": ((),)},
        {"demand": 0.0},
        {"capacity": [0.0, 500]},
        {"coef": [-0.2, 0.2]},
        {"coef": [0.2, float("nan")]},
        {"free_flow": [10, -1]},
        {"free_flow": [float("nan"), 10]},
        {"coef": [0.2]},  # one entry per link
    ]:
        with pytest.raises(InvalidInputError):
            RoadNetwork(**{**good, **bad})


def test_load_network_malformed(tmp_path):
    bad = tmp_path / "net.json"
    bad.write_text('{"links": [{"c": 1}], "paths": [[0]], "demand": 5}')
    with pytest.raises(InvalidInputError):
        load_network(bad)
    bad.write_text('{"links": [{"c": 1')  # truncated JSON
    with pytest.raises(InvalidInputError):
        load_network(bad)
    link = '{"c": 1, "b": 0.2, "t0": 1}'
    for paths, demand in [("[[0, 1.9]]", "5"), ("[[true]]", "5"), ("[[0]]", "true"),
                          ('[["1"]]', "5"), ("[[0]]", '"5"'), ("[[0]]", "Infinity")]:
        bad.write_text(f'{{"links": [{link}, {link}], "paths": {paths}, "demand": {demand}}}')
        with pytest.raises(InvalidInputError, match="net.json"):
            load_network(bad)
    # A number in a string, Infinity and NaN are not finite JSON numbers.
    for other in ('{"c": 1, "b": "0.15", "t0": 1}', '{"c": 1, "b": 0.2, "t0": Infinity}',
                  '{"c": NaN, "b": 0.2, "t0": 1}', '{"c": 1, "b": -Infinity, "t0": 1}'):
        bad.write_text(f'{{"links": [{link}, {other}], "paths": [[0, 1]], "demand": 5}}')
        with pytest.raises(InvalidInputError, match="net.json"):
            load_network(bad)


def test_load_network_non_numeric_field_names_the_file(tmp_path, repo_root):
    raw = json.loads((repo_root / "scenarios" / "grid9.json").read_text())
    raw["links"][0]["c"] = "abc"
    bad = tmp_path / "net.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(InvalidInputError, match="net.json"):
        load_network(bad)


def test_link_flow_evolution_unique_across_initial_policies(grid9, grid9_mu0, route_cm_e1t1):
    # Stay-put and rotate-by-one initial policies lead to the same link flows.
    n, m = 30, 6
    stay = np.tile(np.eye(m), (n, 1, 1))
    rotate = np.tile(np.roll(np.eye(m), 1, axis=1), (n, 1, 1))
    flows = []
    for pol0 in (stay, rotate):
        rep = fictitious_play(
            route_cm_e1t1,
            FPConfig(mu0=grid9_mu0, horizon=n, max_iters=500,
                     exploitability_tol=1e-6, initial_policy=pol0),
        )
        flows.append(link_flows(rep.avg_mf, grid9))
    assert np.max(np.abs(flows[0] - flows[1])) <= 1e-3 * grid9.demand


def test_logit_sue_cap_raises_with_residual(grid9):
    from mfgcommute.core import SolverFailure

    # The solve ends near 1e-15 here; a tolerance below rounding is a
    # failure that must carry the residual it stopped at.
    with pytest.raises(SolverFailure) as exc:
        logit_sue(no_inertia(grid9, 1.0), tol=1e-17)
    assert exc.value.residual is not None and exc.value.residual > 0.0

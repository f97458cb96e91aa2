from __future__ import annotations

import json

import numpy as np
import pytest

from mfgcommute.bottleneck import (
    BottleneckSpec,
    bottleneck_cost_model,
    delay_profile,
    departure_costs,
    load_spec,
)
from mfgcommute.core import InvalidInputError, dist_distance
from oracles import point_queue_delays

GUO = dict(M=40, L=3.0, capacity=3000, demand=6000,
           alpha=10, beta=5, gamma=15, r=2.0, epsilon=1.0)


@pytest.fixture(scope="module")
def guo():
    return BottleneckSpec(**GUO)


def test_shipped_spec_matches_reference(repo_root, guo):
    spec = load_spec(repo_root / "scenarios" / "bottleneck_guo2018.json")
    assert spec == guo
    assert spec.slice_hours == pytest.approx(0.075)
    assert spec.normalized_capacity == pytest.approx(0.0375)


def test_delay_two_slice_worked_example():
    # C_b = 0.25 with everything in the first slice: the running minimum
    # cancels both terms, so both slices see zero delay.
    spec = BottleneckSpec(M=2, L=2.0, capacity=1500, demand=6000,
                          alpha=10, beta=5, gamma=15, r=1.0, epsilon=0.0)
    assert spec.normalized_capacity == pytest.approx(0.25)
    t = delay_profile(np.array([1.0, 0.0]), spec)
    assert np.allclose(t, [0.0, 0.0], atol=1e-15)
    # split arrivals: the second slice queues behind the first
    t = delay_profile(np.array([0.5, 0.5]), spec)
    assert t[0] == 0.0
    assert t[1] == pytest.approx(1.0 * spec.slice_hours, abs=1e-12)


def test_delay_single_slice_concentration(guo):
    mu = np.zeros(40)
    mu[13] = 1.0
    t = delay_profile(mu, guo)
    oracle = point_queue_delays(mu, guo.normalized_capacity, guo.slice_hours)
    assert np.allclose(t, oracle, atol=1e-10)
    assert t[13] == pytest.approx((1 / guo.normalized_capacity - 1) * guo.slice_hours,
                                  rel=1e-12)


def test_delay_matches_point_queue_oracle_randomized(guo):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        spec = BottleneckSpec(M=m, L=float(rng.uniform(1, 4)),
                              capacity=float(rng.uniform(500, 5000)),
                              demand=6000, alpha=10, beta=5, gamma=15,
                              r=1.0, epsilon=0.0)
        mu = rng.dirichlet(np.ones(m) * rng.uniform(0.3, 3.0))
        got = delay_profile(mu, spec)
        want = point_queue_delays(mu, spec.normalized_capacity, spec.slice_hours)
        assert np.max(np.abs(got - want)) <= 1e-10
        assert np.all(got >= 0.0)


def test_delay_zero_when_under_capacity(guo):
    # uniform load 0.025 stays below C_b = 0.0375 every slice
    mu = np.full(40, 1.0 / 40.0)
    assert np.allclose(delay_profile(mu, guo), 0.0, atol=1e-15)


def test_fifo_no_overtaking(guo):
    rng = np.random.default_rng(1)
    s_h = guo.slice_positions()
    for _ in range(300):
        mu = rng.dirichlet(np.ones(40) * rng.uniform(0.2, 2.0))
        arrival = s_h + delay_profile(mu, guo)
        assert np.all(np.diff(arrival) >= -1e-12)


def test_departure_cost_scheduling_arithmetic():
    # 0.1-hour slices put the desired arrival and round offsets on the grid.
    spec = BottleneckSpec(M=30, L=3.0, capacity=3000, demand=6000,
                          alpha=10, beta=5, gamma=15, r=2.0, epsilon=1.0)
    mu = np.full(30, 1.0 / 30.0)  # below capacity: zero queue
    assert np.allclose(delay_profile(mu, spec), 0.0, atol=1e-15)
    f = departure_costs(mu, spec)
    assert f[20] == pytest.approx(0.0, abs=1e-12)
    assert f[10] == pytest.approx(5.0, abs=1e-12)  # 1 h early
    assert f[25] == pytest.approx(7.5, abs=1e-12)  # 0.5 h late
    assert np.all(f >= 0.0)


def test_shift_inertia_values(guo):
    d = bottleneck_cost_model(guo, 20.0).inertia_matrix
    assert d.shape == (40, 40)
    assert d[7, 7] == 0.0
    assert d[12, 13] == pytest.approx(0.075, rel=1e-12)
    assert d[0, 39] == pytest.approx(2.925, rel=1e-12)
    assert d[5, 9] == d[9, 5]


def test_cost_lipschitz_in_mean_field(guo):
    # |f(s,mu) - f(s,mu')| <= (alpha+gamma) * 2L/C_b * d_f(mu,mu')
    k = (guo.alpha + guo.gamma) * 2.0 * guo.L / guo.normalized_capacity
    rng = np.random.default_rng(2)
    for _ in range(300):
        a = rng.dirichlet(np.ones(40))
        b = rng.dirichlet(np.ones(40))
        gap = np.max(np.abs(departure_costs(a, guo) - departure_costs(b, guo)))
        assert gap <= k * dist_distance(a, b) + 1e-12


def test_cost_model_bound_dominates(guo):
    cm = bottleneck_cost_model(guo, 20.0)
    rng = np.random.default_rng(3)
    for _ in range(300):
        mu = rng.dirichlet(np.ones(40) * rng.uniform(0.2, 2.0))
        f = cm.cost(mu)
        assert np.all(f >= 0.0) and np.all(f <= cm.bound_C)
    d = cm.inertia_matrix
    assert np.all(d >= 0.0) and np.all(d <= cm.bound_C)


def test_cost_model_batched_rows_equal_single_days(guo):
    # Fictitious play prices a whole horizon in one call and the stationary
    # solver one day at a time; their results are comparable only while
    # every batched row equals the single-day call bit for bit.
    cm = bottleneck_cost_model(guo, 20.0)
    rng = np.random.default_rng(4)
    for _ in range(20):
        mu_seq = rng.dirichlet(np.ones(cm.M), size=30)
        batch = cm.cost(mu_seq)
        for n in range(30):
            assert np.array_equal(batch[n], cm.cost(mu_seq[n]))


def test_cost_model_inertia_matches_shift_inertia(guo):
    cm = bottleneck_cost_model(guo, 20.0)
    expected = [[guo.epsilon * abs(s - x) * guo.slice_hours for x in range(guo.M)]
                for s in range(guo.M)]
    assert np.array_equal(cm.inertia_matrix, np.array(expected))


def test_spec_validation_and_ordering_warning():
    with pytest.raises(InvalidInputError):
        BottleneckSpec(M=0, L=3.0, capacity=3000, demand=6000,
                       alpha=10, beta=5, gamma=15, r=2.0, epsilon=1.0)
    with pytest.raises(InvalidInputError):
        BottleneckSpec(M=40, L=3.0, capacity=3000, demand=6000,
                       alpha=10, beta=5, gamma=15, r=4.0, epsilon=1.0)
    with pytest.raises(InvalidInputError, match="capacity"):
        BottleneckSpec(**{**GUO, "capacity": 0})
    with pytest.raises(InvalidInputError, match="epsilon"):
        BottleneckSpec(**{**GUO, "epsilon": -1})
    for cost in ("alpha", "beta", "gamma"):
        for bad in (-5.0, float("nan")):
            with pytest.raises(InvalidInputError):
                BottleneckSpec(**{**GUO, cost: bad})
    with pytest.warns(UserWarning):
        BottleneckSpec(M=40, L=3.0, capacity=3000, demand=6000,
                       alpha=10, beta=12, gamma=15, r=2.0, epsilon=1.0)


def test_delay_profile_rejects_a_mean_field_of_the_wrong_length(guo):
    with pytest.raises(InvalidInputError, match="40 entries"):
        delay_profile(np.full(guo.M - 1, 1.0 / (guo.M - 1)), guo)
    # A 0-d mean field has no entry per slice either.
    for f in (delay_profile, departure_costs):
        with pytest.raises(InvalidInputError, match="40 entries"):
            f(0.5, guo)


def test_spec_rejects_non_finite_fields_by_name():
    # load_spec passes the file's values to the dataclass, whose number rule
    # (core._number) rejects these by name.
    for field in GUO:
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidInputError, match=f"{field} must be finite"):
                BottleneckSpec(**{**GUO, field: value})


def test_spec_rejects_a_non_numeric_field_by_name():
    # A number in a string, None or a bool is not a number; the dataclass
    # names the field rather than raising numpy's TypeError.
    for field, value in [("M", "40"), ("L", "3.0"), ("demand", None), ("L", True),
                         ("epsilon", np.False_)]:
        with pytest.raises(InvalidInputError, match=f"{field} must be a number"):
            BottleneckSpec(**{**GUO, field: value})


def test_spec_rejects_a_non_integer_slice_count_by_name():
    # M is an int field: a fraction or a bool is rejected by name, not left
    # to np.eye in bottleneck_cost_model, and an integral number is stored as
    # its int, as load_spec reads "M": 40.0.
    for value, what in [(40.7, "an integer"), (True, "a number"), (False, "a number")]:
        with pytest.raises(InvalidInputError, match=f"M must be {what}"):
            BottleneckSpec(**{**GUO, "M": value})
    for value in (40.0, np.int64(40)):
        spec = BottleneckSpec(**{**GUO, "M": value})
        assert spec == BottleneckSpec(**GUO) and type(spec.M) is int


def test_load_spec_malformed(tmp_path):
    bad = tmp_path / "spec.json"
    bad.write_text('{"M": 40}')
    with pytest.raises(InvalidInputError):
        load_spec(bad)
    bad.write_text('{"M": 40, "L"')  # truncated JSON
    with pytest.raises(InvalidInputError):
        load_spec(bad)
    # 40.7 slices are not 40, JSON's true is not one slice or one hour, and
    # a number in a string, Infinity or NaN is not a finite JSON number.
    for field, value in [("M", 40.7), ("M", True), ("M", float("inf")), ("L", True),
                         ("M", "40"), ("L", "1.5"), ("alpha", float("nan")),
                         ("demand", float("inf")), ("beta", float("-inf"))]:
        bad.write_text(json.dumps({**GUO, field: value}))
        with pytest.raises(InvalidInputError, match="spec.json"):
            load_spec(bad)


def test_load_spec_rejects_a_slice_mapping_other_than_left(tmp_path, guo):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**GUO, "slice_mapping": "left"}))
    assert load_spec(path) == guo
    path.write_text(json.dumps({**GUO, "slice_mapping": "center"}))
    with pytest.raises(InvalidInputError, match="slice_mapping"):
        load_spec(path)


def test_load_spec_non_numeric_field_names_the_file(tmp_path, repo_root):
    raw = json.loads((repo_root / "scenarios" / "bottleneck_guo2018.json").read_text())
    raw["L"] = "abc"
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(InvalidInputError, match="spec.json"):
        load_spec(bad)

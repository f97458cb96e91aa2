"""Departure-time scenario: discrete point-queue bottleneck with scheduling cost.

States are the M slices of the departure window [0, L] hours.  Congestion is
queuing delay at a single bottleneck of normalized per-slice capacity
``C_b = (capacity / demand) * (L / M)`` (fraction of total demand served per
slice).  The daily cost adds the usual early/late scheduling penalties around
the shared desired arrival time; free-flow travel time is ignored.  Inertia
between days is proportional to the shift in departure time, in hours, so a
re-discretization at fixed L leaves costs unchanged.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import CostModel, InvalidInputError, _number

__all__ = [
    "BottleneckSpec",
    "delay_profile",
    "departure_costs",
    "bottleneck_cost_model",
    "load_spec",
]


@dataclass(frozen=True)
class BottleneckSpec:
    """Scenario parameters.

    M time slices over a window of L hours; capacity in veh/h against a total
    demand of ``demand`` commuters; alpha/beta/gamma cost per hour of delay,
    early arrival, late arrival; r the shared desired arrival time in hours;
    epsilon the inertia weight per hour of departure shift.  A slice is
    identified with its left edge when converted to hours.
    """

    M: int
    L: float
    capacity: float
    demand: float
    alpha: float
    beta: float
    gamma: float
    r: float
    epsilon: float

    def __post_init__(self):
        for f in fields(self):
            kind = int if f.name == "M" else float
            object.__setattr__(self, f.name, _number(getattr(self, f.name), f.name, kind))
        if self.M < 1 or self.L <= 0.0 or self.demand <= 0.0:
            raise InvalidInputError("M, L and demand must be positive")
        if self.normalized_capacity <= 0.0:
            raise InvalidInputError("normalized capacity must be positive")
        if not 0.0 <= self.r <= self.L:
            raise InvalidInputError("desired arrival must lie in the window")
        if self.epsilon < 0.0:
            raise InvalidInputError("epsilon must be non-negative")
        if not all(c >= 0.0 for c in (self.alpha, self.beta, self.gamma)):
            raise InvalidInputError("alpha, beta and gamma must be non-negative")
        if not self.beta < self.alpha < self.gamma:
            warnings.warn(
                "expected beta < alpha < gamma for a well-posed bottleneck",
                stacklevel=2,
            )

    @property
    def slice_hours(self) -> float:
        return self.L / self.M

    @property
    def normalized_capacity(self) -> float:
        return (self.capacity / self.demand) * (self.L / self.M)

    def slice_positions(self) -> np.ndarray:
        """Departure time of each slice in hours."""
        return np.arange(self.M, dtype=float) * self.slice_hours


def delay_profile(mu, spec: BottleneckSpec) -> np.ndarray:
    """Queuing delay of every slice, in hours.

    In slice units T(s) = cum(s)/C_b - s - min_{y<=s}(cum(y)/C_b - y) with
    cum the cumulative departure shares; the running minimum makes the sweep
    O(1) per slice.  Converted to hours via L/M on return.  Accepts a single
    (M,) mean field or a stacked (..., M) batch.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim == 0 or mu.shape[-1] != spec.M:
        raise InvalidInputError(f"mean field must have {spec.M} entries")
    g = np.cumsum(mu, axis=-1) / spec.normalized_capacity - np.arange(spec.M)
    return (g - np.minimum.accumulate(g, axis=-1)) * spec.slice_hours


def departure_costs(mu, spec: BottleneckSpec) -> np.ndarray:
    """Delay plus scheduling cost of every slice.

    alpha*T + beta*[r - s_h - T]_+ + gamma*[s_h + T - r]_+ with T the delay
    and s_h the slice position, both in hours.
    """
    t = delay_profile(mu, spec)
    s_h = spec.slice_positions()  # broadcasts over a stacked batch
    early = np.maximum(spec.r - s_h - t, 0.0)
    late = np.maximum(s_h + t - spec.r, 0.0)
    return spec.alpha * t + spec.beta * early + spec.gamma * late


def bottleneck_cost_model(spec: BottleneckSpec, theta: float) -> CostModel:
    """Cost model for the departure-time scenario.

    The uniform bound sweeps all single-slice-concentrated mean fields (the
    rows of the identity): the cost of any slice is piecewise linear in its
    delay, and both the maximal delay of a slice and the zero-delay corner
    are attained within that sweep, so the sweep maximum dominates the cost
    everywhere.  The inertia between slices s and x is
    epsilon * |s - x| * (L/M): hours of shift times the weight.
    """
    worst = float(departure_costs(np.eye(spec.M), spec).max())
    i = np.arange(spec.M)
    return CostModel(
        cost=lambda mu: departure_costs(mu, spec),
        inertia_matrix=spec.epsilon * np.abs(i[:, None] - i[None, :]) * spec.slice_hours,
        theta=theta,
        bound_C=worst + spec.epsilon * (spec.M - 1) * spec.slice_hours,
    )


def load_spec(path) -> BottleneckSpec:
    """Read a scenario file: {M, L, capacity, demand, alpha, beta, gamma, r, epsilon}."""
    try:
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError("the top level must be a JSON object")
        # A file asking for another mapping must not load as left edges.
        if raw.get("slice_mapping", "left") != "left":
            raise ValueError("a slice maps to its left edge; slice_mapping must be 'left'")
        return BottleneckSpec(**{f.name: raw[f.name] for f in fields(BottleneckSpec)})
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed scenario file {path}: {exc}") from exc

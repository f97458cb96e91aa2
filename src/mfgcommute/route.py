"""Route-choice scenario: fixed-demand single-OD network with BPR link times.

States are the enumerated paths of the network.  The daily travel cost of a
path is the sum of its link travel times at the link flows induced by the
current mean field, with the quartic BPR volume-delay function
``t0 * (1 + b * (v/c)^4)``.  Inertia between consecutive days is either a
flat penalty for switching paths or a penalty shrinking with path overlap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import CostModel, InvalidInputError, _number, _numbers

__all__ = [
    "RoadNetwork",
    "RouteInertiaSpec",
    "link_flows",
    "path_costs",
    "route_cost_model",
    "load_network",
]


@dataclass(eq=False)
class RoadNetwork:
    """Single-OD network given by explicit paths over a shared link set.

    ``capacity`` (veh/h), ``coef`` (BPR coefficient) and ``free_flow``
    (min) hold one entry per link; each path lists the indices of its
    links, none twice.  ``incidence`` is the (paths, links) 0/1 matrix
    delta[s, l] = 1 iff link l lies on path s.
    """

    capacity: np.ndarray
    coef: np.ndarray
    free_flow: np.ndarray
    paths: tuple[tuple[int, ...], ...]
    demand: float
    incidence: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.capacity = _numbers(self.capacity, "capacity")
        self.coef = _numbers(self.coef, "coef")
        self.free_flow = _numbers(self.free_flow, "free_flow")
        self.demand = _number(self.demand, "demand")
        try:
            self.paths = tuple(tuple(_number(i, "paths", int) for i in p) for p in self.paths)
        except TypeError:  # a path, or paths itself, is not a sequence
            raise InvalidInputError(
                f"paths must be a list of link-index lists, got {self.paths!r}"
            ) from None
        n_links = self.capacity.size
        if not self.capacity.shape == self.coef.shape == self.free_flow.shape == (n_links,):
            raise InvalidInputError("capacity, coef and free_flow need one entry per link")
        if not n_links or not self.paths:
            raise InvalidInputError("network needs at least one link and one path")
        if self.demand <= 0.0:
            raise InvalidInputError("demand must be positive")
        if not np.all(self.capacity > 0.0):
            raise InvalidInputError("link capacities must be positive")
        if not (np.all(self.coef >= 0.0) and np.all(self.free_flow >= 0.0)):
            raise InvalidInputError("BPR coefficients and free-flow times must be non-negative")
        self.incidence = np.zeros((len(self.paths), n_links))
        for s, p in enumerate(self.paths):
            if len(p) == 0:
                raise InvalidInputError("paths must be non-empty")
            if any(l < 0 or l >= n_links for l in p):
                raise InvalidInputError(f"path {p} references an unknown link")
            if len(set(p)) != len(p):
                raise InvalidInputError(f"path {p} repeats a link")
            self.incidence[s, list(p)] = 1.0

    @property
    def num_paths(self) -> int:
        return len(self.paths)


def link_flows(mu, net: RoadNetwork) -> np.ndarray:
    """Per-link flow v(l) = demand * sum_{s: l on s} mu(s), in veh/h.

    Accepts a single (paths,) mean field or a stacked (..., paths) batch.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim == 0 or mu.shape[-1] != net.num_paths:
        raise InvalidInputError(
            f"mean field must have one entry per path ({net.num_paths})"
        )
    return net.demand * np.einsum("...s,sl->...l", mu, net.incidence)


def path_costs(mu, net: RoadNetwork) -> np.ndarray:
    """Travel cost of every path at the link flows induced by ``mu``.

    Batched like :func:`link_flows`: a (..., paths) input yields a
    (..., paths) output, one row per mean field.
    """
    v = link_flows(mu, net)
    times = net.free_flow * (1.0 + net.coef * (v / net.capacity) ** 4)
    # Both contractions stay einsum calls, not ``@``: BLAS sums a row of a
    # batch and the same row alone in different orders, so the matrix
    # product, 2-3 us faster a call on grid9, breaks CostModel's rule that
    # a batched row equals its single-day call bit for bit.
    return np.einsum("...l,sl->...s", times, net.incidence)


@dataclass(frozen=True)
class RouteInertiaSpec:
    """Switching-cost shape: flat indicator penalty or overlap-scaled penalty."""

    kind: str
    epsilon: float

    def __post_init__(self):
        if self.kind not in ("indicator", "overlap"):
            raise InvalidInputError(f"unknown inertia kind {self.kind!r}")
        object.__setattr__(self, "epsilon", _number(self.epsilon, "epsilon"))
        if self.epsilon < 0.0:
            raise InvalidInputError("epsilon must be non-negative")

    def matrix(self, net: RoadNetwork) -> np.ndarray:
        if self.kind == "indicator":
            return self.epsilon * (1.0 - np.eye(net.num_paths))
        inc = net.incidence
        shared = inc @ inc.T  # links common to paths i and j
        size = inc.sum(axis=1)
        return self.epsilon * (1.0 - shared / (size[:, None] + size[None, :] - shared))


def route_cost_model(
    net: RoadNetwork, theta: float, inertia: RouteInertiaSpec
) -> CostModel:
    """Cost model for the route scenario.

    The uniform bound is the worst single-path pile-up cost plus the inertia
    weight: piling all demand onto path s maximizes every link flow on s, so
    the per-path maxima are attained at the one-hot mean fields (the rows of
    the identity).
    """
    worst = float(np.diag(path_costs(np.eye(net.num_paths), net)).max())
    return CostModel(
        cost=lambda mu: path_costs(mu, net),
        inertia_matrix=inertia.matrix(net),
        theta=theta,
        bound_C=worst + inertia.epsilon,
    )


def load_network(path) -> RoadNetwork:
    """Read a network file: {"links": [{c, b, t0}, ...], "paths": [[...]], "demand": x}."""
    try:
        raw = json.loads(Path(path).read_text())
        links = raw["links"]
        return RoadNetwork(capacity=[l["c"] for l in links], coef=[l["b"] for l in links],
                           free_flow=[l["t0"] for l in links], paths=raw["paths"],
                           demand=raw["demand"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed network file {path}: {exc}") from exc

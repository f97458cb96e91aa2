"""Route-choice scenario: fixed-demand single-OD network with BPR link times.

States are the enumerated paths of the network.  The daily travel cost of a
path is the sum of its link travel times at the link flows induced by the
current mean field, with the quartic BPR volume-delay function
``t0 * (1 + b * (v/c)^4)``.  Inertia between consecutive days is either a
flat penalty for switching paths or a penalty shrinking with path overlap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import CostModel, InvalidInputError

__all__ = [
    "Link",
    "RoadNetwork",
    "RouteInertiaSpec",
    "link_flows",
    "bpr_time",
    "path_costs",
    "route_cost_model",
    "load_network",
]


@dataclass(frozen=True)
class Link:
    """One link: capacity (veh/h), BPR coefficient, free-flow time (min)."""

    capacity: float
    coef: float
    free_flow: float


@dataclass
class RoadNetwork:
    """Single-OD network given by explicit paths over a shared link set."""

    links: tuple[Link, ...]
    paths: tuple[tuple[int, ...], ...]
    demand: float

    def __post_init__(self):
        self.links = tuple(self.links)
        self.paths = tuple(tuple(p) for p in self.paths)
        if not self.links or not self.paths:
            raise InvalidInputError("network needs at least one link and one path")
        if self.demand <= 0.0:
            raise InvalidInputError("demand must be positive")
        for link in self.links:
            if link.capacity <= 0.0:
                raise InvalidInputError("link capacities must be positive")
        for p in self.paths:
            if len(p) == 0:
                raise InvalidInputError("paths must be non-empty")
            if any(l < 0 or l >= len(self.links) for l in p):
                raise InvalidInputError(f"path {p} references an unknown link")

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @cached_property
    def incidence(self) -> np.ndarray:
        """(paths, links) 0/1 matrix delta[s, l] = 1 iff link l lies on path s."""
        inc = np.zeros((self.num_paths, self.num_links))
        for s, p in enumerate(self.paths):
            inc[s, list(p)] = 1.0
        return inc

    @cached_property
    def _capacity(self) -> np.ndarray:
        return np.array([l.capacity for l in self.links])

    @cached_property
    def _coef(self) -> np.ndarray:
        return np.array([l.coef for l in self.links])

    @cached_property
    def _free_flow(self) -> np.ndarray:
        return np.array([l.free_flow for l in self.links])


def link_flows(mu, net: RoadNetwork) -> np.ndarray:
    """Per-link flow v(l) = demand * sum_{s: l on s} mu(s), in veh/h.

    Accepts a single (paths,) mean field or a stacked (..., paths) batch.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape[-1] != net.num_paths:
        raise InvalidInputError(
            f"mean field must have one entry per path ({net.num_paths})"
        )
    return net.demand * (mu[..., :, None] * net.incidence).sum(axis=-2)


def bpr_time(link: Link, v: float) -> float:
    """BPR travel time t0 * (1 + b * (v/c)^4) in minutes; v must be >= 0."""
    if v < 0.0:
        raise InvalidInputError("link flow must be non-negative")
    return link.free_flow * (1.0 + link.coef * (v / link.capacity) ** 4)


def path_costs(mu, net: RoadNetwork) -> np.ndarray:
    """Travel cost of every path at the link flows induced by ``mu``.

    Batched like :func:`link_flows`: a (..., paths) input yields a
    (..., paths) output, one row per mean field.
    """
    v = link_flows(mu, net)
    times = net._free_flow * (1.0 + net._coef * (v / net._capacity) ** 4)
    return (net.incidence * times[..., None, :]).sum(axis=-1)


@dataclass(frozen=True)
class RouteInertiaSpec:
    """Switching-cost shape: flat indicator penalty or overlap-scaled penalty."""

    kind: str
    epsilon: float

    def __post_init__(self):
        if self.kind not in ("indicator", "overlap"):
            raise InvalidInputError(f"unknown inertia kind {self.kind!r}")
        if self.epsilon < 0.0:
            raise InvalidInputError("epsilon must be non-negative")

    def matrix(self, net: RoadNetwork) -> np.ndarray:
        m = net.num_paths
        if self.kind == "indicator":
            return self.epsilon * (1.0 - np.eye(m))
        d = np.zeros((m, m))
        sets = [set(p) for p in net.paths]
        for i in range(m):
            for j in range(m):
                shared = len(sets[i] & sets[j])
                union = len(sets[i] | sets[j])
                d[i, j] = self.epsilon * (1.0 - shared / union)
        return d


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
        links = tuple(
            Link(capacity=float(l["c"]), coef=float(l["b"]), free_flow=float(l["t0"]))
            for l in raw["links"]
        )
        paths = tuple(tuple(int(i) for i in p) for p in raw["paths"])
        return RoadNetwork(links=links, paths=paths, demand=float(raw["demand"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed network file {path}: {exc}") from exc

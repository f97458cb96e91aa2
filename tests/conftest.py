from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from mfgcommute.route import RouteInertiaSpec, load_network, route_cost_model


@pytest.fixture(scope="session")
def repo_root():
    return REPO


@pytest.fixture(scope="session")
def grid9():
    return load_network(REPO / "scenarios" / "grid9.json")


@pytest.fixture(scope="session")
def grid9_mu0():
    return np.array([0.1, 0.1, 0.5, 0.1, 0.1, 0.1])


@pytest.fixture(scope="session")
def route_cm_e1t1(grid9):
    return route_cost_model(grid9, 1.0, RouteInertiaSpec("indicator", 1.0))


@pytest.fixture(scope="session")
def route_cm_e0t1(grid9):
    return route_cost_model(grid9, 1.0, RouteInertiaSpec("indicator", 0.0))


def make_table_cost_model(f_table, d_table, theta, coupling=None):
    """Cost model from explicit tables, optionally with linear congestion.

    f(s, mu) = f_table[s] + coupling[s] . mu when coupling is given.  The
    uniform bound accounts for the worst linear term.
    """
    from mfgcommute.core import CostModel

    f_table = np.asarray(f_table, dtype=float)
    d_table = np.asarray(d_table, dtype=float)
    m = f_table.shape[0]
    if coupling is None:
        coupling = np.zeros((m, m))
    coupling = np.asarray(coupling, dtype=float)

    def cost(mu):
        return f_table + (coupling * mu[..., None, :]).sum(-1)

    bound = float(
        max(
            f_table.max() + np.abs(coupling).sum(axis=1).max(),
            d_table.max(),
            1e-9,
        )
    )
    return CostModel(cost=cost, inertia_matrix=d_table, theta=theta, bound_C=bound)

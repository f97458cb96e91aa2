from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from mfgcommute.cli import build_experiment, load_config
from mfgcommute.route import load_network


@pytest.fixture(scope="session")
def repo_root():
    return REPO


@pytest.fixture(scope="session")
def grid9():
    return load_network(REPO / "scenarios" / "grid9.json")


def shipped_model(name):
    """``configs/<name>.json`` as (config, *build_experiment): cost model, scenario, FPConfig."""
    cfg = load_config(REPO / "configs" / f"{name}.json")
    return cfg, *build_experiment(cfg)


@pytest.fixture(scope="session")
def grid9_mu0():
    # The initial split of route_e1t1, which route_e0t1 shares.
    return shipped_model("route_e1t1")[3].mu0


@pytest.fixture(scope="session")
def route_cm_e1t1():
    return shipped_model("route_e1t1")[1]


@pytest.fixture(scope="session")
def route_cm_e0t1():
    return shipped_model("route_e0t1")[1]


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

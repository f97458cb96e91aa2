"""Configuration-driven experiment runner.

Reads a JSON experiment config.  ``run`` solves fictitious play for the
configured scenario and measures its trajectory against the stationary pair;
``smfe`` solves that pair alone and never runs fictitious play.  Both write
machine-readable traces: CSV matrices for day-by-day artifacts, JSON for
scalar diagnostics.  CSV floats carry 17 significant digits and JSON floats
the shortest repr that reads back exactly, so every artifact round-trips
exactly and reruns are byte-identical.  Exit codes: 0 success, 1 config
error, 2 solver failure.

The only environment knob is MFG_LOG (off|info|debug) for log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bottleneck import bottleneck_cost_model, load_spec
from .core import (
    InvalidInputError,
    KernelLimitError,
    SolverFailure,
    _number,
    check_stochastic,
    dist_distance,
    forward_propagate,
    uniform_distribution,
)
from .fictitious import FPConfig, fictitious_play
from .route import RouteInertiaSpec, link_flows, load_network, route_cost_model
from .stationary import (
    _indicator_epsilon,
    _pair_record,
    augmented_cost_profile,
    logit_sue,
    omega_bound,
    omega_bound_check,
    smfe_residuals,
    solve_smfe,
    value_gap_check,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "build_scenario", "build_experiment",
           "run_experiment", "compare_smfe", "main"]

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """A config file field is missing or malformed; names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    scenario_file: str
    horizon: int
    theta: float
    epsilon: float | None
    inertia_kind: str
    mu0: object  # "uniform" or list of floats
    max_iters: int
    exploitability_tol: float
    outputs: str
    policy_days: list[int] | None
    base_dir: Path

    # A relative path resolves against the config file's directory.
    @property
    def scenario_path(self) -> Path:
        return self.base_dir / self.scenario_file

    @property
    def output_path(self) -> Path:
        return self.base_dir / self.outputs

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "scenario_file": self.scenario_file,
            "horizon": self.horizon,
            "theta": self.theta,
            "epsilon": self.epsilon,
            "inertia_kind": self.inertia_kind,
            "mu0": self.mu0,
            "solver": {
                "max_iters": self.max_iters,
                "exploitability_tol": self.exploitability_tol,
            },
            "outputs": self.outputs,
            "policy_days": self.policy_days,
        }


def _require(raw: dict, name: str):
    if name not in raw:
        raise ConfigError(name, "missing")
    return raw[name]


def _as_number(value, name, kind=float):
    """The package's number rule, ``core._number``, as a config error naming ``name``."""
    try:
        return _number(value, name, kind)
    except InvalidInputError as exc:
        raise ConfigError(name, str(exc)) from None


def _as_path(value, name):
    if not isinstance(value, str):
        raise ConfigError(name, f"must be a path string, got {value!r}")
    return value


def config_from_dict(raw: dict, base_dir: Path) -> ExperimentConfig:
    scenario = _require(raw, "scenario")
    if scenario not in ("route", "bottleneck"):
        raise ConfigError("scenario", f"must be 'route' or 'bottleneck', got {scenario!r}")
    horizon = _as_number(_require(raw, "horizon"), "horizon", int)
    if horizon < 1:
        raise ConfigError("horizon", "must be >= 1")
    theta = _as_number(_require(raw, "theta"), "theta")
    if not theta > 0.0:
        raise ConfigError("theta", "must be > 0")
    epsilon = raw.get("epsilon")
    if epsilon is not None:
        epsilon = _as_number(epsilon, "epsilon")
        if not epsilon >= 0.0:
            raise ConfigError("epsilon", "must be >= 0")
    if scenario == "route" and epsilon is None:
        raise ConfigError("epsilon", "required for the route scenario")
    inertia_kind = raw.get("inertia_kind", "indicator" if scenario == "route" else "shift")
    if scenario == "route" and inertia_kind not in ("indicator", "overlap"):
        raise ConfigError("inertia_kind", f"must be 'indicator' or 'overlap', got {inertia_kind!r}")
    if scenario == "bottleneck" and inertia_kind != "shift":
        raise ConfigError("inertia_kind", "bottleneck inertia is always 'shift'")
    mu0 = raw.get("mu0", "uniform")
    if mu0 != "uniform":
        if not isinstance(mu0, list):
            raise ConfigError("mu0", "must be 'uniform' or a list of floats")
        mu0 = [_as_number(x, "mu0") for x in mu0]
    solver = raw.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("solver", "must be an object")
    max_iters = _as_number(solver.get("max_iters", FPConfig.max_iters), "solver.max_iters", int)
    if max_iters < 1:
        raise ConfigError("solver.max_iters", "must be >= 1")
    tol = _as_number(
        solver.get("exploitability_tol", FPConfig.exploitability_tol), "solver.exploitability_tol"
    )
    if not tol > 0.0:
        raise ConfigError("solver.exploitability_tol", "must be > 0")
    policy_days = raw.get("policy_days")
    if policy_days is not None:
        if not isinstance(policy_days, list):
            raise ConfigError("policy_days", "must be a list of day indices")
        policy_days = [_as_number(d, "policy_days", int) for d in policy_days]
        for d in policy_days:
            if not 0 <= d < horizon:
                raise ConfigError("policy_days", f"day {d} outside horizon")
    return ExperimentConfig(
        scenario=scenario,
        scenario_file=_as_path(_require(raw, "scenario_file"), "scenario_file"),
        horizon=horizon,
        theta=theta,
        epsilon=epsilon,
        inertia_kind=inertia_kind,
        mu0=mu0,
        max_iters=max_iters,
        exploitability_tol=tol,
        outputs=_as_path(raw.get("outputs", "out"), "outputs"),
        policy_days=policy_days,
        base_dir=base_dir,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # undecodable bytes and bad JSON are ValueErrors
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", f"{path} must hold a JSON object")
    return config_from_dict(raw, path.resolve().parent)


def build_scenario(cfg: ExperimentConfig):
    """Instantiate the cost model and scenario object named by the config.

    A theta past the kernel limit names ``theta``; any other error reading
    the scenario file or building its model names ``scenario_file``.
    """
    try:
        if cfg.scenario == "route":
            net = load_network(cfg.scenario_path)
            inertia = RouteInertiaSpec(kind=cfg.inertia_kind, epsilon=cfg.epsilon)
            return route_cost_model(net, cfg.theta, inertia), net
        spec = load_spec(cfg.scenario_path)
        if cfg.epsilon is not None:
            spec = replace(spec, epsilon=cfg.epsilon)
        return bottleneck_cost_model(spec, cfg.theta), spec
    except KernelLimitError as exc:
        raise ConfigError("theta", str(exc)) from exc
    except (OSError, InvalidInputError) as exc:
        raise ConfigError("scenario_file", str(exc)) from exc


def build_experiment(cfg: ExperimentConfig):
    """The cost model, scenario object and ``FPConfig`` that the config names.

    The one path from a config to a runnable experiment: ``run``, ``smfe``
    and ``validate`` all take it.  A ``mu0`` that is not a distribution
    over the model's options names ``mu0``.
    """
    cm, scen = build_scenario(cfg)
    mu0 = uniform_distribution(cm.M) if cfg.mu0 == "uniform" else cfg.mu0
    try:
        mu0 = check_stochastic(mu0, "mu0", (cm.M,))
    except InvalidInputError as exc:
        raise ConfigError("mu0", str(exc)) from exc
    return cm, scen, FPConfig(mu0, cfg.horizon, cfg.max_iters, cfg.exploitability_tol)


# ---------------------------------------------------------------------------
# serialization


def _numpy_to_python(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")


def dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, allow_nan=False, default=_numpy_to_python) + "\n")


def write_csv(matrix, path: Path) -> None:
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",")


# ---------------------------------------------------------------------------
# experiment runner


def _augmented_flatness(avg_mf, cm):
    out = [None] * len(avg_mf)
    days = np.flatnonzero((avg_mf > 0.0).all(axis=1))  # ln mu needs no empty option
    if days.size:
        profile = augmented_cost_profile(avg_mf[days], cm.cost(avg_mf)[days], cm.theta)
        for n, spread in zip(days, profile.max(axis=1) - profile.min(axis=1)):
            out[n] = float(spread)
    return out


def _prepare(cfg: ExperimentConfig, out_dir):
    """Shared start of ``run`` and ``smfe``: the built experiment and its output directory."""
    cm, scen, fp = build_experiment(cfg)
    out = Path(out_dir) if out_dir is not None else cfg.output_path
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("outputs", f"cannot create {out}: {exc.strerror}") from exc
    return cm, scen, fp, out


def _solve_stationary(cm):
    """Stationary solve as ``converged`` and the pair's record, plus the pair (None on failure)."""
    try:
        pair = solve_smfe(cm)
    except SolverFailure as exc:
        return {"converged": False, **exc.payload}, None
    record = _pair_record(pair.V_bar, pair.mu_bar, pair.lambda_bar, *smfe_residuals(pair, cm))
    return {"converged": True, **record}, pair


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> int:
    """Run the configured experiment and write its artifact files."""
    started = time.perf_counter()
    cm, scen, fp, out = _prepare(cfg, out_dir)
    report = fictitious_play(cm, fp)

    write_csv(report.avg_mf, out / "mf_trace.csv")
    write_csv(report.value_seq, out / "values.csv")
    days = [0, cfg.horizon - 1] if cfg.policy_days is None else cfg.policy_days
    for n in sorted(set(days)):
        write_csv(report.avg_policy[n], out / f"policy_day_{n}.csv")
    write_csv(report.exploitability_trace, out / "exploitability.csv")

    # A diagnostic: an unconverged stationary solve is recorded, not raised.
    smfe, _ = _solve_stationary(cm)
    omega = omega_bound(cm)
    diagnostics = {
        "augmented_cost_flatness": _augmented_flatness(report.avg_mf, cm),
        "smfe": {
            **{key: smfe[key] for key in ("converged", "r1", "r2", "lambda_bar")},
            "df_per_day": np.abs(report.avg_mf - smfe["mu_bar"]).max(axis=1),
        },
        "omega_bound": {
            "passed": omega_bound_check(report.avg_mf, cm),
            "omega": omega,
            "vacuous": omega == 0.0,
            "theta": cm.theta,
            "bound_C": cm.bound_C,
        },
    }
    if cfg.scenario == "route":
        diagnostics["link_flow_trace"] = link_flows(report.avg_mf, scen)
    dump_json(diagnostics, out / "diagnostics.json")

    runtime = time.perf_counter() - started
    dump_json(
        {
            "converged": report.converged,
            "iterations_run": report.iterations_run,
            "final_exploitability": report.exploitability_trace[-1],
            "consistency_residual": dist_distance(
                forward_propagate(report.avg_policy, fp.mu0), report.avg_mf
            ),
            "runtime_seconds": runtime,
            "config": cfg.to_dict(),
        },
        out / "report.json",
    )
    logger.info("experiment artifacts written to %s", out)
    return 0


def compare_smfe(cfg: ExperimentConfig, out_dir=None) -> int:
    """Solve the stationary pair and write it, with its checks, to smfe.json.

    The cost model decides which checks apply: the value-gap bracket where
    the inertia is a flat switching penalty (``value_gap_check``), and the
    distance to ``logit_sue`` where there is no inertia at all, whatever
    the scenario.  ``df_per_day`` is ``run``'s: ``smfe`` never solves or
    reads the day-to-day trajectory.
    """
    # FP's inputs go unused, but _prepare still builds them: smfe rejects a
    # config exactly as run does.
    cm, _, _, out = _prepare(cfg, out_dir)
    payload, pair = _solve_stationary(cm)
    if pair is None:
        logger.warning(
            "stationary solve failed: residuals r1=%.3e, r2=%.3e", payload["r1"], payload["r2"]
        )
    if pair is not None and _indicator_epsilon(cm) is not None:
        payload["value_gap_check"] = value_gap_check(pair, cm)
    if pair is not None and not cm.inertia_matrix.any():
        try:
            payload["df_to_logit_sue"] = dist_distance(pair.mu_bar, logit_sue(cm))
        except SolverFailure as exc:
            payload["df_to_logit_sue"] = None
            logger.warning("logit SUE benchmark failed: %s", exc)
    dump_json(payload, out / "smfe.json")
    return 0 if payload["converged"] else 2


# ---------------------------------------------------------------------------
# entry point


def _setup_logging():
    level = os.environ.get("MFG_LOG", "off").lower()
    if level == "debug":
        logging.basicConfig(level=logging.DEBUG)
    elif level == "info":
        logging.basicConfig(level=logging.INFO)


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="mfgcommute",
        description="Day-to-day commute evolution as a mean field game",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment and write its artifacts")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="override the output directory")

    p_smfe = sub.add_parser("smfe", help="stationary-equilibrium comparison")
    p_smfe.add_argument("--config", required=True)
    p_smfe.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="dry-run schema check of a config")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            build_experiment(cfg)
            print(f"config OK: {args.config}")
            return 0
        if args.command == "run":
            return run_experiment(cfg, args.out)
        return compare_smfe(cfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 1

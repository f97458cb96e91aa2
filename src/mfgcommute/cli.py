"""Configuration-driven experiment runner.

Reads a JSON experiment config, runs the fictitious play solve for the
configured scenario, and writes machine-readable traces: CSV matrices for
day-by-day artifacts, JSON for scalar diagnostics.  CSV floats carry 17
significant digits and JSON floats the shortest repr that reads back exactly,
so every artifact round-trips exactly and reruns are byte-identical.  Exit
codes: 0 success, 1 config error, 2 solver failure.

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
    check_stochastic,
    dist_distance,
    forward_propagate,
    uniform_distribution,
)
from .fictitious import FPConfig, fictitious_play
from .route import RouteInertiaSpec, _json_number, link_flows, load_network, route_cost_model
from .stationary import (
    augmented_cost_profile,
    logit_sue,
    omega_bound,
    omega_bound_check,
    smfe_residuals,
    solve_smfe,
    value_gap_check,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run_experiment", "compare_smfe", "main"]

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """A config file field is missing or malformed; names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


@dataclass
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
    """The scenario files' rule for a config field: a finite JSON number."""
    try:
        return _json_number(value, kind)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(name, str(exc)) from None


def _as_path(value, name):
    if not isinstance(value, str):
        raise ConfigError(name, f"must be a path string, got {value!r}")
    return value


def _policy_days(days, horizon: int) -> list[int]:
    days = [_as_number(d, "policy_days", int) for d in days]
    for d in days:
        if not 0 <= d < horizon:
            raise ConfigError("policy_days", f"day {d} outside horizon")
    return days


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
    max_iters = _as_number(solver.get("max_iters", 500), "solver.max_iters", int)
    if max_iters < 1:
        raise ConfigError("solver.max_iters", "must be >= 1")
    tol = _as_number(solver.get("exploitability_tol", 1e-6), "solver.exploitability_tol")
    if not tol > 0.0:
        raise ConfigError("solver.exploitability_tol", "must be > 0")
    policy_days = raw.get("policy_days")
    if policy_days is not None:
        if not isinstance(policy_days, list):
            raise ConfigError("policy_days", "must be a list of day indices")
        policy_days = _policy_days(policy_days, horizon)
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
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
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


def _resolve_mu0(cfg: ExperimentConfig, m: int) -> np.ndarray:
    if cfg.mu0 == "uniform":
        return uniform_distribution(m)
    try:
        return check_stochastic(cfg.mu0, "mu0", (m,))
    except InvalidInputError as exc:
        raise ConfigError("mu0", str(exc)) from exc


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
    out = []
    for mu, f in zip(avg_mf, cm.cost(avg_mf)):
        if np.any(mu <= 0.0):
            out.append(None)
            continue
        profile = augmented_cost_profile(mu, f, cm.theta)
        out.append(float(profile.max() - profile.min()))
    return out


def _solve_fp(cfg: ExperimentConfig, out_dir):
    """Shared start of ``run`` and ``smfe``: scenario, output directory, FP solve."""
    cm, scen = build_scenario(cfg)
    mu0 = _resolve_mu0(cfg, cm.M)
    out = Path(out_dir) if out_dir is not None else cfg.output_path
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("outputs", f"cannot create {out}: {exc.strerror}") from exc
    report = fictitious_play(
        cm,
        FPConfig(
            mu0=mu0,
            horizon=cfg.horizon,
            max_iters=cfg.max_iters,
            exploitability_tol=cfg.exploitability_tol,
        ),
    )
    return cm, scen, mu0, out, report


def _solve_stationary(cm):
    """Stationary solve as a record, converged or not, plus the pair (None on failure)."""
    try:
        pair = solve_smfe(cm)
    except SolverFailure as exc:
        keys = ("V_bar", "mu_bar", "lambda_bar", "r1", "r2")
        return {"converged": False, **{key: exc.payload[key] for key in keys}}, None
    r1, r2 = smfe_residuals(pair, cm)
    return {
        "converged": True,
        "V_bar": pair.V_bar,
        "mu_bar": pair.mu_bar,
        "lambda_bar": pair.lambda_bar,
        "r1": r1,
        "r2": r2,
    }, pair


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> int:
    """Run the configured experiment and write its artifact files."""
    started = time.perf_counter()
    cm, scen, mu0, out, report = _solve_fp(cfg, out_dir)

    write_csv(report.avg_mf, out / "mf_trace.csv")
    write_csv(report.value_seq, out / "values.csv")
    days = cfg.policy_days if cfg.policy_days else [0, cfg.horizon - 1]
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
            "df_last_day": dist_distance(smfe["mu_bar"], report.avg_mf[-1]),
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
                forward_propagate(report.avg_policy, mu0), report.avg_mf
            ),
            "runtime_seconds": runtime,
            "config": cfg.to_dict(),
        },
        out / "report.json",
    )
    logger.info("experiment artifacts written to %s", out)
    return 0


def compare_smfe(cfg: ExperimentConfig, out_dir=None) -> int:
    """Solve the stationary pair, compare with the day-to-day run, write smfe.json."""
    cm, _, _, out, report = _solve_fp(cfg, out_dir)
    payload, pair = _solve_stationary(cm)
    if pair is None:
        logger.warning(
            "stationary solve failed: residuals r1=%.3e, r2=%.3e", payload["r1"], payload["r2"]
        )
        dump_json(payload, out / "smfe.json")
        return 2
    payload["df_per_day"] = np.abs(report.avg_mf - pair.mu_bar).max(axis=1)
    if cfg.scenario == "route" and cfg.inertia_kind == "indicator":
        payload["value_gap_check"] = value_gap_check(pair, cm)
    if cfg.scenario == "route" and cfg.epsilon == 0.0:
        try:
            payload["df_to_logit_sue"] = dist_distance(pair.mu_bar, logit_sue(cm))
        except SolverFailure as exc:
            payload["df_to_logit_sue"] = None
            logger.warning("logit SUE benchmark failed: %s", exc)
    dump_json(payload, out / "smfe.json")
    return 0


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
    p_run.add_argument(
        "--policy-days", default=None, help="comma-separated day indices to dump"
    )

    p_smfe = sub.add_parser("smfe", help="stationary-equilibrium comparison")
    p_smfe.add_argument("--config", required=True)
    p_smfe.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="dry-run schema check of a config")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            cm, _ = build_scenario(cfg)
            _resolve_mu0(cfg, cm.M)
            print(f"config OK: {args.config}")
            return 0
        if args.command == "run":
            if args.policy_days is not None:
                try:
                    days = [int(d) for d in args.policy_days.split(",") if d.strip()]
                except ValueError:
                    raise ConfigError(
                        "policy_days", f"expected integers, got {args.policy_days!r}"
                    ) from None
                cfg.policy_days = _policy_days(days, cfg.horizon)
            return run_experiment(cfg, args.out)
        return compare_smfe(cfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}")
        return 1
    except SolverFailure as exc:
        print(f"solver failure: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

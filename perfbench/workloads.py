"""The four benchmark workloads: inputs, one timed operation, and its gate.

Every workload is a closed loop with one client: the runner calls
``run_once`` again only after the previous call returned.  Inputs come from
the shipped configs; seed 0 reproduces them exactly, and any other seed
replaces the day-0 distribution by a draw from a Dirichlet distribution
centred on the shipped one.  ``bottleneck-smfe`` starts from the committed
late-regime state of warm_start.py instead, and its seeds draw the
stationary solver's ``init`` around that state.  The package only ever
receives the drawn arrays, or a config file that holds them.

``gate`` is the untimed correctness check of one result; it returns a list of
failure messages (empty when the result is correct).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from mfgcommute import (
    FPConfig,
    SolverFailure,
    StationaryPair,
    bellman_apply,
    exploitability,
    fictitious_play,
    smfe_residuals,
)
from mfgcommute import cli, stationary
from mfgcommute.bottleneck import bottleneck_cost_model, load_spec
from mfgcommute.route import RouteInertiaSpec, load_network, route_cost_model

# Dirichlet(c * shipped) has mean `shipped` and per-entry spread ~ 1/sqrt(c).
DIRICHLET_CONCENTRATION = 1000.0
# The late stationary regime is chaotic: over seeds 0-6 the power steps of
# 20 rounds span 9% at concentration 1e7 and 3% at 1e9.
WARM_CONCENTRATION = 1e9
WARM_START = Path(__file__).resolve().parent / "warm_start.json"
# FP budgets are fixed; this tolerance is far below what they reach.
UNREACHABLE_TOL = 1e-12
# Matches the consistency check inside exploitability().
CONSISTENCY_TOL = 1e-8
TRACE_MATCH_RTOL = 1e-9


def read_config(root: Path, rel: str) -> dict:
    return json.loads((root / rel).read_text())


def build_cost_model(root: Path, raw: dict):
    """Cost model of a shipped config, built through the scenario modules."""
    scenario_path = (root / "configs" / raw["scenario_file"]).resolve()
    if raw["scenario"] == "route":
        net = load_network(scenario_path)
        kind = raw.get("inertia_kind", "indicator")
        cm = route_cost_model(net, float(raw["theta"]), RouteInertiaSpec(kind, float(raw["epsilon"])))
    else:
        spec = load_spec(scenario_path)
        if raw.get("epsilon") is not None:
            spec = replace(spec, epsilon=float(raw["epsilon"]))
        cm = bottleneck_cost_model(spec, float(raw["theta"]))
    cm.inertia_matrix  # built lazily; part of set-up, not of the solve
    return cm


def shipped_mu0(raw: dict, m: int) -> np.ndarray:
    if raw.get("mu0", "uniform") == "uniform":
        return np.full(m, 1.0 / m)
    return np.asarray(raw["mu0"], dtype=float)


def draw_distribution(center: np.ndarray, seed: int,
                      concentration: float = DIRICHLET_CONCENTRATION) -> np.ndarray:
    """Seed 0 returns ``center`` itself; other seeds a Dirichlet draw around it."""
    if seed == 0:
        return center
    rng = np.random.default_rng(seed)
    draw = rng.dirichlet(concentration * center)
    return draw / math.fsum(draw)


class Workload:
    """Shared inputs: the shipped config, its cost model and the day-0 draw."""

    def __init__(self, name, config):
        self.name = name
        self.config = config

    def prepare(self, root, seed, workdir, smoke):
        self.raw = read_config(root, self.config)
        self.cm = build_cost_model(root, self.raw)
        self.horizon = int(self.raw["horizon"])
        self.mu0 = draw_distribution(shipped_mu0(self.raw, self.cm.M), seed)

    def probe_args(self):
        return ["--config", self.config]

    def splits(self, result):
        """Named (start, end) parts of one operation that are timed apart."""
        return {}


class FPWorkload(Workload):
    """``fictitious_play`` with a fixed iteration budget on one shipped config."""

    def __init__(self, name, config, budget):
        super().__init__(name, config)
        self.budget = budget

    def prepare(self, root, seed, workdir, smoke):
        super().prepare(root, seed, workdir, smoke)
        self.iters = 3 if smoke else self.budget
        self.fp_cfg = FPConfig(
            mu0=self.mu0,
            horizon=self.horizon,
            max_iters=self.iters,
            exploitability_tol=UNREACHABLE_TOL,
        )

    def run_once(self, rep, tracer):
        with tracer.span("perfbench.fictitious_play") as span:
            report = fictitious_play(self.cm, self.fp_cfg)
            if span is not None:
                span.info["iterations"] = report.iterations_run
        return report

    def gate(self, report):
        errors = []
        if report.iterations_run != self.iters:
            errors.append(f"iterations_run {report.iterations_run} != budget {self.iters}")
        # Raises InvalidInputError if the pair is inconsistent beyond 1e-8.
        recomputed = exploitability(report.avg_policy, report.avg_mf, self.cm, self.mu0)
        last = report.exploitability_trace[-1]
        if not abs(recomputed - last) <= TRACE_MATCH_RTOL * abs(last):
            errors.append(f"exploitability {recomputed!r} does not match trace {last!r}")
        return errors

    def accuracy(self, report):
        """(FP exploitability, stationary residual) of one result."""
        return report.exploitability_trace[-1], None


class SmfeWorkload(Workload):
    """``run``'s stationary diagnostic, K rounds from its late-regime state.

    ``solve_smfe(init=mu, damping=s, max_outer=K, fallback=False)`` where
    (mu, s) is the state after 700 rounds of ``run``'s call (warm_start.py).
    """

    def __init__(self, name, config, max_outer):
        super().__init__(name, config)
        self.max_outer = max_outer

    def prepare(self, root, seed, workdir, smoke):
        super().prepare(root, seed, workdir, smoke)
        warm = json.loads(WARM_START.read_text())
        if warm["config"] != self.config:
            raise ValueError(f"{WARM_START.name} holds a start for {warm['config']}")
        self.damping = warm["damping"]
        self.init = draw_distribution(np.asarray(warm["mu_bar"]), seed, WARM_CONCENTRATION)
        self.rounds = 3 if smoke else self.max_outer

    def run_once(self, rep, tracer):
        with tracer.span("perfbench.solve_smfe") as span:
            try:
                pair = stationary.solve_smfe(
                    self.cm, init=self.init, damping=self.damping,
                    max_outer=self.rounds, fallback=False,
                )
                return {"pair": pair, "converged": True, "residual": None}
            except SolverFailure as exc:
                # An unconverged bounded diagnostic is a result, not a failure.
                p = exc.payload
                if span is not None:
                    span.info["raised"] = 1
                return {
                    "payload": p,
                    "converged": False,
                    "residual": max(p["r1"], p["r2"]),
                }

    def _pair(self, result):
        if result["converged"]:
            return result["pair"]
        p = result["payload"]
        # The softmax policy depends on V only, so this is the solver's pi.
        _, pi = bellman_apply(p["V_bar"], p["mu_bar"], self.cm)
        return StationaryPair(p["V_bar"], p["mu_bar"], p["lambda_bar"], pi)

    def gate(self, result):
        r1, r2 = smfe_residuals(self._pair(result), self.cm)
        if not (math.isfinite(r1) and math.isfinite(r2)):
            return [f"non-finite stationary residuals r1={r1!r} r2={r2!r}"]
        return []

    def accuracy(self, result):
        if result["converged"]:
            return None, max(smfe_residuals(result["pair"], self.cm))
        return None, result["residual"]


class CliWorkload(Workload):
    """The user's two commands, ``run`` then ``smfe``, through ``cli.main``."""

    def prepare(self, root, seed, workdir, smoke):
        super().prepare(root, seed, workdir, smoke)
        self.workdir = workdir
        config_path = root / self.config
        if seed != 0 or smoke:
            raw = dict(self.raw, solver=dict(self.raw["solver"]))
            raw["mu0"] = self.mu0.tolist()
            raw["scenario_file"] = str((config_path.parent / raw["scenario_file"]).resolve())
            if smoke:
                raw["solver"]["max_iters"] = 3
            config_path = workdir / "config.json"
            config_path.write_text(json.dumps(raw, indent=2) + "\n")
        self.config_path = config_path
        self.first_artifacts = None

    def run_once(self, rep, tracer):
        out = self.workdir / f"rep{rep}"
        cfg = str(self.config_path)
        clock = time.perf_counter
        t0 = clock()
        with tracer.span("cli.run"):
            code_run = cli.main(["run", "--config", cfg, "--out", str(out)])
        t1 = clock()
        with tracer.span("cli.smfe"):
            code_smfe = cli.main(["smfe", "--config", cfg, "--out", str(out)])
        t2 = clock()
        return {"out": out, "codes": (code_run, code_smfe), "times": (t0, t1, t2)}

    def splits(self, result):
        t0, t1, t2 = result["times"]
        return {"run_s": (t0, t1), "smfe_s": (t1, t2)}

    @staticmethod
    def _artifacts(out: Path) -> dict:
        files = {}
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.name == "report.json":
                # The one field the README exempts from byte-identical reruns.
                data = b"".join(
                    line
                    for line in data.splitlines(keepends=True)
                    if not line.lstrip().startswith(b'"runtime_seconds"')
                )
            files[path.name] = data
        return files

    def gate(self, result):
        errors = []
        if result["codes"] != (0, 0):
            return [f"exit codes {result['codes']} != (0, 0)"]
        out = result["out"]
        report = json.loads((out / "report.json").read_text())
        smfe = json.loads((out / "smfe.json").read_text())
        result["report"] = report
        result["smfe"] = smfe
        if not report["consistency_residual"] <= CONSISTENCY_TOL:
            errors.append(f"consistency_residual {report['consistency_residual']!r} > 1e-8")
        if smfe.get("converged") is not True:
            errors.append("smfe.json: converged is not true")
        if smfe.get("value_gap_check") is not True:
            errors.append("smfe.json: value_gap_check is not true")
        artifacts = self._artifacts(out)
        if self.first_artifacts is None:
            self.first_artifacts = artifacts
        elif artifacts != self.first_artifacts:
            differ = sorted(
                k
                for k in set(artifacts) | set(self.first_artifacts)
                if artifacts.get(k) != self.first_artifacts.get(k)
            )
            errors.append(f"artifacts differ from the first repetition: {differ}")
        return errors

    def accuracy(self, result):
        smfe = result["smfe"]
        return result["report"]["final_exploitability"], max(smfe["r1"], smfe["r2"])

    def probe_args(self):
        return ["--config", str(self.config_path), "--cli"]


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        FPWorkload("route-fp", "configs/route_e0t1.json", budget=300),
        FPWorkload("bottleneck-fp", "configs/bottleneck_e1t20.json", budget=200),
        CliWorkload("route-cli", "configs/route_e1t1.json"),
        SmfeWorkload("bottleneck-smfe", "configs/bottleneck_e1t20.json", max_outer=20),
    )
}

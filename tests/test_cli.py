from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from mfgcommute.cli import (
    ConfigError,
    compare_smfe,
    config_from_dict,
    load_config,
    main,
    run_experiment,
)
from mfgcommute.core import SolverFailure
from mfgcommute.stationary import solve_smfe


def route_config(repo_root, out_dir, **overrides):
    cfg = {
        "scenario": "route",
        "scenario_file": str(repo_root / "scenarios" / "grid9.json"),
        "horizon": 8,
        "theta": 1.0,
        "epsilon": 1.0,
        "inertia_kind": "indicator",
        "mu0": [0.1, 0.1, 0.5, 0.1, 0.1, 0.1],
        "solver": {"max_iters": 40, "exploitability_tol": 1e-9},
        "outputs": str(out_dir),
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    return np.array(
        [[float(x) for x in line.split(",")]
         for line in Path(path).read_text().strip().splitlines()]
    )


def test_config_field_errors(tmp_path, repo_root):
    cfg = route_config(repo_root, tmp_path / "out")
    del cfg["horizon"]
    with pytest.raises(ConfigError) as exc:
        config_from_dict(cfg, tmp_path)
    assert exc.value.field == "horizon"

    cfg = route_config(repo_root, tmp_path / "out", scenario="train")
    with pytest.raises(ConfigError) as exc:
        config_from_dict(cfg, tmp_path)
    assert exc.value.field == "scenario"

    cfg = route_config(repo_root, tmp_path / "out", theta=-1.0)
    with pytest.raises(ConfigError) as exc:
        config_from_dict(cfg, tmp_path)
    assert exc.value.field == "theta"

    cfg = route_config(repo_root, tmp_path / "out")
    del cfg["epsilon"]
    with pytest.raises(ConfigError) as exc:
        config_from_dict(cfg, tmp_path)
    assert exc.value.field == "epsilon"

    cfg = route_config(repo_root, tmp_path / "out", policy_days=[99])
    with pytest.raises(ConfigError) as exc:
        config_from_dict(cfg, tmp_path)
    assert exc.value.field == "policy_days"

    for field, overrides in [
        ("theta", {"theta": float("inf")}),
        ("epsilon", {"epsilon": float("inf")}),
        ("epsilon", {"epsilon": float("nan")}),
        ("solver.max_iters", {"solver": {"max_iters": 0}}),
        ("solver.exploitability_tol", {"solver": {"exploitability_tol": 0.0}}),
        # Integer fields are not truncated: 5.7 is not a horizon of 5.
        ("horizon", {"horizon": 5.7}),
        ("solver.max_iters", {"solver": {"max_iters": 2.9}}),
        ("policy_days", {"policy_days": [1.9]}),
        # JSON's true is not the number 1.
        ("horizon", {"horizon": True}),
        ("theta", {"theta": True}),
        # A number in a string is not a JSON number, and NaN is not finite.
        ("theta", {"theta": "1.0"}),
        ("horizon", {"horizon": "30"}),
        ("epsilon", {"epsilon": "1"}),
        ("mu0", {"mu0": ["0.5", 0.5]}),
        ("policy_days", {"policy_days": ["1"]}),
        ("theta", {"theta": float("nan")}),
        ("solver.exploitability_tol", {"solver": {"exploitability_tol": float("nan")}}),
        # A path is a JSON string: null is not a directory named "None".
        ("outputs", {"outputs": None}),
        ("outputs", {"outputs": 5}),
        ("scenario_file", {"scenario_file": ["a"]}),
    ]:
        cfg = route_config(repo_root, tmp_path / "out", **overrides)
        with pytest.raises(ConfigError) as exc:
            config_from_dict(cfg, tmp_path)
        assert exc.value.field == field

    # validate and run agree: a config that run would reject fails validate.
    cfg = route_config(repo_root, tmp_path / "out", solver={"max_iters": 0})
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 1


def test_run_experiment_artifacts(tmp_path, repo_root):
    out = tmp_path / "out"
    cfg = config_from_dict(route_config(repo_root, out), tmp_path)
    assert run_experiment(cfg) == 0

    mf = read_csv(out / "mf_trace.csv")
    assert mf.shape == (8, 6)
    assert np.max(np.abs(mf.sum(axis=1) - 1.0)) <= 1e-9

    values = read_csv(out / "values.csv")
    assert values.shape == (9, 6)
    assert np.allclose(values[8], 0.0)

    for day in (0, 7):
        pol = read_csv(out / f"policy_day_{day}.csv")
        assert pol.shape == (6, 6)
        assert np.max(np.abs(pol.sum(axis=1) - 1.0)) <= 1e-9

    trace = read_csv(out / "exploitability.csv")
    assert trace.shape == (40, 1)
    assert trace.min() >= -1e-9

    diag = json.loads((out / "diagnostics.json").read_text())
    assert len(diag["augmented_cost_flatness"]) == 8
    assert "link_flow_trace" in diag
    omega = diag["omega_bound"]
    assert omega["passed"] is True
    # theta * C is about 2077 here, so the bound underflows and says nothing.
    assert omega["bound_C"] * omega["theta"] > 2000.0
    assert omega["omega"] == 0.0 and omega["vacuous"] is True
    assert "smfe" in diag

    report = json.loads((out / "report.json").read_text())
    assert report["consistency_residual"] <= 1e-10
    assert report["config"]["scenario"] == "route"


def test_run_outputs_byte_identical(tmp_path, repo_root):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = route_config(repo_root, out_a)
    cfg_a = config_from_dict(base, tmp_path)
    cfg_b = config_from_dict(base, tmp_path)
    run_experiment(cfg_a, out_a)
    run_experiment(cfg_b, out_b)
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        a_bytes = (out_a / name).read_bytes()
        b_bytes = (out_b / name).read_bytes()
        if name == "report.json":
            a_doc = json.loads(a_bytes)
            b_doc = json.loads(b_bytes)
            a_doc.pop("runtime_seconds")
            b_doc.pop("runtime_seconds")
            assert a_doc == b_doc
        else:
            assert a_bytes == b_bytes, f"{name} differs between reruns"


def test_float_serialization_round_trips_exactly(tmp_path, repo_root):
    from mfgcommute.fictitious import FPConfig, fictitious_play
    from mfgcommute.cli import build_scenario, _resolve_mu0

    out = tmp_path / "out"
    cfg = config_from_dict(route_config(repo_root, out), tmp_path)
    run_experiment(cfg, out)
    cm, _ = build_scenario(cfg)
    report = fictitious_play(
        cm,
        FPConfig(mu0=_resolve_mu0(cfg, cm.M), horizon=8, max_iters=40,
                 exploitability_tol=1e-9),
    )
    assert np.array_equal(read_csv(out / "mf_trace.csv"), report.avg_mf)
    assert np.array_equal(read_csv(out / "values.csv"), report.value_seq)
    trace = read_csv(out / "exploitability.csv")[:, 0]
    assert np.array_equal(trace, report.exploitability_trace)
    doc = json.loads((out / "report.json").read_text())
    assert doc["final_exploitability"] == report.exploitability_trace[-1]

    smfe_out = tmp_path / "smfe"
    assert compare_smfe(cfg, smfe_out) == 0
    doc = json.loads((smfe_out / "smfe.json").read_text())
    pair = solve_smfe(cm)
    assert np.array_equal(doc["mu_bar"], pair.mu_bar)
    assert np.array_equal(doc["V_bar"], pair.V_bar)
    assert doc["lambda_bar"] == pair.lambda_bar


def test_zero_mu0_entry_writes_null_flatness(tmp_path, repo_root):
    # The augmented-cost profile needs ln mu, so a day with an empty option
    # has no flatness; JSON records it as null.
    out = tmp_path / "out"
    cfg = config_from_dict(
        route_config(repo_root, out, mu0=[0.0, 0.2, 0.5, 0.1, 0.1, 0.1]), tmp_path
    )
    assert run_experiment(cfg) == 0
    flatness = json.loads((out / "diagnostics.json").read_text())["augmented_cost_flatness"]
    assert flatness[0] is None
    assert all(isinstance(x, float) for x in flatness[1:])


def test_config_echo_round_trips(tmp_path, repo_root):
    out = tmp_path / "out"
    cfg = config_from_dict(route_config(repo_root, out), tmp_path)
    run_experiment(cfg, out)
    echo = json.loads((out / "report.json").read_text())["config"]
    again = config_from_dict(echo, tmp_path)
    assert again.to_dict() == cfg.to_dict()
    # Keys the runner does not read, such as an older config's
    # solver.record_trace, are ignored.
    legacy = route_config(repo_root, out)
    legacy["solver"]["record_trace"] = False
    assert config_from_dict(legacy, tmp_path).to_dict() == cfg.to_dict()


def test_policy_days_override(tmp_path, repo_root):
    out = tmp_path / "out"
    path = write_config(tmp_path, route_config(repo_root, out))
    code = main(["run", "--config", str(path), "--policy-days", "1,3"])
    assert code == 0
    assert (out / "policy_day_1.csv").exists()
    assert (out / "policy_day_3.csv").exists()
    assert not (out / "policy_day_0.csv").exists()
    for bad in ("1,99", "1,x"):
        assert main(["run", "--config", str(path), "--policy-days", bad]) == 1


def test_validate_command(tmp_path, repo_root, capsys):
    path = write_config(tmp_path, route_config(repo_root, tmp_path / "out"))
    assert main(["validate", "--config", str(path)]) == 0
    assert "config OK" in capsys.readouterr().out

    bad = route_config(repo_root, tmp_path / "out", mu0=[0.5, 0.5])
    path = write_config(tmp_path, bad, "bad.json")
    assert main(["validate", "--config", str(path)]) == 1
    assert "mu0" in capsys.readouterr().out


def test_validate_rejects_missing_scenario_file(tmp_path, repo_root, capsys):
    cfg = route_config(repo_root, tmp_path / "out",
                       scenario_file=str(tmp_path / "missing.json"))
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 1
    assert "scenario_file" in capsys.readouterr().out

    truncated = tmp_path / "truncated.json"
    truncated.write_text((repo_root / "scenarios" / "grid9.json").read_text()[:40])
    cfg = route_config(repo_root, tmp_path / "out", scenario_file=str(truncated))
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 1
    assert "scenario_file" in capsys.readouterr().out


def test_validate_rejects_non_numeric_scenario_field(tmp_path, repo_root, capsys):
    net = json.loads((repo_root / "scenarios" / "grid9.json").read_text())
    net["links"][0]["c"] = "abc"
    scenario = tmp_path / "net.json"
    scenario.write_text(json.dumps(net))
    cfg = route_config(repo_root, tmp_path / "out", scenario_file=str(scenario))
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 1
    assert "scenario_file" in capsys.readouterr().out


def test_validate_rejects_theta_past_the_kernel_limit(tmp_path, repo_root, capsys):
    # theta * epsilon = 701 > 700: exp(-theta d) would leave the normal floats.
    cfg = route_config(repo_root, tmp_path / "out", theta=701.0, epsilon=1.0)
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "config field 'theta'" in out and "701.0 * 1.0" in out

    cfg = route_config(repo_root, tmp_path / "out", theta=700.0, epsilon=1.0)
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 0


def bottleneck_config(repo_root, out_dir, **overrides):
    cfg = {
        "scenario": "bottleneck",
        "scenario_file": str(repo_root / "scenarios" / "bottleneck_guo2018.json"),
        "horizon": 6,
        "theta": 20.0,
        "epsilon": 0.0,
        "mu0": "uniform",
        "solver": {"max_iters": 30, "exploitability_tol": 1e-9},
        "outputs": str(out_dir),
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("scenario, file, field", [
    ("route", "grid9.json", ("links", 0, "b")),
    ("bottleneck", "bottleneck_guo2018.json", ("alpha",)),
])
def test_validate_rejects_non_finite_scenario_cost(tmp_path, repo_root, capsys,
                                                   scenario, file, field, bad):
    # Caught before any solve, by the loader: it takes only finite numbers.
    assert_scenario_field_rejected(tmp_path, repo_root, capsys, scenario, file, field, bad)


@pytest.mark.parametrize("scenario, file, field, bad", [
    ("route", "grid9.json", ("links", 0, "b"), -50),
    ("route", "grid9.json", ("links", 0, "t0"), -1),
    ("bottleneck", "bottleneck_guo2018.json", ("alpha",), -10),
    ("bottleneck", "bottleneck_guo2018.json", ("beta",), -5),
    ("bottleneck", "bottleneck_guo2018.json", ("gamma",), -15),
])
def test_validate_rejects_negative_scenario_cost(tmp_path, repo_root, capsys,
                                                 scenario, file, field, bad):
    # Costs below 0 would break the [0, bound_C] range the solvers assume.
    assert_scenario_field_rejected(tmp_path, repo_root, capsys, scenario, file, field, bad)


def assert_scenario_field_rejected(tmp_path, repo_root, capsys, scenario, file, field, bad):
    data = json.loads((repo_root / "scenarios" / file).read_text())
    target = data
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = bad
    scenario_path = tmp_path / file
    scenario_path.write_text(json.dumps(data))
    make = route_config if scenario == "route" else bottleneck_config
    path = write_config(tmp_path, make(repo_root, tmp_path / "out",
                                       scenario_file=str(scenario_path)))
    assert main(["validate", "--config", str(path)]) == 1
    assert "scenario_file" in capsys.readouterr().out
    assert main(["run", "--config", str(path)]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, top", [
    ("config", 5),
    ("config", None),
    ("config", "scenario"),
    ("scenario_file", []),
    ("scenario_file", None),
], ids=["config-5", "config-null", "config-string", "scenario-list", "scenario-null"])
def test_validate_rejects_a_file_that_is_not_an_object(tmp_path, repo_root, capsys,
                                                        field, top):
    if field == "config":
        path = write_config(tmp_path, top)
    else:
        scenario_path = tmp_path / "spec.json"
        scenario_path.write_text(json.dumps(top))
        path = write_config(tmp_path, bottleneck_config(repo_root, tmp_path / "out",
                                                        scenario_file=str(scenario_path)))
    assert main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"config field '{field}'" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_bottleneck_run(tmp_path, repo_root):
    out = tmp_path / "out"
    cfg = config_from_dict(bottleneck_config(repo_root, out), tmp_path)
    assert run_experiment(cfg) == 0
    mf = read_csv(out / "mf_trace.csv")
    assert mf.shape == (6, 40)
    diag = json.loads((out / "diagnostics.json").read_text())
    assert "link_flow_trace" not in diag


def test_smfe_command(tmp_path, repo_root):
    out = tmp_path / "out"
    path = write_config(tmp_path, route_config(
        repo_root, out, epsilon=0.0, solver={"max_iters": 30, "exploitability_tol": 1e-9}))
    assert main(["smfe", "--config", str(path)]) == 0
    doc = json.loads((out / "smfe.json").read_text())
    assert doc["converged"] is True
    assert doc["r1"] <= 1e-8 and doc["r2"] <= 1e-8
    assert doc["df_to_logit_sue"] <= 1e-7
    assert doc["value_gap_check"] is True
    assert len(doc["df_per_day"]) == 8


def test_smfe_command_writes_residuals_on_failure(tmp_path, repo_root, monkeypatch):
    payload = {
        "V_bar": np.linspace(0.0, 1.0, 6),
        "mu_bar": np.full(6, 1.0 / 6.0),
        "lambda_bar": 12.5,
        "r1": 3e-3,
        "r2": 0.25,
    }

    def failing_solve(cm, **budget):
        raise SolverFailure("stationary solve stopped", residual=0.25, payload=payload)

    monkeypatch.setattr("mfgcommute.cli.solve_smfe", failing_solve)
    out = tmp_path / "out"
    path = write_config(tmp_path, route_config(
        repo_root, out, solver={"max_iters": 5, "exploitability_tol": 1e-9}))
    assert main(["smfe", "--config", str(path)]) == 2
    doc = json.loads((out / "smfe.json").read_text())
    assert sorted(doc) == ["V_bar", "converged", "lambda_bar", "mu_bar", "r1", "r2"]
    assert doc["converged"] is False
    for key in ("V_bar", "mu_bar"):
        assert np.array_equal(doc[key], payload[key])
    for key in ("lambda_bar", "r1", "r2"):
        assert doc[key] == payload[key]


@pytest.mark.parametrize("epsilon, code", [(1.0, 2), (0.0, 0)],
                         ids=["bottleneck_e1t20", "bottleneck_e0t20"])
def test_smfe_command_on_the_bottleneck(tmp_path, repo_root, epsilon, code):
    # The shipped bottleneck models (theta 20) under a short FP run.  With
    # inertia the Newton solve stalls and fails fast; smfe.json then holds
    # the pair it stalled at, with that pair's own residuals.
    from mfgcommute.cli import build_scenario
    from mfgcommute.core import bellman_apply
    from mfgcommute.stationary import StationaryPair, smfe_residuals

    out = tmp_path / "out"
    path = write_config(tmp_path, bottleneck_config(repo_root, out, epsilon=epsilon))
    assert main(["smfe", "--config", str(path)]) == code
    doc = json.loads((out / "smfe.json").read_text())
    assert doc["converged"] is (code == 0)
    cm, _ = build_scenario(load_config(path))
    v, mu = np.array(doc["V_bar"]), np.array(doc["mu_bar"])
    pair = StationaryPair(v, mu, doc["lambda_bar"], bellman_apply(v, mu, cm)[1])
    assert smfe_residuals(pair, cm) == (doc["r1"], doc["r2"])
    assert (max(doc["r1"], doc["r2"]) <= 1e-8) is (code == 0)


def test_run_and_smfe_import_no_scipy_solver(tmp_path, repo_root):
    # Both stationary solves and logit_sue (route without inertia) are numpy
    # Newton solves; scipy.optimize or scipy.linalg would add tens of MB to
    # the resident size of a run.
    import os
    import subprocess
    import sys

    out = tmp_path / "out"
    path = write_config(tmp_path, route_config(repo_root, out, epsilon=0.0))
    script = (
        "import sys\n"
        "from mfgcommute.cli import main\n"
        f"assert main(['run', '--config', {str(path)!r}]) == 0\n"
        f"assert main(['smfe', '--config', {str(path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.linalg'))))\n"
    )
    paths = [str(repo_root / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert json.loads((out / "smfe.json").read_text())["df_to_logit_sue"] <= 1e-7


def test_relative_scenario_path_resolves_against_config(tmp_path, repo_root):
    nested = tmp_path / "configs"
    nested.mkdir()
    (tmp_path / "scen").mkdir()
    scen = tmp_path / "scen" / "net.json"
    scen.write_text((repo_root / "scenarios" / "grid9.json").read_text())
    cfg = route_config(repo_root, tmp_path / "out",
                       scenario_file="../scen/net.json")
    path = write_config(nested, cfg)
    loaded = load_config(path)
    assert loaded.scenario_path.resolve() == scen.resolve()
    assert main(["validate", "--config", str(path)]) == 0


def test_relative_outputs_resolve_against_config(tmp_path, repo_root, monkeypatch):
    nested = tmp_path / "configs"
    nested.mkdir()
    elsewhere = tmp_path / "a" / "cwd"
    elsewhere.mkdir(parents=True)
    monkeypatch.chdir(elsewhere)
    path = write_config(nested, route_config(
        repo_root, "../out/exp", horizon=3, solver={"max_iters": 5, "exploitability_tol": 1e-9}))
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "exp" / "report.json").is_file()
    assert list((tmp_path / "a").iterdir()) == [elsewhere]


@pytest.mark.parametrize("below_a_file", [False, True], ids=["file", "below-file"])
def test_run_names_outputs_when_the_directory_cannot_be_made(tmp_path, repo_root, capsys,
                                                            below_a_file):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "out" if below_a_file else blocker
    path = write_config(tmp_path, route_config(
        repo_root, tmp_path / "unused", horizon=3,
        solver={"max_iters": 5, "exploitability_tol": 1e-9}))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "config field 'outputs'" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_shipped_configs_validate(repo_root):
    from mfgcommute.cli import build_scenario, _resolve_mu0

    names = sorted(p.name for p in (repo_root / "configs").glob("*.json"))
    assert names == ["bottleneck_e0t20.json", "bottleneck_e1t20.json",
                     "route_e0t1.json", "route_e0t20.json", "route_e1t1.json"]
    for name in names:
        cfg = load_config(repo_root / "configs" / name)
        cm, _ = build_scenario(cfg)
        mu0 = _resolve_mu0(cfg, cm.M)
        assert mu0.shape == (cm.M,)
        # run without --out writes inside the checkout, wherever it starts.
        assert cfg.output_path.resolve().is_relative_to(repo_root.resolve())


def test_help_and_module_entry(tmp_path, repo_root):
    import os
    import subprocess
    import sys

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0

    path = write_config(tmp_path, route_config(repo_root, tmp_path / "out",
                                               horizon=3,
                                               solver={"max_iters": 5,
                                                       "exploitability_tol": 1e-9}))
    # The source tree goes first on the child's path, as it does on pytest's,
    # so the entry point runs without an installed package.
    paths = [str(repo_root / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "mfgcommute", "validate", "--config", str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    assert proc.returncode == 0
    assert "config OK" in proc.stdout


def test_log_verbosity_env(tmp_path, repo_root, monkeypatch):
    monkeypatch.setenv("MFG_LOG", "info")
    path = write_config(tmp_path, route_config(repo_root, tmp_path / "out"))
    assert main(["validate", "--config", str(path)]) == 0

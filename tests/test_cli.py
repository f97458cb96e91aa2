from __future__ import annotations

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from mfgcommute.cli import (
    ConfigError,
    build_experiment,
    build_scenario,
    compare_smfe,
    config_from_dict,
    dump_json,
    load_config,
    main,
    run_experiment,
)
from mfgcommute.core import SolverFailure, dist_distance
from mfgcommute.stationary import solve_smfe
from conftest import shipped_model


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
        # Range and type checks of their own, each naming its field.
        ("horizon", {"horizon": 0}),
        ("horizon", {"horizon": 10**400}),  # an int past the float range
        ("epsilon", {"epsilon": -1}),
        ("inertia_kind", {"inertia_kind": "x"}),
        ("inertia_kind", {"scenario": "bottleneck", "inertia_kind": "indicator"}),
        ("mu0", {"mu0": {}}),
        ("solver", {"solver": []}),
        ("policy_days", {"policy_days": 3}),
    ]:
        cfg = route_config(repo_root, tmp_path / "out", **overrides)
        with pytest.raises(ConfigError) as exc:
            config_from_dict(cfg, tmp_path)
        assert exc.value.field == field

    # validate and run agree: a config that run would reject fails validate.
    cfg = route_config(repo_root, tmp_path / "out", solver={"max_iters": 0})
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 1


@pytest.mark.parametrize("content", [b'{"scenario": "route", \xff}', b'{"scenario": "ro', None],
                         ids=["undecodable", "truncated", "directory"])
def test_an_unreadable_config_file_names_config(tmp_path, capsys, content):
    path = tmp_path / "exp.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    for command in ("validate", "run", "smfe"):
        assert main([command, "--config", str(path)]) == 1
        assert "config field 'config'" in capsys.readouterr().out


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
    # run measures its own trajectory against the stationary pair, day by day.
    df_per_day = diag["smfe"]["df_per_day"]
    assert len(df_per_day) == 8
    mu_bar = solve_smfe(build_scenario(cfg)[0]).mu_bar
    assert df_per_day[-1] == dist_distance(mu_bar, mf[-1])

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
    from mfgcommute.fictitious import fictitious_play

    out = tmp_path / "out"
    cfg = config_from_dict(route_config(repo_root, out), tmp_path)
    run_experiment(cfg, out)
    cm, _, fp = build_experiment(cfg)
    report = fictitious_play(cm, fp)
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


def test_horizon_one_with_an_empty_option_writes_one_null_flatness(tmp_path, repo_root):
    # Day 0 is the only day and has an empty option: no day has a profile.
    out = tmp_path / "out"
    cfg = config_from_dict(route_config(
        repo_root, out, horizon=1, mu0=[0.0, 0.2, 0.5, 0.1, 0.1, 0.1]), tmp_path)
    assert run_experiment(cfg) == 0
    assert json.loads((out / "diagnostics.json").read_text())["augmented_cost_flatness"] == [None]


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


def test_policy_days_override(tmp_path, repo_root, capsys):
    # The config's policy_days picks the days written, and [] picks none;
    # without the key, run writes days 0 and N-1 (test_run_experiment_artifacts).
    for days in ([1, 3], []):
        out = tmp_path / f"out{len(days)}"
        path = write_config(tmp_path, route_config(repo_root, out, policy_days=days))
        assert main(["run", "--config", str(path)]) == 0
        assert sorted(p.name for p in out.glob("policy_day_*.csv")) == [
            f"policy_day_{n}.csv" for n in days
        ]
    for bad in ([1, 99], [1, "x"]):
        path = write_config(tmp_path, route_config(repo_root, tmp_path / "bad", policy_days=bad))
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == 1
        assert "policy_days" in capsys.readouterr().out
    # The config is the one place that picks them: run has no flag for it.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(path), "--policy-days", "1"])
    assert exc.value.code == 2


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


def no_fp(cm, cfg):
    raise AssertionError("smfe ran fictitious play")


def test_smfe_command(tmp_path, repo_root, monkeypatch):
    # smfe solves the stationary pair alone: it has no path to fictitious play.
    monkeypatch.setattr("mfgcommute.cli.fictitious_play", no_fp)
    out = tmp_path / "out"
    path = write_config(tmp_path, route_config(
        repo_root, out, epsilon=0.0, solver={"max_iters": 30, "exploitability_tol": 1e-9}))
    assert main(["smfe", "--config", str(path)]) == 0
    doc = json.loads((out / "smfe.json").read_text())
    assert doc["converged"] is True
    assert doc["r1"] <= 1e-8 and doc["r2"] <= 1e-8
    assert doc["df_to_logit_sue"] <= 1e-7
    assert doc["value_gap_check"] is True
    assert "df_per_day" not in doc


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
    monkeypatch.setattr("mfgcommute.cli.fictitious_play", no_fp)
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


@pytest.mark.parametrize("epsilon, code", [(1.0, 0), (0.0, 0)],
                         ids=["bottleneck_e1t20", "bottleneck_e0t20"])
def test_smfe_command_on_the_bottleneck(tmp_path, repo_root, epsilon, code):
    # The shipped bottleneck models (theta 20), with and without inertia:
    # the Newton solve in the relative values certifies both, and smfe.json
    # holds the pair with that pair's own residuals.  Exit code 0 goes with
    # residuals within 1e-8, and exit code 2 with a pair that misses them.
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
    # The checks follow the cost model, not the scenario: without inertia
    # the stationary law is the logit equilibrium and the value gaps are
    # bracketed at epsilon = 0; shift inertia gets neither check.
    if epsilon == 0.0:
        assert doc["value_gap_check"] is True
        assert doc["df_to_logit_sue"] <= 1e-12
    else:
        assert "value_gap_check" not in doc and "df_to_logit_sue" not in doc


def test_smfe_writes_null_when_the_logit_benchmark_fails(tmp_path, repo_root, monkeypatch):
    def failing_sue(cm):
        raise SolverFailure("logit SUE stopped", residual=0.5)

    monkeypatch.setattr("mfgcommute.cli.logit_sue", failing_sue)
    out = tmp_path / "out"
    path = write_config(tmp_path, route_config(repo_root, out, epsilon=0.0))
    assert main(["smfe", "--config", str(path)]) == 0
    doc = json.loads((out / "smfe.json").read_text())
    assert doc["converged"] is True and doc["value_gap_check"] is True
    assert doc["df_to_logit_sue"] is None


def modules_after(repo_root, script, top="scipy"):
    # The modules under ``top`` that a fresh interpreter holds after running
    # ``script`` against this checkout's package.
    import os
    import subprocess
    import sys

    script = ("import sys\n" + script
              + f"print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))\n")
    paths = [str(repo_root / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_run_and_smfe_import_no_scipy_solver(tmp_path, repo_root):
    # Both stationary solves and logit_sue (route without inertia) are numpy
    # Newton solves, and the entropy and softmax are numpy too: any scipy
    # module would add tens of MB and a third of a second to every run.
    out = tmp_path / "out"
    path = write_config(tmp_path, route_config(repo_root, out, epsilon=0.0))
    script = (
        "from mfgcommute.cli import main\n"
        f"assert main(['run', '--config', {str(path)!r}]) == 0\n"
        f"assert main(['smfe', '--config', {str(path)!r}]) == 0\n"
    )
    assert modules_after(repo_root, script) == "[]"
    assert json.loads((out / "smfe.json").read_text())["df_to_logit_sue"] <= 1e-7


def test_run_and_smfe_map_no_openssl(tmp_path, repo_root):
    # No command hashes anything, so none needs hashlib, which would map
    # OpenSSL, about 3.5 MB of resident memory, into every command.
    out = tmp_path / "out"
    path = write_config(tmp_path, route_config(repo_root, out))
    script = (
        "from mfgcommute.cli import main\n"
        f"assert main(['run', '--config', {str(path)!r}]) == 0\n"
        f"assert main(['smfe', '--config', {str(path)!r}]) == 0\n"
    )
    assert modules_after(repo_root, script, "_hashlib") == "[]"


def test_package_import_and_bottleneck_run_load_no_scipy(tmp_path, repo_root):
    # The cold start of any command: the package import, then a bottleneck
    # run through fictitious play, its certificate and the stationary
    # diagnostic.
    out = tmp_path / "out"
    path = write_config(tmp_path, bottleneck_config(repo_root, out, epsilon=1.0))
    script = (
        "import mfgcommute\n"
        "from mfgcommute.cli import main\n"
        f"assert main(['run', '--config', {str(path)!r}]) == 0\n"
    )
    assert modules_after(repo_root, script) == "[]"
    assert (out / "diagnostics.json").exists()


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
    names = sorted(p.stem for p in (repo_root / "configs").glob("*.json"))
    assert names == ["bottleneck_e0t20", "bottleneck_e1t20",
                     "route_e0t1", "route_e0t20", "route_e1t1"]
    for name in names:
        cfg, cm, _, fp = shipped_model(name)
        # FP runs on the config's budget and initial split, as run takes them.
        assert (fp.horizon, fp.max_iters, fp.exploitability_tol) == (
            cfg.horizon, cfg.max_iters, cfg.exploitability_tol)
        want = np.full(cm.M, 1.0 / cm.M) if cfg.mu0 == "uniform" else cfg.mu0
        assert np.array_equal(fp.mu0, want)
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
    # MFG_LOG is read without regard to case, and "off" configures nothing.
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda level: levels.append(level))
    path = write_config(tmp_path, route_config(repo_root, tmp_path / "out"))
    for value, want in (("off", []), ("info", [logging.INFO]), ("debug", [logging.DEBUG]),
                        ("DEBUG", [logging.DEBUG])):
        levels.clear()
        monkeypatch.setenv("MFG_LOG", value)
        assert main(["validate", "--config", str(path)]) == 0
        assert levels == want, value


def test_dump_json_of_an_unserializable_value_leaves_no_file(tmp_path):
    path = tmp_path / "doc.json"
    for value in ({"a": object()}, {"a": {1, 2}}):
        with pytest.raises(TypeError):
            dump_json(value, path)
        assert not path.exists()

from __future__ import annotations

import importlib.util
import json
import re


def load_script(repo_root, name):
    path = repo_root / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_bottleneck_fp_stability_script_runs(repo_root, capsys):
    # The script reaches into the package API; run it briefly so it cannot
    # drift from that API unnoticed.
    script = load_script(repo_root, "bottleneck_fp_stability")
    script.main(["--iters", "50"])
    out = capsys.readouterr().out
    residual = re.search(r"logit fixed point at theta=20: residual (\S+)", out)
    assert residual is not None and float(residual.group(1)) <= 1e-12
    assert "fictitious play, 50 iterations" in out


def test_fingerprint_script_hashes_every_case(repo_root, capsys):
    load_script(repo_root, "fingerprint").main()
    hashes = json.loads(capsys.readouterr().out)
    configs = ["route_e1t1", "route_e0t1", "route_e0t20", "bottleneck_e1t20",
               "bottleneck_e0t20"]
    assert sorted(hashes) == sorted(
        [f"fp/{c}" for c in configs] + [f"fp-trace/{c}" for c in configs]
        + [f"smfe/{c}" for c in configs]
        + [f"cap30/{c}" for c in configs] + ["damped/bottleneck_e1t20"])
    assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in hashes.values())
    assert len(set(hashes.values())) == len(hashes)

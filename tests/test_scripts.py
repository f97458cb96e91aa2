from __future__ import annotations

import importlib.util
import re


def test_bottleneck_fp_stability_script_runs(repo_root, capsys):
    # The script reaches into the package API; run it briefly so it cannot
    # drift from that API unnoticed.
    path = repo_root / "scripts" / "bottleneck_fp_stability.py"
    spec = importlib.util.spec_from_file_location("bottleneck_fp_stability", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(["--iters", "50"])
    out = capsys.readouterr().out
    residual = re.search(r"logit fixed point at theta=20: residual (\S+)", out)
    assert residual is not None and float(residual.group(1)) <= 1e-12
    assert "fictitious play, 50 iterations" in out

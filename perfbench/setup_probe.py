"""Set-up time of one workload, measured in a fresh interpreter.

Times importing the package, reading the config and scenario and building
the cost model with its inertia matrix, and prints the seconds.  The runner
starts this script several times per run, each time between two runs of a
reference interpreter, and reports the median of the rescaled times.

    python3 perfbench/setup_probe.py --config configs/route_e0t1.json [--cli]

With ``--cli`` the config goes through ``cli.load_config`` and
``cli.build_scenario``, as the ``run`` and ``smfe`` commands do.
"""

import sys
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--cli", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.cli:
        from mfgcommute import cli

        cm, _ = cli.build_scenario(cli.load_config(ROOT / args.config))
        cm.inertia_matrix
    else:
        from workloads import build_cost_model, read_config

        build_cost_model(ROOT, read_config(ROOT, args.config))
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()

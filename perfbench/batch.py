"""scenario-batch operation: run_scenario on several configs in one process.

usage: python3 perfbench/batch.py --out DIR CONFIG [CONFIG ...]

The k-th config writes DIR/cfg<k>/summary.json and trajectory.csv. Only
public functions of aquafel are called, looked up on their modules at
call time so that a traced run can time them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def run_batch(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="batch.py")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("configs", nargs="+", type=Path)
    args = parser.parse_args(argv)

    from aquafel import config, scenario

    for k, path in enumerate(args.configs):
        try:
            cfg, defaulted = config.load_config(path)
        except config.ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        cfg.output_dir = args.out / f"cfg{k}"
        scenario.run_scenario(cfg, defaulted)
    return 0


if __name__ == "__main__":
    sys.exit(run_batch(sys.argv[1:]))

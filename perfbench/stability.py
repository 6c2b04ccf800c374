"""Stability self-check: two sets of runs of the same commit.

usage: python3 perfbench/stability.py

Each set runs run.py RUNS times on every workload in BENCHMARK.json,
with the run length from there and tracing off; every run gets a new
seed. Each run's record is printed as one JSON line as it finishes.
Then, for each (end-to-end metric, workload), it prints both sets'
medians and spreads (the distance between the first and third quartile
as a share of the median) and checks, against the metric's bound in
BENCHMARK.json:

  spread  each set's spread is within the bound;
  agree   the second set's median is within the bound of the first's,
          faster or slower;
  failed  the share of failed operations is the same in both sets.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def analyse(records: list[dict], spec: dict) -> bool:
    ok = True
    for workload in sorted({r["workload"] for r in records}):
        print(f"\n{workload}")
        shares = set()
        for s in range(SETS):
            rs = [r for r in records if r["workload"] == workload and r["set"] == s]
            shares.add(Fraction(sum(r["result"]["failed"] for r in rs),
                                sum(r["result"]["attempted"] for r in rs)))
        failed_ok = len(shares) == 1
        ok &= failed_ok
        print(f"  failed share per set: {sorted(map(float, shares))} -> {'ok' if failed_ok else 'DIFFERS'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, cells = [], []
            for s in range(SETS):
                values = [r["result"]["metrics"][name]["value"] for r in records
                          if r["workload"] == workload and r["set"] == s]
                med = statistics.median(values)
                sp = spread(values)
                medians.append(med)
                spread_ok = sp <= bound
                ok &= spread_ok
                cells.append(f"set{s} n={len(values)} median {med:.6g} spread {sp:.3f}"
                             f"{'' if spread_ok else ' (> bound)'}")
            change = medians[1] / medians[0] - 1.0
            agree = abs(change) <= bound
            ok &= agree
            print(f"  {name:12s} bound {bound:<5g} " + "; ".join(cells)
                  + f"; change {change:+.3f} -> {'agree' if agree else 'DISAGREE'}")
    print("\nstable" if ok else "\nNOT stable")
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = []
    seed = FIRST_SEED
    for s in range(SETS):
        for workload in (w["name"] for w in spec["workloads"]):
            for _ in range(RUNS):
                record = {"set": s, "workload": workload, "seed": seed,
                          "result": run_once(workload, seed, spec["run_seconds"])}
                seed += 1
                records.append(record)
                print(json.dumps(record), flush=True)
    return 0 if analyse(records, spec) else 1


if __name__ == "__main__":
    sys.exit(main())

"""aquafel benchmark: one workload, fresh processes, checked outputs.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (src/aquafel must exist). The
program is driven only from outside: through `python -m aquafel.cli`
with a private copy of src/ on PYTHONPATH, and through batch.py, which
calls aquafel's public functions. Each run works in a directory of its
own under .perfbench_work/ and deletes it at the end, so no run sees the
outputs or bytecode cache of another.

--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb),
--trace 1 the per-layer metrics from traced operations (traced.py),
among them the tracing overhead. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. Metric names and
units are read from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

sys.dont_write_bytecode = True

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Cold `aquafel derive` processes per run: one that fills the fresh
#: bytecode cache, then SETUP_REPS that are timed (setup_s is their median).
#: The timed ones are spread over the run's measuring time, between the
#: workload operations, so that both see the same drift in machine speed.
SETUP_REPS = 20
#: Traced `derive` processes per traced run (cli.import_s, config.load_s).
TRACED_SETUP_REPS = 3
#: Fewest workload operations in one untraced or traced run.
MIN_OPS = 5
MIN_TRACED_OPS = 1
#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: The reference loop's mean time on the machine in README.md when it is
#: quiet. Timings are scaled by REFERENCE_S / (mean loop time in the run).
REFERENCE_S = 0.070
_REFERENCE_PHASE = np.linspace(0.0, 2.0 * math.pi, 16384)


def reference_loop() -> float:
    """Seconds that one fixed loop takes now: numpy on 16384-element complex
    arrays, then Python float arithmetic and string formatting. It uses
    nothing from aquafel, so only the speed of the machine moves it."""
    start = perf_counter()
    z = np.exp(1j * _REFERENCE_PHASE)
    for _ in range(80):
        z = z * np.exp(-0.5j * _REFERENCE_PHASE) + 0.5 * np.sin(_REFERENCE_PHASE)
        z /= np.abs(z).max()
    acc, text = 0.0, []
    for k in range(1, 40000):
        acc += math.sqrt(k) * 1.0001 ** (k % 7)
        if k % 4 == 0:
            text.append(f"{acc:.17g}")
    ",".join(text)
    return perf_counter() - start


class Bench:
    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.work = work
        self.plan = workloads.prepare(name, work, seed)
        self.run_id = f"{name}-seed{seed}"
        self.env = dict(os.environ, PYTHONPATH=str(work / "src"))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None
        self._children = 0

    # --- processes ---------------------------------------------------------

    def child(self, argv: list[str]) -> tuple[float, float, int, Path]:
        """Run one process to its end: (wall s, peak RSS MB, exit code, stdout path)."""
        self._children += 1
        log = self.work / "log" / f"{self._children:04d}"
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = Path(f"{log}.err").read_text(errors="replace")[-2000:]
            print(f"exit code {proc.returncode}: {' '.join(argv)[:200]}\n{tail}", file=sys.stderr)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, Path(f"{log}.out")

    def attempt(self, argv: list[str], check) -> tuple[float, float, bool]:
        """One operation: run it and check its outputs; (wall, RSS, passed)."""
        self.attempted += 1
        wall, rss, code, stdout = self.child(argv)
        passed = code == 0
        if passed:
            try:
                check(stdout)
            except (checks.CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
                print(f"check failed ({type(exc).__name__}): {exc}", file=sys.stderr)
                passed = False
        self.failed += not passed
        return wall, rss, passed

    # --- operations --------------------------------------------------------

    def setup_op(self, traced_spans: Path | None = None) -> float:
        args = ["derive", "--config", str(self.plan.setup_config)]
        if traced_spans is None:
            argv = [sys.executable, "-m", "aquafel.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), str(traced_spans),
                    f"{self.run_id}-setup", "cli", *args]

        def check(stdout: Path) -> None:
            summary = checks.strict_json(stdout.read_text())
            checks.check_derived(summary, self.plan.setup_rho, self.plan.setup_p_z)

        return self.attempt(argv, check)[0]

    def workload_op(self, index: int, spans: Path | None = None) -> tuple[float, float]:
        out = self.work / f"out{index}"
        args = [str(out) if a == "{out}" else a for a in self.plan.args]
        if spans is not None:
            argv = [sys.executable, str(HERE / "traced.py"), str(spans),
                    f"{self.run_id}-op{index}", self.plan.kind, *args]
        elif self.plan.kind == "cli":
            argv = [sys.executable, "-m", "aquafel.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "batch.py"), *args]

        def check(_stdout: Path) -> None:
            self.plan.check(out)
            digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.rglob("*")) if p.is_file()}
            self.reference = self.reference or digests
            checks.need(digests == self.reference, "outputs differ from the run's first operation")

        wall, rss, _ = self.attempt(argv, check)
        shutil.rmtree(out, ignore_errors=True)
        return wall, rss


# --- per-layer metrics from spans -------------------------------------------------


def _load_spans(path: Path) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Span durations by name, and the counters (see Tracer.dump)."""
    spans_line, counters_line = path.read_text().splitlines()
    durations: dict[str, list[float]] = {}
    for name, start, end, _parent, _run in json.loads(spans_line)["spans"]:
        durations.setdefault(name, []).append(end - start)
    return durations, json.loads(counters_line)


def layer_values(spans: Path) -> dict[str, float]:
    """Per-layer values of one traced workload operation.

    *_s: total seconds the operation spent in that call; *_us: median
    microseconds per call; counts per operation. A layer the operation
    never entered reads 0.
    """
    d, counters = _load_spans(spans)
    total = lambda name: sum(d.get(name, ()), 0.0)  # noqa: E731
    per_call_us = lambda name: statistics.median(d[name]) * 1e6 if name in d else 0.0  # noqa: E731
    step_us = per_call_us("dynamics.step")
    particles = counters.get("dynamics.particles", 0.0)
    values = {
        "scenario.derive_chain_s": total("scenario.derive_chain"),
        "scenario.run_scenario_s": total("scenario.run_scenario"),
        "scenario.integrations": float(len(d.get("dynamics.run", ()))),
        "scenario.distinct_sim_configs": counters.get("scenario.distinct_sim_configs", 0.0),
        "dynamics.init_ensemble_s": total("dynamics.init_ensemble"),
        "dynamics.run_s": total("dynamics.run"),
        "dynamics.steps": float(len(d.get("dynamics.step", ()))),
        "dynamics.step_us": step_us,
        "dynamics.ns_per_particle_step": step_us * 1e3 / particles if particles else 0.0,
        "dynamics.derivative_us": counters.get("dynamics.derivative_us", 0.0),
        "dynamics.pairwise_sum_us": counters.get("dynamics.pairwise_sum_us", 0.0),
        "dynamics.bunching_us": per_call_us("dynamics.bunching"),
        "dynamics.records": float(len(d.get("dynamics.bunching", ()))),
        "scenario.write_summary_s": total("scenario.write_summary"),
        "scenario.write_trajectory_csv_s": total("scenario.write_trajectory_csv"),
        "scenario.trajectory_bytes": counters.get("scenario.trajectory_bytes", 0.0),
        "svgplot.render_svg_s": total("svgplot.render_svg"),
        "svgplot.svg_bytes": counters.get("svgplot.svg_bytes", 0.0),
        "scaling.gain_coefficients_us": per_call_us("scaling.gain_coefficients"),
        "scenario.sweep_s": total("scenario.sweep"),
        "scenario.write_sweep_csv_s": total("scenario.write_sweep_csv"),
        "scenario.sweep_csv_bytes": counters.get("scenario.sweep_csv_bytes", 0.0),
        "trace.overhead_s": (counters["trace.install_s"] + counters["trace.dump_s"]
                             + counters["trace.wrapped_calls"] * counters["trace.span_cost_s"]),
    }
    return values


# --- runs ---------------------------------------------------------------------------


def _another(durations: list[float], minimum: int, start: float, seconds: float) -> bool:
    """Start another operation if the run needs more, or if one more of the
    median length still ends within the measuring time."""
    if len(durations) < minimum:
        return True
    return perf_counter() - start + statistics.median(durations) <= seconds


def run_untraced(bench: Bench, seconds: float) -> dict[str, float]:
    bench.setup_op()  # fills this run's bytecode cache; checked, not timed
    setup, walls, rss, refs = [], [], [], []
    start = perf_counter()
    while True:
        refs.append(reference_loop())
        # keep set-up processes on pace to SETUP_REPS by the end of the run
        if len(setup) < min(SETUP_REPS, SETUP_REPS * (perf_counter() - start) / seconds + 1):
            setup.append(bench.setup_op())
            continue
        reserve = (SETUP_REPS - len(setup)) * statistics.median(setup)
        if not _another(walls, MIN_OPS, start, seconds - reserve):
            break
        wall, peak = bench.workload_op(len(walls))
        walls.append(wall)
        rss.append(peak)
    for _ in range(SETUP_REPS - len(setup)):
        refs.append(reference_loop())
        setup.append(bench.setup_op())
    # Other tenants of the shared host slow this CPU by 2x and more, in bursts
    # of seconds and in drifts over minutes (README.md, "Machine"). One
    # reference loop runs on the same CPU before each process, so the mean
    # loop time rises with the mean contention the processes met, and
    # dividing by it takes that contention out.
    speed = REFERENCE_S / statistics.fmean(refs)
    print(f"{len(walls)} operations, wall s: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"wall s: mean {statistics.fmean(walls):.4f}, median {statistics.median(walls):.4f},"
          f" fastest {min(walls):.4f}")
    print("set-up s: " + " ".join(f"{w:.4f}" for w in setup))
    print(f"reference loop s: mean {statistics.fmean(refs):.4f}, median {statistics.median(refs):.4f},"
          f" fastest {min(refs):.4f} of {len(refs)}; speed factor {speed:.4f}")
    return {"wall_s": statistics.fmean(walls) * speed, "setup_s": statistics.median(setup) * speed,
            "peak_rss_mb": statistics.median(rss)}


def run_traced(bench: Bench, seconds: float) -> dict[str, float]:
    bench.setup_op()
    imports, loads = [], []
    for k in range(TRACED_SETUP_REPS):
        spans = bench.work / f"setup-spans{k}.json"
        bench.setup_op(spans)
        if spans.exists():
            d, _ = _load_spans(spans)
            imports += d.get("cli.import", [])
            loads += d.get("config.load", [])
    walls, layers = [], []
    start = perf_counter()
    while _another(walls, MIN_TRACED_OPS, start, seconds):
        spans = bench.work / f"spans{len(walls)}.json"
        walls.append(bench.workload_op(len(walls), spans)[0])
        if spans.exists():
            layers.append(layer_values(spans))
    metrics = {name: statistics.median(v[name] for v in layers) for name in (layers[0] if layers else {})}
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    metrics["config.load_s"] = statistics.median(loads) if loads else 0.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind as on an exception: Bench.child kills its running
    # process and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Run on one CPU, with every child, so that the reference loop and the
    # workload processes run on the same CPU and meet the same contention.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    source = ROOT / "src" / "aquafel"
    if not (source / "cli.py").is_file():
        print(f"no aquafel sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        (work / "log").mkdir(parents=True)
        shutil.copytree(ROOT / "src", work / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        bench = Bench(args.workload, args.seed, work)
        run = run_traced if args.trace else run_untraced
        values = run(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

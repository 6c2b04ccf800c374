"""Traced benchmark operation: one process, spans around aquafel's public calls.

usage: python3 perfbench/traced.py SPANS_JSON RUN_ID cli|batch ARGS...

Runs the same operation as the untraced process (the aquafel CLI with
ARGS, or batch.py with ARGS) with timing wrappers installed from outside.
Afterwards, in a span of its own ("bench.probe"), it times
dynamics.derivative and dynamics.pairwise_sum at the run's particle
count on the first and last states the run stepped from. All spans are
written to SPANS_JSON when the process ends.

The tracing overhead is estimated inside this process, not as the
difference of two noisy walls: the time spent installing the wrappers,
plus the number of wrapped calls times the cost of one wrapped no-op
call over a bare one, plus the time dump() takes to write the spans.
"""

from __future__ import annotations

import os
import statistics
import sys
from time import perf_counter

sys.dont_write_bytecode = True

from tracer import Tracer  # noqa: E402  (sibling module; path set by the script location)

#: Wall time spent timing each probed function per state, and the repeat bounds.
PROBE_SECONDS = 0.25
PROBE_MIN_REPS = 5
PROBE_MAX_REPS = 2000
#: No-op calls per batch, and batches, when timing the cost of one wrapped call.
CALIBRATION_CALLS = 20000
CALIBRATION_BATCHES = 5


def _install(tr: Tracer, states: dict, sim_configs: set) -> None:
    from aquafel import config, dynamics, scaling, scenario, svgplot

    def on_run(args, result):
        sim_configs.add(repr(args[0]))

    def on_step(args, result):
        states.setdefault("first", args[0])
        states["last"] = args[0]

    def file_bytes(key):
        return lambda args, result: tr.count(key, os.path.getsize(args[1]))

    tr.install(config, "load_config", "config.load")
    tr.install(scenario, "derive_chain", "scenario.derive_chain")
    tr.install(scenario, "run_scenario", "scenario.run_scenario")
    tr.install(dynamics, "run", "dynamics.run", after=on_run)
    tr.install(dynamics, "init_ensemble", "dynamics.init_ensemble")
    tr.install(dynamics, "step", "dynamics.step", after=on_step)
    tr.install(dynamics.EnsembleState, "bunching", "dynamics.bunching")
    tr.install(scenario, "write_summary", "scenario.write_summary")
    tr.install(scenario, "write_trajectory_csv", "scenario.write_trajectory_csv",
               after=file_bytes("scenario.trajectory_bytes"))
    tr.install(svgplot, "render_svg", "svgplot.render_svg",
               after=lambda args, result: tr.count("svgplot.svg_bytes", len(result.encode())))
    tr.install(scaling, "gain_coefficients", "scaling.gain_coefficients")
    tr.install(scenario, "sweep", "scenario.sweep")
    tr.install(scenario, "write_sweep_csv", "scenario.write_sweep_csv",
               after=file_bytes("scenario.sweep_csv_bytes"))


def _time_calls(fn) -> list[float]:
    samples: list[float] = []
    stop = perf_counter() + PROBE_SECONDS
    while len(samples) < PROBE_MIN_REPS or (
        perf_counter() < stop and len(samples) < PROBE_MAX_REPS
    ):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return samples


def _probe(tr: Tracer, states: dict) -> None:
    import numpy as np
    from aquafel import dynamics

    derivative, pairwise = [], []
    for state in {id(s): s for s in states.values()}.values():
        eith = np.exp(1j * state.theta)
        derivative += _time_calls(lambda: dynamics.derivative(state))
        pairwise += _time_calls(lambda: dynamics.pairwise_sum(eith))
    tr.counters["dynamics.particles"] = float(states["first"].theta.shape[0])
    tr.counters["dynamics.derivative_us"] = statistics.median(derivative) * 1e6
    tr.counters["dynamics.pairwise_sum_us"] = statistics.median(pairwise) * 1e6


def _span_cost() -> float:
    """Seconds one wrapped call adds over a bare call (median over batches)."""

    def noop():
        return None

    scratch = Tracer("calibration")
    wrapped = scratch.wrap(noop, "noop")
    costs = []
    for _ in range(CALIBRATION_BATCHES):
        scratch.spans.clear()
        t0 = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        t1 = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS)
    return statistics.median(costs)


def main(argv: list[str]) -> int:
    spans_path, run_id, kind, args = argv[0], argv[1], argv[2], argv[3:]
    tr = Tracer(run_id)
    t0 = perf_counter()
    import aquafel.cli

    tr.add("cli.import", t0, perf_counter())
    states: dict = {}
    sim_configs: set = set()
    t0 = perf_counter()
    _install(tr, states, sim_configs)
    tr.counters["trace.install_s"] = perf_counter() - t0
    if kind == "cli":
        operation = aquafel.cli.main
    else:
        import batch

        operation = batch.run_batch
    before = len(tr.spans)
    code = tr.wrap(operation, "op")(args)
    tr.counters["trace.wrapped_calls"] = float(len(tr.spans) - before - 1)
    tr.counters["scenario.distinct_sim_configs"] = float(len(sim_configs))
    tr.counters["trace.span_cost_s"] = _span_cost()
    if states:
        tr.wrap(_probe, "bench.probe")(tr, states)
    tr.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Strict validation of the program's outputs.

Every check raises CheckFailed with the first violation it finds; the
benchmark counts the operation as failed. Expected values come from
oracle.py (computed apart from the program) or from properties the
method must have.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import oracle

TRAJECTORY_HEADER = "tau,A0_scaled,phi,bunch_re,bunch_im,p_mean,conserved"
SWEEP_HEADER = "rho,P_z,A_sat,t_gain"
#: Relative tolerance of the closed-form oracle comparisons.
EXACT = 1e-12
_SVG_POLYLINE = "{http://www.w3.org/2000/svg}polyline"


class CheckFailed(Exception):
    pass


def need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _reject_constant(token: str):
    raise CheckFailed(f"non-finite JSON token {token!r}")


def strict_json(text: str):
    """json.loads that rejects the NaN, Infinity and -Infinity extensions."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None


def rel_close(value, expected, tol: float = EXACT) -> bool:
    return isinstance(value, (int, float)) and abs(value - expected) <= tol * abs(expected)


def check_derived(summary: dict, rho: float, p_z: float) -> tuple[float, float]:
    """Derived chain against the oracle's power laws; returns oracle (A_sat, t_gain)."""
    derived = summary["derived"]
    c_a, c_t = oracle.prefactors()
    a_sat, t_gain = (float(x) for x in oracle.saturation_scales(rho, p_z))
    for key, expected in (("c_A", c_a), ("c_t", c_t),
                          ("A_sat_V_s_per_m", a_sat), ("t_gain_s", t_gain)):
        need(rel_close(derived.get(key), expected),
             f"derived {key} = {derived.get(key)!r}, oracle {expected!r}")
    need(derived.get("mechanism_on") is True, "mechanism reported off")
    return a_sat, t_gain


def check_saturation_readout(summary: dict, a_sat: float, t_gain: float) -> None:
    """Physical readout at the first peak = scaled peak times the oracle scales."""
    sim = summary["simulation"]
    peak, tau = sim.get("sat_peak"), sim.get("sat_tau")
    need(isinstance(peak, float) and isinstance(tau, float), f"no saturation peak: {peak!r}")
    need(rel_close(sim.get("A0_at_sat_V_s_per_m"), peak * a_sat),
         f"A0_at_sat {sim.get('A0_at_sat_V_s_per_m')!r} != peak*A_sat {peak * a_sat!r}")
    need(rel_close(sim.get("t_at_sat_s"), tau * t_gain),
         f"t_at_sat {sim.get('t_at_sat_s')!r} != tau*t_gain {tau * t_gain!r}")


def check_linear_gain(summary: dict) -> None:
    """High-gain growth rate and a conserved invariant, from any quiet-start run."""
    sim = summary["simulation"]
    rate = sim.get("growth_rate_fit")
    need(rel_close(rate, math.sqrt(3.0) / 2.0, 0.05), f"growth rate {rate!r} not sqrt(3)/2 +- 5%")
    need(isinstance(sim.get("conserved_drift"), float) and sim["conserved_drift"] < 1e-8,
         f"invariant drift {sim.get('conserved_drift')!r} >= 1e-8")


def check_instability(summary: dict) -> None:
    """High-gain FEL signatures of a quiet-start run through saturation."""
    check_linear_gain(summary)
    sim = summary["simulation"]
    need(0.7 <= sim.get("sat_peak", -1.0) <= 1.6, f"first peak {sim.get('sat_peak')!r} outside [0.7, 1.6]")
    need(sim.get("bunching_at_sat", 0.0) > 0.5, f"|b| at peak {sim.get('bunching_at_sat')!r} <= 0.5")


def read_trajectory(path: Path, dt: float, tau_end: float, stride: int) -> np.ndarray:
    """Trajectory rows as an array; header, row count and tau grid checked."""
    lines = path.read_text().splitlines()
    need(bool(lines) and lines[0] == TRAJECTORY_HEADER, f"{path.name}: bad header")
    n_steps = int(round(tau_end / dt))
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    need(len(lines) - 1 == len(steps), f"{path.name}: {len(lines) - 1} rows, expected {len(steps)}")
    try:
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    need(data.shape == (len(steps), 7), f"{path.name}: expected 7 columns")
    need(bool(np.isfinite(data).all()), f"{path.name}: non-finite value")
    grid = np.array(steps) * dt
    need(bool(np.all(np.abs(data[:, 0] - grid) <= 1e-12 * np.maximum(1.0, grid))),
         f"{path.name}: tau column off the k*stride*dt grid")
    need(abs(data[-1, 0] - tau_end) <= 1e-12 * tau_end,
         f"{path.name}: last tau {data[-1, 0]!r} != tau_end {tau_end!r}")
    return data


def check_svg(path: Path, n_points: int) -> None:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckFailed(f"{path.name}: not XML: {exc}") from None
    lines = list(root.iter(_SVG_POLYLINE))
    need(len(lines) == 2, f"{path.name}: {len(lines)} polylines, expected 2")
    for line in lines:
        points = line.get("points", "").split()
        need(len(points) == n_points, f"{path.name}: polyline has {len(points)} points, expected {n_points}")
        try:
            coords = [float(c) for p in points for c in p.split(",")]
        except ValueError:
            raise CheckFailed(f"{path.name}: malformed polyline point") from None
        need(len(coords) == 2 * n_points and all(map(math.isfinite, coords)),
             f"{path.name}: malformed polyline point")


def linear_regime_error(data: np.ndarray) -> float:
    """max |A - A_lin| / max |A_lin| over the recorded trajectory.

    A_lin is the oracle's closed form from the recorded initial field and
    bunching; the momenta start at zero, so P0 = 0.
    """
    need(data[0, 5] == 0.0, "p_mean(0) != 0: momenta must start at zero")
    field = data[:, 1] * np.exp(-1j * data[:, 2])
    b0 = complex(data[0, 3], data[0, 4])
    expected = oracle.linear_field(data[:, 0], field[0], b0)
    return float(np.max(np.abs(field - expected)) / np.max(np.abs(expected)))


def check_sweep(path: Path, rhos: list[float], pzs: list[float]) -> None:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        need(header == SWEEP_HEADER, f"{path.name}: bad header {header!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckFailed(f"{path.name}: {exc}") from None
    rows = len(rhos) * len(pzs)
    need(data.shape == (rows, 4), f"{path.name}: shape {data.shape}, expected ({rows}, 4)")
    need(bool(np.array_equal(data[:, 0], np.repeat(rhos, len(pzs)))
              and np.array_equal(data[:, 1], np.tile(pzs, len(rhos)))),
         f"{path.name}: rows missing or not in rho-major order")
    a_sat, t_gain = oracle.saturation_scales(data[:, 0], data[:, 1])
    for col, expected, name in ((2, a_sat, "A_sat"), (3, t_gain, "t_gain")):
        worst = float(np.max(np.abs(data[:, col] - expected) / np.abs(expected)))
        need(worst <= EXACT, f"{path.name}: {name} off the oracle by {worst:.2e} relative")

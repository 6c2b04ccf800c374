"""End-to-end scenario execution, parameter sweeps and file output.

derive_chain computes the physical chain once: rotor constants ->
polarization -> shell inversion -> gain coefficients, as the "derived"
part of the summary. run_scenario calls it, integrates, rescales the
scaled results by the A_sat and t_gain that the summary reports, and
writes a self-contained summary.json plus a trajectory.csv time series.
All floats in the CSV are written with 17 significant digits in
scientific notation so outputs are bitwise reproducible and round-trip
exactly.

The equations of motion are in scaled units, so the physical inputs
(rho, P_z, T, n, delta_w) enter only through the rescaling by A_sat and
t_gain. The integration therefore depends on the SimConfig alone, and
_scaled_run keeps the last one: configs that differ only in physics share
one integration, and its Trajectory arrays are read-only.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, resolved_entries
from .constants import CODATA2018
from .dynamics import Diagnostics, SimConfig, Trajectory, run, validity_ratio
from .mixing import DELTA_W_LIMIT_CYCLE, polarization_result, solvation_inversion
from .quadrature import GAUSS_LEGENDRE_ORDER, TRAPEZOID_ORDER
from .rotor import build_rotor, thermal_inversion
from .scaling import SystemParams, gain_coefficients

#: Trajectory CSV columns, in the field order of Trajectory.
CSV_HEADER = "tau,A0_scaled,phi,bunch_re,bunch_im,p_mean,conserved"
#: One trajectory CSV row: the same text as f"{v:.16e}" for every value.
CSV_ROW = ",".join(["%.16e"] * len(CSV_HEADER.split(","))) + "\n"
SWEEP_HEADER = "rho,P_z,A_sat,t_gain"
SWEEP_ROW = ",".join(["%.16e"] * len(SWEEP_HEADER.split(","))) + "\n"


@dataclass(frozen=True)
class ScenarioResult:
    """Everything run_scenario produced, plus the output paths."""

    summary: dict
    trajectory: Trajectory | None
    summary_path: Path | None
    trajectory_path: Path | None

    @property
    def mechanism_on(self) -> bool:
        return self.summary["derived"]["mechanism_on"]


def derive_chain(config: ScenarioConfig, defaulted: list[str] | None = None) -> dict:
    """Physical derivation chain as a JSON-ready dict (no simulation)."""
    rotor = build_rotor(CODATA2018)
    P_z = config.polarization()
    pol = polarization_result(P_z, config.n_waters, config.delta_w)
    params = SystemParams(
        n=config.n_waters,
        delta_n_bar=pol.delta_n_bar,
        rho=config.ion_concentration(),
        P_z=P_z,
        rotor=rotor,
        mu=CODATA2018.mu0,
    )
    try:
        coeffs = gain_coefficients(params)
        thermal = thermal_inversion(rotor, config.n_waters, config.temperature)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    hc = CODATA2018.hbar * CODATA2018.c
    summary = {
        "resolved_config": resolved_entries(config),
        "applied_defaults": list(defaulted or []),
        "quadrature_orders": {
            "gauss_legendre_n": GAUSS_LEGENDRE_ORDER,
            "trapezoid_n": TRAPEZOID_ORDER,
        },
        "derived": {
            "I_ave_kg_m2": rotor.I_ave,
            "E_split_J": rotor.E_split,
            "E_split_over_hc_cm^-1": rotor.E_split / hc / 100.0,
            "omega_c_rad_s": rotor.omega_c,
            "l_c_m": rotor.l_c,
            "d0_C_m": rotor.d0,
            "d0_tilde_C_m": rotor.d0_tilde,
            "thermal_delta_n_bar": thermal.delta_n_bar,
            "thermal_energy_ratio": thermal.energy_ratio,
            "P_z": P_z,
            "delta_w": pol.delta_w,
            "w_plus": pol.w_plus,
            "w_minus": pol.w_minus,
            "delta_n_bar": pol.delta_n_bar,
            "rho_m^-3": params.rho,
            "alpha_coef": coeffs.alpha_coef,
            "beta_coef": coeffs.beta_coef,
            "c_A": _json_float(coeffs.c_A),
            "c_t": _json_float(coeffs.c_t),
            "A_sat_V_s_per_m": coeffs.A_sat,
            "t_gain_s": _json_float(coeffs.t_gain),
            "mechanism_on": coeffs.mechanism_on,
        },
    }
    if not coeffs.mechanism_on:
        summary["derived"]["note"] = (
            f"mechanism off: {mechanism_off_cause(P_z)} gives zero saturation amplitude and "
            "infinite gain time"
        )
    return summary


def mechanism_off_cause(P_z: float) -> str:
    """Why a scenario has no gain: no polarization, else no shell inversion."""
    return "P_z = 0" if P_z == 0.0 else "zero shell inversion (delta_w = 0)"


def _json_float(x: float):
    """JSON has no inf/nan; encode them as strings."""
    if math.isinf(x):
        return "infinity" if x > 0 else "-infinity"
    if math.isnan(x):
        return "nan"
    return x


@functools.lru_cache(maxsize=1)
def _scaled_run(sim: SimConfig) -> tuple[Trajectory, Diagnostics]:
    """run(sim), kept for the next call with an equal SimConfig.

    The arrays of the kept Trajectory are read-only, so no caller can
    change what a later call returns. A run that raises is not kept.
    """
    traj, diag = run(sim)
    for f in fields(Trajectory):
        getattr(traj, f.name).flags.writeable = False
    return traj, diag


def run_scenario(config: ScenarioConfig, defaulted: list[str] | None = None) -> ScenarioResult:
    """Full pipeline; writes summary.json and trajectory.csv under output_dir.

    The physical scales come from derive_chain's summary. The scaled
    integration comes from _scaled_run: one integration per distinct
    SimConfig, so consecutive configs that differ only in physics reuse
    it, and the returned trajectory's arrays are read-only. Its outputs
    are the same bytes as from a fresh integration. With P_z = 0
    the simulation is skipped (the scaled equations are degenerate) and
    the summary records the mechanism-off outcome.
    """
    summary = derive_chain(config, defaulted)
    derived = summary["derived"]
    # an unusable output_dir fails here, before the integration
    out = None if config.output_dir is None else Path(config.output_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    traj: Trajectory | None = None
    if derived["mechanism_on"]:
        traj, diag = _scaled_run(config.sim)
        A_sat, t_gain = derived["A_sat_V_s_per_m"], derived["t_gain_s"]
        summary["simulation"] = {
            "growth_rate_fit": _json_float(diag.growth_rate_fit),
            "sat_peak": _json_float(diag.sat_peak),
            "sat_tau": _json_float(diag.sat_tau),
            "bunching_at_sat": abs(diag.bunching),
            "p_mean_final": diag.p_mean,
            "conserved_final": diag.conserved,
            "conserved_drift": diag.conserved_drift,
            # NaN, like sat_peak and sat_tau, when no saturation peak was found
            "A0_at_sat_V_s_per_m": _json_float(diag.sat_peak * A_sat),
            "t_at_sat_s": _json_float(diag.sat_tau * t_gain),
            # max_I |theta_dot_I| / omega_c over the recorded states
            "validity_max_theta_dot_over_omega_c": validity_ratio(
                diag.p_max_abs, t_gain, derived["omega_c_rad_s"]
            ),
        }
    else:
        summary["simulation"] = {
            "skipped": True,
            "note": "gain time infinite (mechanism off), no dynamics integrated",
        }

    summary_path = trajectory_path = None
    if out is not None:
        summary_path = out / "summary.json"
        write_summary(summary, summary_path)
        if traj is not None:
            trajectory_path = out / "trajectory.csv"
            write_trajectory_csv(traj, trajectory_path)
    return ScenarioResult(summary, traj, summary_path, trajectory_path)


def write_summary(summary: dict, path: Path) -> None:
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    columns = np.column_stack([getattr(traj, f.name) for f in fields(Trajectory)])
    with Path(path).open("w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(CSV_ROW % tuple(row.tolist()) for row in columns)


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """Inverse of write_trajectory_csv (used by the plot subcommand)."""
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"not a trajectory CSV (bad header): {path}")
    width = len(CSV_HEADER.split(","))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = [float(x) for x in line.split(",")]
        except ValueError:
            row = []
        if len(row) != width or not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: expected {width} finite numbers, got {line!r}")
        rows.append(row)
    return Trajectory(*np.array(rows).reshape(-1, width).T)


# --- slippage diagnostic ------------------------------------------------------


@dataclass(frozen=True)
class SlippageDiagnostic:
    """Radiation slippage vs bunch length for a candidate superradiant setup."""

    l_b: float
    l_g: float
    v: float
    l_s: float
    ratio: float
    slippage_dominated: bool


#: l_s/l_b beyond which radiation escapes the bunch within one gain length.
SLIPPAGE_RATIO_THRESHOLD = 1e2


def slippage_check(l_b: float, l_g: float, v: float) -> SlippageDiagnostic:
    """Slippage length l_s = (c - v)·l_g/v and its ratio to the bunch length.

    A ratio far above one means the emitted radiation outruns the bunch
    long before saturation, so the bunched-superradiance route is not
    available and only the collective-instability route remains.
    """
    c = CODATA2018.c
    if not 0.0 < v < c:
        raise ValueError(f"velocity must satisfy 0 < v < c, got {v!r}")
    if not (0.0 < l_b < math.inf and 0.0 < l_g < math.inf):
        raise ValueError("bunch and gain lengths must be positive and finite")
    l_s = (c - v) * l_g / v
    ratio = l_s / l_b
    if not math.isfinite(ratio):
        raise ValueError(f"slippage ratio l_s/l_b overflows: l_s = {l_s!r} m, l_b = {l_b!r} m")
    return SlippageDiagnostic(
        l_b=l_b,
        l_g=l_g,
        v=v,
        l_s=l_s,
        ratio=ratio,
        slippage_dominated=ratio > SLIPPAGE_RATIO_THRESHOLD,
    )


# --- parameter sweep ----------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    rho: float
    P_z: float
    A_sat: float
    t_gain: float


def sweep(
    rho_values,
    pz_values,
    n: int = 30,
    delta_w: float | None = None,
    workers: int = 1,
) -> list[SweepRow]:
    """Saturation scales over a rho x P_z grid, in rho-major grid order.

    workers is accepted for compatibility and ignored: each point is a closed
    form evaluated serially, so results never depend on it.
    """
    if delta_w is None:
        delta_w = DELTA_W_LIMIT_CYCLE
    rotor = build_rotor(CODATA2018)
    dn_bar = solvation_inversion(n, delta_w)

    def one(rho: float, pz: float) -> SweepRow:
        params = SystemParams(
            n=n, delta_n_bar=dn_bar, rho=rho, P_z=pz, rotor=rotor, mu=CODATA2018.mu0
        )
        coeffs = gain_coefficients(params)
        return SweepRow(rho=rho, P_z=pz, A_sat=coeffs.A_sat, t_gain=coeffs.t_gain)

    return [one(rho, pz) for rho in rho_values for pz in pz_values]


def write_sweep_csv(rows: list[SweepRow], path: Path) -> None:
    with Path(path).open("w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        fh.writelines(SWEEP_ROW % (r.rho, r.P_z, r.A_sat, r.t_gain) for r in rows)

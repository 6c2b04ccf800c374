"""End-to-end scenario execution, parameter sweeps and file output.

derive_chain computes the physical chain once: rotor constants ->
polarization -> shell inversion -> gain coefficients, as the "derived"
part of the summary. run_scenario calls it, integrates, rescales the
scaled results by the A_sat and t_gain that the summary reports, and
writes a self-contained summary.json plus a trajectory.csv time series.
All floats in the CSVs are written with 17 significant digits in
scientific notation so outputs are bitwise reproducible and round-trip
exactly. Every output file is written as bytes (UTF-8 text with LF line
ends), so it is byte-identical on every platform.

The equations of motion are in scaled units, so the physical inputs
(rho, P_z, T, n, delta_w) enter only through the rescaling by A_sat and
t_gain. Two one-entry lru_caches rest on that: _scaled_run integrates
once per SimConfig, so configs that differ only in physics share one
trajectory, and _format_trajectory formats the CSV text once per
trajectory, so each config that shares it writes the same bytes. Both
are sound because a Trajectory is read-only from the moment it is built,
and the files are the bytes a fresh integration would give.

write_sweep_csv formats a whole rho row with one % operation on a bytes
template that holds the row's preformatted P_z column, so a 200 x 200 grid
costs little more than CPython's "%.16e" on its 80,000 scale values.

derive_chain, sweep and write_sweep_csv are plain float arithmetic. The
integrator (dynamics) and numpy are imported only inside the functions
that integrate or read and write a trajectory, so `aquafel derive` and
`aquafel sweep` never load them.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .config import ScenarioConfig, SimConfig, resolved_entries
from .constants import CODATA2018, GAUSS_LEGENDRE_ORDER, TRAPEZOID_ORDER
from .mixing import DELTA_W_LIMIT_CYCLE, solvation_inversion, weights_from_delta_w
from .rotor import build_rotor, thermal_inversion
from .scaling import SystemParams, gain_coefficients, gain_grid, validity_ratio

if TYPE_CHECKING:
    from .dynamics import Diagnostics, Trajectory

#: Trajectory CSV columns, in the column order of Trajectory.table.
CSV_HEADER = "tau,A0_scaled,phi,bunch_re,bunch_im,p_mean,conserved"
#: One trajectory CSV row: the same text as f"{v:.16e}" for every value.
CSV_ROW = ",".join(["%.16e"] * len(CSV_HEADER.split(","))) + "\n"
SWEEP_HEADER = "rho,P_z,A_sat,t_gain"


class ScenarioResult(NamedTuple):
    """Everything run_scenario produced, plus the output paths."""

    summary: dict
    trajectory: Trajectory | None
    summary_path: Path | None
    trajectory_path: Path | None

    @property
    def mechanism_on(self) -> bool:
        return self.summary["derived"]["mechanism_on"]


def derive_chain(config: ScenarioConfig, defaulted: list[str] | None = None) -> dict:
    """Physical derivation chain as a JSON-ready dict (no simulation).

    It raises what its callees raise, a plain ValueError for an input they
    reject; config_from_entries is where a config's values become ConfigError.
    """
    rotor = build_rotor()
    P_z = config.polarization()
    w_plus, w_minus = weights_from_delta_w(config.delta_w)
    params = SystemParams(
        n=config.n_waters,
        delta_n_bar=solvation_inversion(config.n_waters, config.delta_w),
        rho=config.ion_concentration(),
        P_z=P_z,
        rotor=rotor,
        mu=CODATA2018.mu0,
    )
    coeffs = gain_coefficients(params)
    thermal = thermal_inversion(rotor, config.n_waters, config.temperature)
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
            "delta_w": config.delta_w,
            "w_plus": w_plus,
            "w_minus": w_minus,
            "delta_n_bar": params.delta_n_bar,
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
    """dynamics.run(sim); a run that raises is not kept."""
    from . import dynamics

    return dynamics.run(sim)


def run_scenario(config: ScenarioConfig, defaulted: list[str] | None = None) -> ScenarioResult:
    """Full pipeline; writes summary.json and trajectory.csv under output_dir.

    The physical scales come from derive_chain's summary and the scaled
    integration from _scaled_run. With the mechanism off (P_z = 0, or a zero
    shell inversion, delta_w = 0) the simulation is skipped (the scaled
    equations are degenerate) and the summary records the mechanism-off outcome.
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
            "p_mean_final": float(traj.p_mean[-1]),
            "conserved_final": float(traj.conserved[-1]),
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


def write_summary(summary: dict, path: str | Path) -> None:
    """Write summary as sorted, indented JSON: UTF-8 bytes with LF line ends on
    every platform."""
    Path(path).write_bytes((json.dumps(summary, indent=2, sort_keys=True) + "\n").encode())


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Write traj as CSV_HEADER and one CSV_ROW per sample."""
    Path(path).write_bytes(_format_trajectory(traj))


@functools.lru_cache(maxsize=1)
def _format_trajectory(traj: Trajectory) -> bytes:
    row = CSV_ROW.encode()
    lines = [CSV_HEADER.encode() + b"\n"]
    lines += [row % tuple(values) for values in traj.table.tolist()]
    return b"".join(lines)


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """Inverse of write_trajectory_csv (used by the plot subcommand)."""
    import numpy as np

    from .dynamics import Trajectory

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
    return Trajectory(rows or np.empty((0, width)))


# --- slippage diagnostic ------------------------------------------------------


class SlippageDiagnostic(NamedTuple):
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


class SweepGrid(NamedTuple):
    """Axes rho, P_z and scales A_sat[i][j], t_gain[i][j] at (rho[i], P_z[j]),
    as lists of floats: one row per rho, so the rows are in rho-major order."""

    rho: list[float]
    P_z: list[float]
    A_sat: list[list[float]]
    t_gain: list[list[float]]


def sweep(rho_values, pz_values, n: int = 30, delta_w: float = DELTA_W_LIMIT_CYCLE,
          workers: int = 1) -> SweepGrid:
    """Saturation scales over a rho x P_z grid, as gain_grid gives them, for an
    n-molecule shell with level-weight difference delta_w (by default the
    limit-cycle value DELTA_W_LIMIT_CYCLE).

    workers is accepted for compatibility and ignored: the grid is one
    serial evaluation, so results never depend on it.
    """
    rho, P_z = [float(v) for v in rho_values], [float(v) for v in pz_values]
    A_sat, t_gain = [], []
    for row in gain_grid(n, solvation_inversion(n, delta_w), rho, P_z,
                         build_rotor(), CODATA2018.mu0):
        # each point is (alpha, beta, A_sat, t_gain, c_A, c_t); only the scales are kept
        A_sat.append([point[2] for point in row])
        t_gain.append([point[3] for point in row])
    return SweepGrid(rho, P_z, A_sat, t_gain)


def write_sweep_csv(grid: SweepGrid, path: Path) -> None:
    """One row per point in rho-major order, each value as "%.16e" (the text of
    f"{v:.16e}"), written one rho row of the grid at a time, so memory stays
    O(len(P_z)) however many rho values there are.

    The P_z column is the same for every rho row, so it is formatted once, into
    a bytes template for a whole row; each row is then one % operation on its
    preformatted rho and its A_sat and t_gain values, written to a binary file.
    A grid whose scale rows do not match its axes raises ValueError before the
    file is opened.
    """
    _check_sweep_shape(grid)
    m = len(grid.P_z)
    template = b"".join([b"%s," + b"%.16e" % pz + b",%.16e,%.16e\n" for pz in grid.P_z])
    with Path(path).open("wb") as fh:
        fh.write(SWEEP_HEADER.encode() + b"\n")
        for rho, A_row, t_row in zip(grid.rho, grid.A_sat, grid.t_gain):
            args = [b"%.16e" % rho] * (3 * m)
            args[1::3] = A_row
            args[2::3] = t_row
            fh.write(template % tuple(args))


def _check_sweep_shape(grid: SweepGrid) -> None:
    """Raise ValueError unless A_sat and t_gain each hold one row per rho and
    every row one value per P_z."""
    n_rho, n_pz = len(grid.rho), len(grid.P_z)
    for name in ("A_sat", "t_gain"):
        rows = getattr(grid, name)
        if len(rows) != n_rho:
            raise ValueError(f"sweep grid: expected one {name} row per rho value "
                             f"({n_rho}), got {len(rows)}")
        for i, row in enumerate(rows):
            if len(row) != n_pz:
                raise ValueError(f"sweep grid: {name} row {i} (rho = {grid.rho[i]!r}) has "
                                 f"{len(row)} values, expected one per P_z value ({n_pz})")

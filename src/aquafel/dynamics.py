"""N-particle collective-instability integrator in scaled units.

State: particle phases theta_I, scaled momenta p_I = dtheta_I/dtau, and
the complex field amplitude field = amp·e^{-i·phi}. The equations of
motion in the regular complex-field form are

    dtheta_I/dtau = p_I
    dp_I/dtau     = -(field·e^{-i·theta_I} + c.c.)
    dfield/dtau   = <e^{i·theta_I}>_I            (the bunching factor)

algebraically equivalent to the polar form (damp = <cos(theta+phi)>,
dphi = -<sin(theta+phi)>/amp) but free of the 1/amp singularity; the
polar form is kept only for the cross-check in polar_equivalence. The
continuous system conserves <p> + |field|².

Ensemble means use a fixed-order pairwise (tree) reduction so results
are bitwise reproducible and accurate for large particle counts.
Integration is fixed-step classical RK4; the dynamics is smooth and
non-stiff on the gain timescale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .rotor import RigidRotor
from .scaling import GainCoefficients, from_dimensionless

#: Phase perturbation amplitude of the quiet start.
QUIET_START_PERTURBATION = 1e-6
#: Below this amplitude the polar form's 1/amp terms are unreliable.
POLAR_AMP_FLOOR = 1e-9

INIT_MODES = ("quiet-start", "uniform-random")


class NumericalBlowupError(RuntimeError):
    """State became non-finite during integration."""


class PolarSingularityError(RuntimeError):
    """Polar-form integration hit the amp -> 0 singularity."""


def pairwise_sum(values: np.ndarray):
    """Fixed-order tree summation: deterministic and O(log N) error growth."""
    acc = np.asarray(values)
    while acc.shape[0] > 1:
        if acc.shape[0] % 2 == 1:
            head = acc[:-1]
            tail = acc[-1]
            acc = head[0::2] + head[1::2]
            acc[0] = acc[0] + tail
        else:
            acc = acc[0::2] + acc[1::2]
    return acc[0]


def pairwise_mean(values: np.ndarray):
    return pairwise_sum(values) / values.shape[0]


@dataclass(frozen=True)
class SimConfig:
    """Integrator settings, all in scaled units."""

    n_particles: int = 16384
    dt: float = 0.01
    tau_end: float = 30.0
    seed_amp: float = 1e-4
    init_mode: str = "quiet-start"
    rng_seed: int = 12345
    record_stride: int = 10

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        for name in ("dt", "tau_end", "seed_amp"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        steps = self.tau_end / self.dt  # whole to a relative 1e-9
        if not (steps < math.inf
                and abs(round(steps) * self.dt - self.tau_end) <= 1e-9 * self.tau_end):
            raise ValueError(f"tau_end = {self.tau_end!r} must be a whole number of dt steps")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass
class EnsembleState:
    """Phases, momenta and complex field amplitude at scaled time tau."""

    theta: np.ndarray
    p: np.ndarray
    field_re: float
    field_im: float
    tau: float

    @property
    def field(self) -> complex:
        return complex(self.field_re, self.field_im)

    @property
    def amp(self) -> float:
        return abs(self.field)

    @property
    def phi(self) -> float:
        """Field phase, field = amp·e^{-i·phi}."""
        return -math.atan2(self.field_im, self.field_re)

    def bunching(self) -> complex:
        return complex(pairwise_mean(np.exp(1j * self.theta)))

    def p_mean(self) -> float:
        return float(pairwise_mean(self.p))

    def conserved(self) -> float:
        """First integral <p> + |field|² of the continuous system."""
        # amp*amp rather than amp**2: float pow raises on overflow
        return self.p_mean() + self.amp * self.amp


@dataclass(frozen=True)
class Trajectory:
    """Recorded time series (one entry per recorded step)."""

    tau: np.ndarray
    amp: np.ndarray
    phi: np.ndarray
    bunch_re: np.ndarray
    bunch_im: np.ndarray
    p_mean: np.ndarray
    conserved: np.ndarray

    def __len__(self) -> int:
        return self.tau.shape[0]


@dataclass(frozen=True)
class Diagnostics:
    """Derived measures of one run.

    bunching is the complex bunching factor at saturation (or at the end
    if no saturation peak was found); sat_peak/sat_tau locate the first
    local maximum of the field amplitude; growth_rate_fit is the
    least-squares slope of ln(amp) over the exponential-gain window
    amp in [10·seed_amp, 0.1].
    """

    bunching: complex
    p_mean: float
    conserved: float
    conserved_drift: float
    growth_rate_fit: float
    sat_peak: float
    sat_tau: float
    p_max_abs: float


def init_ensemble(config: SimConfig) -> EnsembleState:
    """Initial state: p = 0, real seed field, phases per init_mode.

    quiet-start places phases on the uniform grid 2·pi·I/N plus a
    deterministic perturbation of amplitude 1e-6 drawn from the seeded
    generator; uniform-random draws them uniformly on [0, 2·pi).
    """
    rng = np.random.default_rng(config.rng_seed)
    n = config.n_particles
    if config.init_mode == "quiet-start":
        theta = 2.0 * math.pi * np.arange(n) / n
        theta = theta + QUIET_START_PERTURBATION * rng.uniform(-1.0, 1.0, n)
    else:
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return EnsembleState(
        theta=theta,
        p=np.zeros(n),
        field_re=config.seed_amp,
        field_im=0.0,
        tau=0.0,
    )


def derivative(state: EnsembleState) -> tuple[np.ndarray, np.ndarray, complex]:
    """(dtheta, dp, dfield) of the complex-field equations of motion."""
    return _derivative_arrays(state.theta, state.p, state.field)


def _derivative_arrays(theta, p, field):
    eith = np.exp(1j * theta)
    dp = -2.0 * (field * np.conj(eith)).real
    dfield = complex(pairwise_mean(eith))
    return p, dp, dfield


def step(state: EnsembleState, dt: float) -> EnsembleState:
    """One classical RK4 step; raises NumericalBlowupError on non-finite state."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    theta, p, field = state.theta, state.p, state.field
    with np.errstate(over="ignore", invalid="ignore"):
        k1t, k1p, k1f = _derivative_arrays(theta, p, field)
        k2t, k2p, k2f = _derivative_arrays(
            theta + 0.5 * dt * k1t, p + 0.5 * dt * k1p, field + 0.5 * dt * k1f
        )
        k3t, k3p, k3f = _derivative_arrays(
            theta + 0.5 * dt * k2t, p + 0.5 * dt * k2p, field + 0.5 * dt * k2f
        )
        k4t, k4p, k4f = _derivative_arrays(
            theta + dt * k3t, p + dt * k3p, field + dt * k3f
        )
        theta_new = theta + (dt / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        p_new = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        field_new = field + (dt / 6.0) * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
    if not (
        np.isfinite(theta_new).all()
        and np.isfinite(p_new).all()
        and math.isfinite(field_new.real)
        and math.isfinite(field_new.imag)
    ):
        raise NumericalBlowupError(f"non-finite state after step at tau={state.tau!r}")
    return EnsembleState(
        theta=theta_new,
        p=p_new,
        field_re=field_new.real,
        field_im=field_new.imag,
        tau=state.tau,  # caller assigns tau from the step index
    )


def run(config: SimConfig) -> tuple[Trajectory, Diagnostics]:
    """Integrate to tau_end, recording every record_stride steps."""
    state = init_ensemble(config)
    n_steps = int(round(config.tau_end / config.dt))
    rec_tau, rec_amp, rec_phi = [], [], []
    rec_bre, rec_bim, rec_pm, rec_cons = [], [], [], []
    p_max_abs = 0.0

    def record(s: EnsembleState) -> float:
        b = s.bunching()
        pm = s.p_mean()
        rec_tau.append(s.tau)
        rec_amp.append(s.amp)
        rec_phi.append(s.phi)
        rec_bre.append(b.real)
        rec_bim.append(b.imag)
        rec_pm.append(pm)
        rec_cons.append(pm + s.amp * s.amp)
        return float(np.max(np.abs(s.p)))

    p_max_abs = record(state)
    for i in range(1, n_steps + 1):
        state = step(state, config.dt)
        state.tau = i * config.dt
        if i % config.record_stride == 0 or i == n_steps:
            p_max_abs = max(p_max_abs, record(state))

    traj = Trajectory(
        tau=np.array(rec_tau),
        amp=np.array(rec_amp),
        phi=np.array(rec_phi),
        bunch_re=np.array(rec_bre),
        bunch_im=np.array(rec_bim),
        p_mean=np.array(rec_pm),
        conserved=np.array(rec_cons),
    )
    return traj, _diagnose(traj, config, p_max_abs)


def _diagnose(traj: Trajectory, config: SimConfig, p_max_abs: float) -> Diagnostics:
    amps = traj.amp
    growth = _fit_growth_rate(traj.tau, amps, config.seed_amp)
    sat_idx = _first_local_max(amps)
    if sat_idx is None:
        sat_peak, sat_tau, b_idx = math.nan, math.nan, len(amps) - 1
    else:
        sat_peak, sat_tau, b_idx = float(amps[sat_idx]), float(traj.tau[sat_idx]), sat_idx
    return Diagnostics(
        bunching=complex(traj.bunch_re[b_idx], traj.bunch_im[b_idx]),
        p_mean=float(traj.p_mean[-1]),
        conserved=float(traj.conserved[-1]),
        conserved_drift=float(np.max(np.abs(traj.conserved - traj.conserved[0]))),
        growth_rate_fit=growth,
        sat_peak=sat_peak,
        sat_tau=sat_tau,
        p_max_abs=p_max_abs,
    )


def _fit_growth_rate(tau: np.ndarray, amp: np.ndarray, seed_amp: float) -> float:
    """Least-squares slope of ln(amp) over the first pass of [10·seed, 0.1]."""
    lo, hi = 10.0 * seed_amp, 0.1
    above = np.nonzero(amp >= lo)[0]
    if above.size == 0:
        return math.nan
    i0 = int(above[0])
    beyond = np.nonzero(amp[i0:] > hi)[0]
    i1 = int(i0 + beyond[0]) if beyond.size else amp.shape[0]
    if i1 - i0 < 2:
        return math.nan
    slope = np.polyfit(tau[i0:i1], np.log(amp[i0:i1]), 1)[0]
    return float(slope)


def _first_local_max(amp: np.ndarray) -> int | None:
    """Index of the first 3-point-stencil local maximum, or None."""
    for k in range(1, amp.shape[0] - 1):
        if amp[k] >= amp[k - 1] and amp[k] > amp[k + 1]:
            return k
    return None


# --- polar-form cross check -------------------------------------------------


def polar_derivative(theta, p, amp: float, phi: float):
    """(dtheta, dp, damp, dphi) of the literal polar-form equations."""
    if amp < POLAR_AMP_FLOOR:
        raise PolarSingularityError(
            f"polar form requires amp >= {POLAR_AMP_FLOOR:g}, got {amp!r}"
        )
    c = np.cos(theta + phi)
    s = np.sin(theta + phi)
    damp = float(pairwise_mean(c))
    dphi = -float(pairwise_mean(s)) / amp
    return p, -2.0 * amp * c, damp, dphi


def _polar_step(theta, p, amp, phi, dt):
    k1 = polar_derivative(theta, p, amp, phi)
    k2 = polar_derivative(
        theta + 0.5 * dt * k1[0], p + 0.5 * dt * k1[1], amp + 0.5 * dt * k1[2], phi + 0.5 * dt * k1[3]
    )
    k3 = polar_derivative(
        theta + 0.5 * dt * k2[0], p + 0.5 * dt * k2[1], amp + 0.5 * dt * k2[2], phi + 0.5 * dt * k2[3]
    )
    k4 = polar_derivative(
        theta + dt * k3[0], p + dt * k3[1], amp + dt * k3[2], phi + dt * k3[3]
    )
    return (
        theta + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        p + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        amp + (dt / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        phi + (dt / 6.0) * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
    )


def polar_equivalence(config: SimConfig) -> float:
    """Max |field_polar - field_complex| between the two formulations.

    Both forms start from identical initial data and use the same RK4
    stepping; the deviation is sampled once per step.
    """
    state = init_ensemble(config)
    theta_p = state.theta.copy()
    p_p = state.p.copy()
    amp_p, phi_p = state.amp, state.phi
    n_steps = int(round(config.tau_end / config.dt))
    max_dev = 0.0
    for i in range(1, n_steps + 1):
        state = step(state, config.dt)
        state.tau = i * config.dt
        theta_p, p_p, amp_p, phi_p = _polar_step(theta_p, p_p, amp_p, phi_p, config.dt)
        dev = abs(amp_p * np.exp(-1j * phi_p) - state.field)
        if dev > max_dev:
            max_dev = float(dev)
    return max_dev


# --- physical readout --------------------------------------------------------


@dataclass(frozen=True)
class PhysicalReadout:
    """Scaled state mapped back to physical units.

    A0 [V·s/m] and t [s] are the field amplitude and elapsed time;
    theta_dot [rad/s] the phase frequencies; L [J·s] the angular momenta
    (n/6)·I_ave·(omega_c + theta_dot); validity_ratio = max|theta_dot|/omega_c
    must stay well below 1 for the slow-phase approximation to hold.
    """

    A0: float
    t: float
    theta_dot: np.ndarray
    L: np.ndarray
    validity_ratio: float


#: Threshold on max|theta_dot|/omega_c beyond which the model assumptions fail.
VALIDITY_RATIO_LIMIT = 1e-2


def validity_ratio(p_max_abs: float, t_gain: float, omega_c: float) -> float:
    """max|theta_dot|/omega_c from the largest scaled momentum |p| = |theta_dot|·t_gain."""
    return p_max_abs / (t_gain * omega_c)


def physical_readout(
    state: EnsembleState, coeffs: GainCoefficients, rotor: RigidRotor, n: int
) -> PhysicalReadout:
    """Convert a scaled state back to SI quantities and check validity."""
    A0, t = from_dimensionless(state.amp, state.tau, coeffs)
    theta_dot = state.p / coeffs.t_gain
    L = (n / 6.0) * rotor.I_ave * (rotor.omega_c + theta_dot)
    p_max_abs = float(np.max(np.abs(state.p))) if state.p.size else 0.0
    ratio = validity_ratio(p_max_abs, coeffs.t_gain, rotor.omega_c)
    if ratio > VALIDITY_RATIO_LIMIT:
        warnings.warn(
            f"slow-phase approximation violated: max|theta_dot|/omega_c = {ratio:.3e}",
            UserWarning,
            stacklevel=2,
        )
    return PhysicalReadout(A0=A0, t=t, theta_dot=theta_dot, L=L, validity_ratio=ratio)

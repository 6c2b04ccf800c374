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
non-stiff on the gain timescale. One RK4 combine (_rk4) advances both
formulations, and one stepping loop (_steps) drives both run and
polar_equivalence.

Each EnsembleState computes its derivative once (EnsembleState.derivs):
the recorded bunching factor is the dfield of that derivative, and the
next step reuses the same arrays as its first RK4 stage, so a recorded
sample costs no extra exp(i·theta).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from dataclasses import field as dataclass_field

import numpy as np

from .rotor import RigidRotor
from .scaling import GainCoefficients, from_dimensionless

#: Phase perturbation amplitude of the quiet start.
QUIET_START_PERTURBATION = 1e-6
#: Below this amplitude the polar form's 1/amp terms are unreliable.
POLAR_AMP_FLOOR = 1e-9

INIT_MODES = ("quiet-start", "uniform-random")
#: Largest particle count and step count a SimConfig accepts.
MAX_PARTICLES = 2**24
MAX_STEPS = 10**7


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
        if not 2 <= self.n_particles <= MAX_PARTICLES:
            raise ValueError(f"n_particles must lie in [2, {MAX_PARTICLES}], got {self.n_particles}")
        for name in ("dt", "tau_end", "seed_amp"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if not (self.tau_end / self.dt < math.inf and self.n_steps <= MAX_STEPS):
            raise ValueError(f"tau_end / dt = {self.tau_end / self.dt:.3g} exceeds the "
                             f"ceiling of {MAX_STEPS} steps")
        if abs(self.n_steps * self.dt - self.tau_end) > 1e-9 * self.tau_end:
            raise ValueError(f"tau_end = {self.tau_end!r} must be a whole number of dt steps")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        """RK4 steps from 0 to tau_end."""
        return round(self.tau_end / self.dt)


@dataclass
class EnsembleState:
    """Phases, momenta and complex field amplitude at scaled time tau."""

    theta: np.ndarray
    p: np.ndarray
    field_re: float
    field_im: float
    tau: float
    _derivs: tuple | None = dataclass_field(default=None, init=False, repr=False, compare=False)

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

    def derivs(self) -> tuple[np.ndarray, np.ndarray, complex]:
        """(dtheta, dp, dfield) at this state, computed on first use and kept.

        Overflow in dp is silenced as in step, whose finiteness check reports it.
        """
        if self._derivs is None:
            with np.errstate(over="ignore", invalid="ignore"):
                self._derivs = _derivative_arrays(self.theta, self.p, self.field)
        return self._derivs

    def bunching(self) -> complex:
        """<e^{i·theta}>, the dfield of derivs()."""
        return self.derivs()[2]

    def p_mean(self) -> float:
        return float(pairwise_mean(self.p))


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


def _rk4(deriv, y: tuple, k1: tuple, dt: float) -> tuple:
    """One classical RK4 step of dy/dtau = deriv(*y) over a tuple of arrays and scalars.

    k1 is deriv(*y), which the caller may already hold.
    """
    k2 = deriv(*(a + 0.5 * dt * k for a, k in zip(y, k1)))
    k3 = deriv(*(a + 0.5 * dt * k for a, k in zip(y, k2)))
    k4 = deriv(*(a + dt * k for a, k in zip(y, k3)))
    return tuple(
        a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    )


def step(state: EnsembleState, dt: float) -> EnsembleState:
    """One classical RK4 step; raises NumericalBlowupError on non-finite state."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        theta, p, field = _rk4(_derivative_arrays, (state.theta, state.p, state.field),
                               state.derivs(), dt)
    if not (
        np.isfinite(theta).all()
        and np.isfinite(p).all()
        and math.isfinite(field.real)
        and math.isfinite(field.imag)
    ):
        raise NumericalBlowupError(f"non-finite state after step at tau={state.tau!r}")
    # the caller assigns tau from the step index
    return EnsembleState(theta=theta, p=p, field_re=field.real, field_im=field.imag, tau=state.tau)


def _steps(config: SimConfig):
    """(i, state) for i = 0..n_steps: the initial state, then one step() each."""
    state = init_ensemble(config)
    yield 0, state
    for i in range(1, config.n_steps + 1):
        state = step(state, config.dt)
        state.tau = i * config.dt
        yield i, state


def run(config: SimConfig) -> tuple[Trajectory, Diagnostics]:
    """Integrate to tau_end, recording every record_stride steps and the last.

    Raises NumericalBlowupError on a non-finite step or recorded <p> + |field|^2.
    """
    rows = []
    p_max_abs = 0.0
    for i, s in _steps(config):
        if i % config.record_stride == 0 or i == config.n_steps:
            b = s.bunching()
            pm = s.p_mean()
            conserved = pm + s.amp * s.amp
            if not math.isfinite(conserved):  # |field|^2 overflows before field does
                raise NumericalBlowupError(f"non-finite <p> + |field|^2 at tau={s.tau!r}")
            rows.append((s.tau, s.amp, s.phi, b.real, b.imag, pm, conserved))
            p_max_abs = max(p_max_abs, float(np.max(np.abs(s.p))))
    traj = Trajectory(*np.array(rows).T)
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


def polar_equivalence(config: SimConfig) -> float:
    """Max |field_polar - field_complex| between the two formulations.

    Both forms start from identical initial data and use the same RK4
    stepping; the deviation is sampled once per step.
    """
    steps = _steps(config)
    _, state = next(steps)
    polar = (state.theta, state.p, state.amp, state.phi)
    max_dev = 0.0
    for _, state in steps:
        polar = _rk4(polar_derivative, polar, polar_derivative(*polar), config.dt)
        dev = abs(polar[2] * np.exp(-1j * polar[3]) - state.field)
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

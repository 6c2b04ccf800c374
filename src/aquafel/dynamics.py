"""N-particle collective-instability integrator in scaled units.

State: particle phases theta_I, scaled momenta p_I = dtheta_I/dtau, and
the field amplitude field = amp·e^{-i·phi}, held as one Python complex.
The equations of motion in the regular complex-field form are

    dtheta_I/dtau = p_I
    dp_I/dtau     = -(field·e^{-i·theta_I} + c.c.)
    dfield/dtau   = <e^{i·theta_I}>_I            (the bunching factor)

algebraically equivalent to the polar form (damp = <cos(theta+phi)>,
dphi = -<sin(theta+phi)>/amp) but free of the 1/amp singularity; the
polar form is kept only for the cross-check in polar_equivalence. The
continuous system conserves <p> + |field|².

Ensemble means are numpy's pairwise sum (np.add.reduce, one row at a
time for the two planes of the phases): accurate for large particle
counts, with bits that depend on neither the buffer's alignment nor the
CPU dispatch target.

step is a fourth-order symmetric composition of two exact flows, with
the weights of one of two tables: Yoshida's triple jump (TRIPLE_JUMP,
drift weights w1 = 1/(2 - 2^{1/3}) and w0 = -2^{1/3}·w1; H. Yoshida, Phys.
Lett. A 150, 262 (1990)) or Blanes and Moan's S6 (S6, six drifts between
seven kicks; S. Blanes and P. C. Moan, J. Comput. Appl. Math. 142, 313
(2002)). The flows are

    kick   theta frozen, so b = <e^{i·theta}> is constant over h:
           p += h·_force(field + h·b/2), field += h·b
           (conserves <p> + |field|² to rounding)
    drift  theta += h·p

where _force(c) = -2 Re(c·e^{-i·theta}) = -2(Re c·cos theta + Im c·sin theta)
is the pendulum force of a field c on each phase. It is the module's one
force: derivative takes it at c = field, and a kick with h in its two
coefficients, so (scaling by 2 being exact short of overflow) a kick adds
to p the bits of derivative's dp at the field h·(field + h·b/2).

Both flows are exact, so the composition is symplectic and the second
first integral <p²>/2 - 2 Im(field·conj(b)) does not drift secularly.
It runs first-same-as-last: the closing kick of a step and the opening
kick of the next share the phases: step builds the state it returns with
them and b, and the next step reads them back through
EnsembleState.phases(). A step therefore evaluates the phases
(_phase_factors: cos and sin from one tan(theta/2) by the half-angle
formulas into the two rows of one C-contiguous (2, N) float array, and
their two row means) once per drift, 3 times for the triple jump and 6
for S6, and a recorded bunching factor is the cached b, at no extra
evaluation. The phases are held as two planes, not as a complex array,
so every write and every read of a kick is contiguous. The step
allocates one (4, N) block: every evaluation writes its phases into rows
0-1, the kicks' force terms and the drifts' increments go into rows 2-3,
and the state it returns keeps rows 0-1 as its phases, which no later
step writes.

run crosses each interval between two records by interval_plan's steps.
An interval of n_dt steps of dt (1 or 2) takes n_dt triple-jump steps of
exactly dt; a longer one takes ceil(n_dt/4) S6 steps of equal length, at
6 evaluations each, fewer than the triple jump's 3·n_dt. At one step
length S6's error is 800 to 1200 times smaller than the triple jump's in
the field (N = 512 quiet start, tau <= 30 and tau <= 15) and 1900 times
in the second first integral, both above the 4^4 = 256 that a step 4
times as long costs, so dt promises this: every record is at least as
accurate as the triple jump at dt would make it.

The phases are within 2^-50 of cos and sin, not their bits: results are
bitwise reproducible on one machine, but their last bits follow numpy's
tan, which differs between CPUs (SVML where AVX-512 is present, libm
elsewhere).

Classical RK4 (_rk4) remains for one purpose: polar_equivalence advances
the complex form (through derivative) and the polar form with it in
lockstep.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .config import NumericalBlowupError, SimConfig
from .scaling import _CUBE_ROOTS_OF_MINUS_I

#: Phase perturbation amplitude of the quiet start.
QUIET_START_PERTURBATION = 1e-6
#: Below this amplitude the polar form's 1/amp terms are unreliable.
POLAR_AMP_FLOOR = 1e-9
#: The top of the linear regime: the growth-rate fit window ends here.
_LINEAR_TOP = 0.1
#: The linear theory's rates, the cube roots of -i, scaled so the growing one's real part is 1.
_UNIT_RATES = np.array(_CUBE_ROOTS_OF_MINUS_I) / (math.sqrt(3.0) / 2.0)
#: The growth-rate fit searches this bracket, down to this width.
_RATE_BRACKET = (0.01, 10.0)
_RATE_TOL = 1e-10


class PolarSingularityError(RuntimeError):
    """Polar-form integration hit the amp -> 0 singularity."""


def pairwise_sum(values: np.ndarray):
    """Sum of a non-empty 1-D array by numpy's pairwise summation, O(ε log N) error.

    np.add.reduce fixes the order by the length alone, so the bits do not
    depend on the buffer's alignment or the CPU dispatch target. An empty,
    0-d or N-D input raises ValueError.
    """
    acc = np.asarray(values)
    if acc.ndim != 1 or acc.size == 0:
        raise ValueError(f"pairwise_sum takes a non-empty 1-D array, got shape {acc.shape}")
    return np.add.reduce(acc)


def pairwise_mean(values: np.ndarray):
    return pairwise_sum(values) / values.shape[0]


class EnsembleState:
    """Phases, momenta and the field amplitude, one complex, at scaled time tau.

    phases, if given, is the (planes, b) pair of phases() at theta: step passes
    the one its closing kick used, and phases() computes it otherwise.
    """

    __slots__ = ("theta", "p", "field", "tau", "_phases")

    def __init__(self, theta: np.ndarray, p: np.ndarray, field: complex, tau: float,
                 phases: tuple[np.ndarray, complex] | None = None) -> None:
        self.theta, self.p, self.field, self.tau = theta, p, field, tau
        self._phases = phases

    @property
    def amp(self) -> float:
        return abs(self.field)

    @property
    def phi(self) -> float:
        """Field phase, field = amp·e^{-i·phi}."""
        return -math.atan2(self.field.imag, self.field.real)

    def phases(self) -> tuple[np.ndarray, complex]:
        """(planes, b) at this state, computed on first use and kept.

        planes is a C-contiguous (2, N) float array, cos theta in row 0 and
        sin theta in row 1, and b = <e^{i·theta}> is the complex of their row means.
        """
        if self._phases is None:
            self._phases = _phase_factors(self.theta)
        return self._phases

    def bunching(self) -> complex:
        """<e^{i·theta}>, the b of phases()."""
        return self.phases()[1]


def _column(j: int, doc: str) -> property:
    return property(lambda self: self.table[:, j], doc=doc)


class Trajectory:
    """Recorded time series, one row per recorded step.

    The constructor takes one (n, 7) table (an array or a sequence of rows),
    in the column order of a trajectory CSV, copies it into a row-major
    float64 array and makes that read-only; the columns are views of it. Any
    other shape, ragged rows included, raises ValueError. A trajectory
    compares and hashes by identity. Code that sets the table's writeable
    flag back on and changes it gets no guarantee from the memos in scenario.
    """

    __slots__ = ("_table",)

    def __init__(self, table) -> None:
        table = np.array(table, dtype=float, order="C")
        if table.ndim != 2 or table.shape[1] != 7:
            raise ValueError(f"a Trajectory takes an (n, 7) table, got shape {table.shape}")
        table.flags.writeable = False
        self._table = table

    @property
    def table(self) -> np.ndarray:
        """The read-only (n, 7) table: one row per sample, one column per CSV column."""
        return self._table

    tau = _column(0, "Scaled time of each sample.")
    amp = _column(1, "Field amplitude |field|.")
    phi = _column(2, "Field phase, field = amp·e^{-i·phi}.")
    bunch_re = _column(3, "Real part of the bunching factor <e^{i·theta}>.")
    bunch_im = _column(4, "Imaginary part of the bunching factor.")
    p_mean = _column(5, "Mean momentum <p>.")
    conserved = _column(6, "The first integral <p> + |field|^2.")

    def __len__(self) -> int:
        return self._table.shape[0]


class Diagnostics(NamedTuple):
    """Derived measures of one run.

    bunching is the complex bunching factor at saturation (or at the end
    if no saturation peak was found); sat_peak/sat_tau locate the first
    local maximum of the field amplitude above min(0.1, 100·max(seed_amp,
    |b0|)), with b0 the initial bunching; growth_rate_fit is the rate of
    the linear theory fitted to the records below amp = 0.1 (_fit_growth_rate).
    """

    bunching: complex
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
        field=complex(config.seed_amp, 0.0),
        tau=0.0,
    )


def derivative(state: EnsembleState) -> tuple[np.ndarray, np.ndarray, complex]:
    """(dtheta, dp, dfield) of the complex-field equations of motion."""
    planes, b = _phase_factors(state.theta)
    # these phases are not kept, so the force's two terms may overwrite them
    return state.p, _force(state.field, planes, planes), b


def _force(c: complex, planes: np.ndarray, out, scale: float = 1.0) -> np.ndarray:
    """The pendulum force -2 Re(c·e^{-i·theta}) of the field c on each phase, times scale.

    Formed as (-2 Re c)·scale·cos(theta) + (-2 Im c)·scale·sin(theta) from the
    two rows of planes, with Python-float coefficients, so no array is complex,
    conjugated, strided or scaled in a pass of its own; -2c is formed first, so
    a field whose -2c overflows gives a non-finite force at any scale. out[0]
    and out[1] (two arrays of N, or a (2, N) array, which may be planes) take
    the two terms, and the force is out[0].
    """
    force = np.multiply(planes[0], -2.0 * c.real * scale, out=out[0])
    force += np.multiply(planes[1], -2.0 * c.imag * scale, out=out[1])
    return force


def _phase_factors(theta: np.ndarray,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, complex]:
    """(planes, <e^{i·theta}>): the module's one phase evaluation.

    From the half-angle formulas, with t = tan(theta/2) and s = 2/(1 + t²),
    cos(theta) = s - 1 goes into row 0 and sin(theta) = t·s into row 1 of
    planes, a C-contiguous (2, N) float array (out, or a new one if None): t
    is formed in row 1 and s in row 0, so every pass is contiguous and no
    temporary is made. On AVX-512 CPUs numpy's tan is vectorized (SVML)
    where its cos and sin are scalar libm calls. Each row is off the exact
    value by a few ulp of 1 (the tests bound it by 2^-50). |t| stays far
    below 1e154 at a finite theta, so t² does not overflow; an infinite or
    NaN theta gives NaN rows. The mean is one add.reduce over axis 1, which
    sums each row pairwise with the bits of pairwise_sum of that row.
    """
    n = theta.shape[0]
    planes = np.empty((2, n)) if out is None else out
    t = np.multiply(theta, 0.5, out=planes[1])
    np.tan(t, out=t)
    # square's unary loop takes about half the time of multiply(t, t) here
    s = np.square(t, out=planes[0])
    s += 1.0
    np.divide(2.0, s, out=s)
    t *= s
    s -= 1.0
    re, im = np.add.reduce(planes, axis=1).tolist()
    return planes, complex(re / n, im / n)


def _rk4(deriv, y: tuple, dt: float) -> tuple:
    """One classical RK4 step of dy/dtau = deriv(*y) over a tuple of arrays and scalars."""
    k1 = deriv(*y)
    k2 = deriv(*(a + 0.5 * dt * k for a, k in zip(y, k1)))
    k3 = deriv(*(a + 0.5 * dt * k for a, k in zip(y, k2)))
    k4 = deriv(*(a + dt * k for a, k in zip(y, k3)))
    return tuple(
        a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    )


#: A composition's weights are (kicks, drifts), one kick more than drifts: step
#: runs kick, drift, kick, ..., drift, kick.
#: Yoshida's triple jump: drift weights (w1, w0, w1), and the kick weights
#: around them, half of each neighbouring drift's.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = -(2.0 ** (1.0 / 3.0)) * _W1
TRIPLE_JUMP = ((0.5 * _W1, 0.5 * (_W1 + _W0), 0.5 * (_W0 + _W1), 0.5 * _W1), (_W1, _W0, _W1))
#: Blanes and Moan's S6: kicks a1..a7 and drifts b1..b6, both palindromic.
_A1, _A2, _A3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_B1, _B2 = 0.209515106613362, -0.143851773179818
S6 = ((_A1, _A2, _A3, 1.0 - 2.0 * (_A1 + _A2 + _A3), _A3, _A2, _A1),
      (_B1, _B2, 0.5 - _B1 - _B2, 0.5 - _B1 - _B2, _B2, _B1))
#: The longest S6 step run takes, in steps of dt: at 4·dt a fourth-order error grows
#: 4^4 = 256 times, still less than S6's lead over the triple jump.
_S6_MAX_DTS = 4


def _kick(planes: np.ndarray, b: complex, p: np.ndarray, field: complex, h: float,
          work: tuple[np.ndarray, np.ndarray]) -> complex:
    """Exact flow over h with the phases frozen: the momenta take, in place, h times
    the _force of the field's mean over h (h rides in the force's coefficients, so
    no pass scales by it); returns the field moved by h·b. work holds two scratch
    arrays of N for the force's two terms."""
    p += _force(field + (0.5 * h) * b, planes, work, h)
    return field + h * b


def step(state: EnsembleState, dt: float, scheme=TRIPLE_JUMP) -> EnsembleState:
    """One fourth-order symplectic step of the composition scheme (TRIPLE_JUMP or S6)
    to a state built with its closing kick's phases; raises NumericalBlowupError on
    non-finite state."""
    kicks, drifts = scheme
    if not (dt > 0.0):
        raise ValueError("dt must be positive")
    # one copy of each array per step, updated in place: the input state is left as it is
    theta, p, field = state.theta.copy(), state.p.copy(), state.field
    with np.errstate(over="ignore", invalid="ignore"):
        planes, b = state.phases()
        # the step's one block: rows 0-1 take every phase evaluation, and the returned
        # state keeps the last; rows 2-3 take every kick's two force terms and row 2
        # every drift's increment (work is a tuple of those rows, so no use makes a view)
        block = np.empty((4, p.shape[0]))
        kept, work = block[:2], (block[2], block[3])
        for kick, drift in zip(kicks, drifts):
            field = _kick(planes, b, p, field, kick * dt, work)
            theta += np.multiply(p, drift * dt, out=work[0])
            planes, b = _phase_factors(theta, kept)
        field = _kick(planes, b, p, field, kicks[-1] * dt, work)
    # b is the mean of cos and sin of the final theta, each NaN at an infinite or NaN
    # theta and bounded by 1 at a finite one: b is finite exactly when every theta is
    if not (cmath.isfinite(b) and np.isfinite(p).all() and cmath.isfinite(field)):
        raise NumericalBlowupError(f"non-finite state after step at tau={state.tau!r}")
    # the caller assigns tau from the step index
    return EnsembleState(theta, p, field, state.tau, (planes, b))


def interval_plan(n_dt: int, dt: float) -> tuple[int, float, tuple]:
    """(steps, h, scheme) that cross an interval of n_dt steps of dt between two records.

    With k = ceil(n_dt/4): k S6 steps of n_dt·dt/k if 2k < n_dt, that is if their
    6k phase evaluations are fewer than the triple jump's 3·n_dt; otherwise (n_dt
    of 1 or 2) n_dt triple-jump steps of exactly dt.
    """
    k = -(-n_dt // _S6_MAX_DTS)
    if 2 * k < n_dt:
        return k, n_dt * dt / k, S6
    return n_dt, dt, TRIPLE_JUMP


def run(config: SimConfig) -> tuple[Trajectory, Diagnostics]:
    """Integrate to tau_end, recording every record_stride steps of dt and the last.

    Each interval between two records is crossed by interval_plan's steps, so
    every record is at least as accurate as the triple jump at dt. A record's tau
    is its step index times dt; a step's input state carries i0·dt + m·h, with i0
    the interval's first index and m the step's within it, so a blow-up names the
    tau of the step that failed. Raises NumericalBlowupError on a non-finite step
    or recorded <p> + |field|^2.
    """
    dt = config.dt
    rows = []
    p_max_abs = 0.0
    s = init_ensemble(config)
    start = 0
    for i in (*range(0, config.n_steps, config.record_stride), config.n_steps):
        steps, h, scheme = interval_plan(i - start, dt)
        for m in range(steps):
            s.tau = start * dt + m * h
            s = step(s, h, scheme)
        s.tau = i * dt
        start = i
        b = s.bunching()
        pm = float(pairwise_mean(s.p))
        conserved = pm + s.amp * s.amp
        if not math.isfinite(conserved):  # |field|^2 overflows before field does
            raise NumericalBlowupError(f"non-finite <p> + |field|^2 at tau={s.tau!r}")
        rows.append((s.tau, s.amp, s.phi, b.real, b.imag, pm, conserved))
        p_max_abs = max(p_max_abs, float(np.abs(s.p).max()))
    traj = Trajectory(rows)
    return traj, _diagnose(traj, p_max_abs)


def _diagnose(traj: Trajectory, p_max_abs: float) -> Diagnostics:
    amps = traj.amp
    # the first record holds the start: the seed field and the bunching b0
    b0 = complex(traj.bunch_re[0], traj.bunch_im[0])
    growth = _fit_growth_rate(traj.tau, amps, cmath.rect(amps[0], -traj.phi[0]), b0)
    # In the linear regime a neutral mode (lambda = i) of about the start's size,
    # max(seed_amp, |b0|), beats against the growing one, so |A| can dip and
    # recover there. 100 times above the start it can no longer reverse the
    # growth; past the fit window's top the linear regime is over in any case.
    start = max(float(amps[0]), abs(b0))
    sat_idx = _first_local_max(amps, min(_LINEAR_TOP, 100.0 * start))
    if sat_idx is None:
        sat_peak, sat_tau, b_idx = math.nan, math.nan, len(amps) - 1
    else:
        sat_peak, sat_tau, b_idx = float(amps[sat_idx]), float(traj.tau[sat_idx]), sat_idx
    return Diagnostics(
        bunching=complex(traj.bunch_re[b_idx], traj.bunch_im[b_idx]),
        conserved_drift=float(np.max(np.abs(traj.conserved - traj.conserved[0]))),
        growth_rate_fit=growth,
        sat_peak=sat_peak,
        sat_tau=sat_tau,
        p_max_abs=p_max_abs,
    )


def _fit_growth_rate(tau: np.ndarray, amp: np.ndarray, a0: complex, b0: complex) -> float:
    """The rate g of the linear theory that fits ln(amp) best over the linear regime.

    The model is scaling.linear_field's solution with its rate left free,
    A(tau) = sum_k c_k·e^{g·l_k·tau} with l_k the cube roots of -i over sqrt(3)/2
    and c_k = (a0 + b0/(g·l_k))/3, so that A = a0 and A' = b0 at the first
    record. The window runs from the first record up to, not including, the
    first with amp > 0.1; g minimizes the squared error in ln|A| over it, by
    golden-section search in _RATE_BRACKET. NaN when |b0| >= 0.1 (the start is
    past the linear regime) or when fewer than two records lie in the window.
    """
    beyond = np.flatnonzero(amp > _LINEAR_TOP)
    n = int(beyond[0]) if beyond.size else amp.shape[0]
    if not abs(b0) < _LINEAR_TOP or n < 2:
        return math.nan
    t = tau[:n] - tau[0]
    log_amp = np.log(amp[:n])

    def misfit(g: float) -> float:
        rates = g * _UNIT_RATES
        # e^{g·t} is taken out of every term (no real part of l_k exceeds 1), so none overflows
        terms = np.exp(np.multiply.outer(t, rates - g)) @ ((a0 + b0 / rates) / 3.0)
        error = np.log(np.abs(terms)) + g * t - log_amp
        return float(error @ error)

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = _RATE_BRACKET
    x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f1, f2 = misfit(x1), misfit(x2)
    while hi - lo > _RATE_TOL:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - shrink * (hi - lo)
            f1 = misfit(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + shrink * (hi - lo)
            f2 = misfit(x2)
    return x1 if f1 < f2 else x2


def _first_local_max(amp: np.ndarray, floor: float) -> int | None:
    """Index of the first 3-point-stencil local maximum above floor, or None."""
    inner = amp[1:-1]
    peaks = np.flatnonzero((inner >= amp[:-2]) & (inner > amp[2:]) & (inner > floor))
    return int(peaks[0]) + 1 if peaks.size else None


# --- polar-form cross check -------------------------------------------------


def polar_derivative(theta, p, amp: float, phi: float):
    """(dtheta, dp, damp, dphi) of the literal polar-form equations."""
    if not (amp >= POLAR_AMP_FLOOR):
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

    Both forms start from identical initial data and advance in lockstep
    with the same RK4 combine (_rk4), so the deviation measures the
    formulations and not the integrator; it is sampled once per step, and a
    NaN deviation at any step is the result.
    """
    def complex_derivative(theta, p, field):
        return derivative(EnsembleState(theta, p, field, 0.0))

    start = init_ensemble(config)
    cplx = (start.theta, start.p, start.field)
    polar = (start.theta, start.p, start.amp, start.phi)
    deviations = []
    for i in range(config.n_steps):
        with np.errstate(over="ignore", invalid="ignore"):
            cplx = _rk4(complex_derivative, cplx, config.dt)
        theta, p, field = cplx
        if not (np.isfinite(theta).all() and np.isfinite(p).all() and cmath.isfinite(field)):
            raise NumericalBlowupError(f"non-finite state after step at tau={i * config.dt!r}")
        polar = _rk4(polar_derivative, polar, config.dt)
        deviations.append(abs(polar[2] * np.exp(-1j * polar[3]) - field))
    # np.max, unlike a running max, keeps a NaN deviation
    return float(np.max(deviations))


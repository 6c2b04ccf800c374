"""Integrator correctness: initialization, conservation, order, growth."""

import cmath
import itertools
import math
import sys
import threading

import numpy as np
import pytest

from aquafel import dynamics
from aquafel.dynamics import (
    EnsembleState,
    NumericalBlowupError,
    PolarSingularityError,
    SimConfig,
    _first_local_max,
    _fit_growth_rate,
    _rk4,
    derivative,
    init_ensemble,
    pairwise_sum,
    polar_derivative,
    polar_equivalence,
    run,
    step,
)
from aquafel.scaling import linear_field, validity_ratio

GROWTH_RATE = math.sqrt(3.0) / 2.0


def small_config(**kw):
    base = dict(
        n_particles=256, dt=0.01, tau_end=2.0, seed_amp=1e-4,
        init_mode="quiet-start", rng_seed=42, record_stride=5,
    )
    base.update(kw)
    return SimConfig(**base)


def uniform_state(n=64, field=0.0 + 0.0j):
    return EnsembleState(
        theta=2.0 * math.pi * np.arange(n) / n,
        p=np.zeros(n),
        field=field,
        tau=0.0,
    )


# --- initialization -----------------------------------------------------------


def test_quiet_start_is_nearly_unbunched():
    state = init_ensemble(small_config(n_particles=8))
    assert abs(state.bunching()) < 1e-5


def test_initial_field_and_momenta():
    state = init_ensemble(small_config(seed_amp=1e-4))
    assert state.amp == pytest.approx(1e-4)
    assert state.phi == pytest.approx(0.0, abs=0.0)  # -0.0 allowed
    assert np.all(state.p == 0.0)


def test_uniform_random_init_is_seed_deterministic():
    cfg = small_config(init_mode="uniform-random", rng_seed=101)
    a = init_ensemble(cfg)
    b = init_ensemble(cfg)
    assert np.array_equal(a.theta, b.theta)
    other = init_ensemble(small_config(init_mode="uniform-random", rng_seed=102))
    assert not np.array_equal(a.theta, other.theta)


def test_config_validation():
    # the constructor, _replace and _make run the same checks
    valid = small_config()
    for bad in (dict(n_particles=1), dict(dt=0.0), dict(dt=-1.0), dict(seed_amp=0.0),
                dict(init_mode="bunched"), dict(record_stride=0),
                # nan slips past an unnegated comparison; 16.0 and 3.0 fail in numpy later
                dict(record_stride=math.nan), dict(record_stride=2.5), dict(rng_seed=math.nan),
                dict(n_particles=16.5), dict(n_particles=16.0), dict(rng_seed=3.0)):
        with pytest.raises(ValueError):
            small_config(**bad)
        with pytest.raises(ValueError):
            valid._replace(**bad)
        with pytest.raises(ValueError):
            SimConfig._make({**valid._asdict(), **bad}.values())


# --- derivatives --------------------------------------------------------------


def test_no_force_when_phases_sit_at_potential_node():
    # theta + phi = pi/2 puts every particle at the zero of the force
    n = 32
    state = EnsembleState(
        theta=np.full(n, math.pi / 2.0), p=np.zeros(n),
        field=0.3 + 0.0j, tau=0.0,
    )
    _, dp, _ = derivative(state)
    np.testing.assert_allclose(dp, 0.0, atol=1e-15)


def test_uniform_phases_give_static_field():
    state = uniform_state(n=64, field=0.2 + 0.0j)
    _, _, dfield = derivative(state)
    assert abs(dfield) < 1e-13


def test_phase_slope_positive_at_three_half_pi():
    # all phases at 3 pi/2 with a real field: the field phase must advance
    n = 16
    theta = np.full(n, 1.5 * math.pi)
    _, _, _, dphi = polar_derivative(theta, np.zeros(n), 0.01, 0.0)
    assert dphi == pytest.approx(1.0 / 0.01, rel=1e-12)
    assert dphi > 0.0


def test_polar_and_complex_derivatives_agree_at_start():
    cfg = small_config(n_particles=128)
    state = init_ensemble(cfg)
    _, dp_c, dfield_c = derivative(state)
    _, dp_p, damp, dphi = polar_derivative(state.theta, state.p, state.amp, state.phi)
    np.testing.assert_allclose(dp_p, dp_c, atol=1e-14)
    dfield_p = (damp - 1j * state.amp * dphi) * np.exp(-1j * state.phi)
    assert abs(dfield_p - dfield_c) < 1e-14


def test_polar_singularity_guard():
    n = 8
    with pytest.raises(PolarSingularityError):
        polar_derivative(np.zeros(n), np.zeros(n), 0.0, 0.0)
    with pytest.raises(PolarSingularityError):
        polar_derivative(np.zeros(n), np.zeros(n), math.nan, 0.0)


# --- stepping -----------------------------------------------------------------


def test_fixed_point_is_preserved():
    state = uniform_state(n=64, field=0.0 + 0.0j)
    out = step(state, 0.01)
    np.testing.assert_allclose(out.theta, state.theta, atol=1e-14)
    np.testing.assert_allclose(out.p, 0.0, atol=1e-14)
    assert abs(out.field) < 1e-14


def test_step_halving_shows_fourth_order():
    rng = np.random.default_rng(3)
    n = 64
    base = EnsembleState(
        theta=rng.uniform(0.0, 2.0 * math.pi, n),
        p=rng.normal(0.0, 0.3, n),
        field=0.3 + 0.2j, tau=0.0,
    )

    def advance(dt, k):
        s = EnsembleState(base.theta.copy(), base.p.copy(), base.field, 0.0)
        for _ in range(k):
            s = step(s, dt)
        return s

    ref = advance(0.4 / 256, 256)
    full = advance(0.4, 1)
    half = advance(0.2, 2)

    def err(s):
        return max(
            float(np.abs(s.theta - ref.theta).max()),
            float(np.abs(s.p - ref.p).max()),
            abs(s.field - ref.field),
        )

    ratio = err(full) / err(half)
    assert 12.0 <= ratio <= 20.0


def test_s6_step_halving_shows_fourth_order():
    rng = np.random.default_rng(3)
    n = 64
    theta, p = rng.uniform(0.0, 2.0 * math.pi, n), rng.normal(0.0, 0.3, n)

    def advance(dt, k):
        s = EnsembleState(theta.copy(), p.copy(), 0.3 + 0.2j, 0.0)
        for _ in range(k):
            s = step(s, dt, dynamics.S6)
        return s

    ref = advance(0.4 / 512, 512)

    def err(s):
        return max(
            float(np.abs(s.theta - ref.theta).max()),
            float(np.abs(s.p - ref.p).max()),
            abs(s.field - ref.field),
        )

    ratio = err(advance(0.4, 1)) / err(advance(0.2, 2))
    assert 14.0 <= ratio <= 18.0


def test_conserved_drift_over_ten_thousand_steps():
    cfg = SimConfig(n_particles=1024, dt=0.01, tau_end=100.0, seed_amp=1e-4,
                    init_mode="quiet-start", rng_seed=7, record_stride=20)
    traj, diag = run(cfg)
    assert diag.conserved_drift < 1e-8


def test_step_leaves_its_input_state_as_it_was():
    # step updates its own copies in place; the input's arrays and kept phases stay
    state = step(init_ensemble(small_config(n_particles=64)), 0.01)
    planes, b = state.phases()
    before = (state.theta.copy(), state.p.copy(), planes.copy(), b, state.field)
    first, second = step(state, 0.01), step(state, 0.01)
    after = (state.theta, state.p, *state.phases(), state.field)
    for old, new in zip(before, after):
        assert np.array_equal(old, new)
    assert np.array_equal(first.theta, second.theta) and np.array_equal(first.p, second.p)
    assert first.field == second.field


def test_step_rejects_bad_dt_and_detects_blowup():
    state = uniform_state(n=8, field=0.1 + 0.0j)
    with pytest.raises(ValueError):
        step(state, 0.0)
    with pytest.raises(ValueError, match="^dt must be positive$"):
        step(state, math.nan)
    huge = uniform_state(n=8, field=1e308 + 0.0j)
    with pytest.raises(NumericalBlowupError):
        step(huge, 0.01)


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_step_detects_one_non_finite_phase(bad):
    # the one bad theta makes the phase mean b non-finite, and through the kicks the field
    state = uniform_state(n=8, field=0.1 + 0.0j)
    state.theta[3] = bad
    with pytest.raises(NumericalBlowupError, match="non-finite state after step"):
        step(state, 0.01)


def test_run_propagates_blowup():
    with pytest.raises(NumericalBlowupError):
        run(small_config(seed_amp=1e308, tau_end=0.5))


def test_run_propagates_step_blowup():
    # |field|^2 = 1e300 is finite at tau = 0; the first step's phases overflow
    cfg = small_config(n_particles=8, dt=1e150, tau_end=1e150, seed_amp=1e150)
    with pytest.raises(NumericalBlowupError, match="after step"):
        run(cfg)


def test_run_rejects_overflowing_field_energy():
    # every component of the state is finite, but |field|^2 = 1e400 is not
    with pytest.raises(NumericalBlowupError, match=r"\|field\|\^2 at tau=0.0"):
        run(small_config(seed_amp=1e200, tau_end=0.5))


def test_a_blowup_inside_an_s6_interval_names_the_tau_of_the_failing_step(monkeypatch):
    # stride 10: each interval is three S6 steps of h = 0.1/3, each 6 phase evaluations
    # after the start's one; evaluation 28 falls in the second step of the second interval
    calls = []
    phase_factors = dynamics._phase_factors

    def poisoned(theta, *rest):
        calls.append(None)
        if len(calls) == 28:
            theta = np.full_like(theta, math.nan)
        return phase_factors(theta, *rest)

    monkeypatch.setattr(dynamics, "_phase_factors", poisoned)
    with pytest.raises(NumericalBlowupError, match="after step") as info:
        run(small_config(n_particles=64, tau_end=0.3, record_stride=10))
    tau = float(str(info.value).rpartition("tau=")[2])
    assert abs(tau - (0.1 + 0.1 / 3)) <= 1e-15


# --- trajectory-level properties ----------------------------------------------


def test_phase_shift_covariance():
    cfg = small_config(n_particles=128, tau_end=1.0)
    chi = 0.7
    s1 = init_ensemble(cfg)
    s2 = EnsembleState(
        theta=s1.theta + chi, p=s1.p.copy(),
        field=complex(s1.field * np.exp(1j * chi)),
        tau=0.0,
    )
    for _ in range(100):
        s1 = step(s1, cfg.dt)
        s2 = step(s2, cfg.dt)
    np.testing.assert_allclose(s2.theta, s1.theta + chi, atol=1e-9)
    assert abs(s2.field - s1.field * np.exp(1j * chi)) < 1e-9


def test_bunching_magnitude_bounded():
    rng = np.random.default_rng(9)
    for _ in range(20):
        state = EnsembleState(
            theta=rng.uniform(-10.0, 10.0, 64), p=np.zeros(64),
            field=0.0j, tau=0.0,
        )
        assert abs(state.bunching()) <= 1.0 + 1e-15


def test_run_is_bitwise_deterministic():
    cfg = small_config(n_particles=512, tau_end=3.0, init_mode="uniform-random")
    t1, d1 = run(cfg)
    t2, d2 = run(cfg)
    for name in ("tau", "amp", "phi", "bunch_re", "bunch_im", "p_mean", "conserved"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name))
    assert d1 == d2


#: The steps run takes over 23 steps of dt = 0.01 recorded every 5: each interval
#: of 5 is two S6 steps of 0.025, and the last, of 3, one S6 step of 0.03.
STRIDE_5_PLAN = [(0.025, dynamics.S6)] * 8 + [(0.03, dynamics.S6)]


def test_run_records_the_last_step_off_the_stride():
    # 23 steps with a stride of 5: rows at 0, 5, ..., 20 and the final step 23
    cfg = small_config(n_particles=64, dt=0.01, tau_end=0.23, record_stride=5)
    traj, _ = run(cfg)
    assert len(traj) == 6
    assert traj.tau.tolist() == [k * 0.01 for k in (0, 5, 10, 15, 20, 23)]
    assert traj.tau[-1] == cfg.tau_end
    state = init_ensemble(cfg)
    for h, scheme in STRIDE_5_PLAN:
        state = step(state, h, scheme)
    assert np.array_equal(bits(traj.table[-1, 1:]), bits(record_row(state)[1:]))


def record_row(state):
    """The trajectory row run records for state."""
    b, pm = state.bunching(), float(dynamics.pairwise_mean(state.p))
    return (state.tau, state.amp, state.phi, b.real, b.imag, pm, pm + state.amp * state.amp)


@pytest.mark.parametrize("record_stride", [1, 2])
def test_strides_of_one_and_two_are_the_triple_jump_at_dt(record_stride):
    # an interval of 1 or 2 steps takes the triple jump at exactly dt, so these runs
    # keep the bits they had before run chose a composition per interval
    cfg = small_config(n_particles=512, tau_end=1.5, record_stride=record_stride,
                       init_mode="uniform-random")
    traj, _ = run(cfg)
    state = init_ensemble(cfg)
    rows = [record_row(state)]
    for i in range(1, cfg.n_steps + 1):
        state = step(state, cfg.dt)
        state.tau = i * cfg.dt
        if i % record_stride == 0 or i == cfg.n_steps:
            rows.append(record_row(state))
    assert np.array_equal(bits(traj.table), bits(np.array(rows)))


def test_interval_plan_takes_s6_wherever_it_saves_evaluations():
    for n_dt in range(1, 41):
        steps, h, scheme = dynamics.interval_plan(n_dt, 0.01)
        if n_dt <= 2:
            assert (steps, h, scheme) == (n_dt, 0.01, dynamics.TRIPLE_JUMP)
        else:
            # no S6 step is more than 4 dt long, and S6's 6 evaluations per step beat 3·n_dt
            assert scheme == dynamics.S6 and steps == math.ceil(n_dt / 4)
            assert h == n_dt * 0.01 / steps and 6 * steps < 3 * n_dt


def test_growth_rate_converges_with_particle_count():
    # with random phase loading the shot noise (~N^-1/2) contaminates the
    # fit window, so the approach to the analytic rate is monotone in N
    errors = []
    for n in (1024, 4096, 16384):
        cfg = SimConfig(n_particles=n, dt=0.01, tau_end=12.0, seed_amp=1e-4,
                        init_mode="uniform-random", rng_seed=12345, record_stride=10)
        _, diag = run(cfg)
        errors.append(abs(diag.growth_rate_fit - GROWTH_RATE))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] < 0.05 * GROWTH_RATE


def test_growth_rate_converges_with_smaller_seed():
    # quiet start: the weaker the seed, the longer and cleaner the
    # exponential window, and the fit approaches the analytic rate
    errors = []
    for seed_amp, tau_end in ((1e-3, 10.0), (1e-4, 12.0), (1e-5, 15.0)):
        cfg = SimConfig(n_particles=4096, dt=0.01, tau_end=tau_end, seed_amp=seed_amp,
                        init_mode="quiet-start", rng_seed=12345, record_stride=10)
        _, diag = run(cfg)
        errors.append(abs(diag.growth_rate_fit - GROWTH_RATE))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] < 0.01 * GROWTH_RATE


def test_polar_equivalence_over_growth_phase():
    cfg = SimConfig(n_particles=1024, dt=0.01, tau_end=10.0, seed_amp=1e-4,
                    init_mode="quiet-start", rng_seed=7, record_stride=10)
    assert polar_equivalence(cfg) < 1e-6


def test_polar_equivalence_rejects_a_non_finite_state():
    # a seed field of 1e308 overflows in the complex form's first RK4 step
    cfg = SimConfig(n_particles=8, dt=0.01, tau_end=0.02, seed_amp=1e308)
    with pytest.raises(NumericalBlowupError, match=r"^non-finite state after step at tau=0\.0$"):
        polar_equivalence(cfg)


@pytest.mark.parametrize("output", [2, 3], ids=["damp", "dphi"])
@pytest.mark.parametrize("call", [81, 200], ids=["mid-run", "last-call"])
def test_polar_equivalence_keeps_a_nan_from_the_polar_form(monkeypatch, output, call):
    # one NaN damp or dphi from the 81st of the 200 polar derivatives (4 a step, 50
    # steps) makes a later stage's amp NaN, which the guard rejects; from the last one
    # it makes the last step's deviation NaN, which is then the result
    cfg = SimConfig(n_particles=64, dt=0.01, tau_end=0.5, seed_amp=1e-4, rng_seed=7)
    assert polar_equivalence(cfg) < 1e-14
    calls = itertools.count(1)
    clean = dynamics.polar_derivative

    def faulty(*args):
        derivatives = list(clean(*args))
        if next(calls) == call:
            derivatives[output] = math.nan
        return tuple(derivatives)

    monkeypatch.setattr(dynamics, "polar_derivative", faulty)
    if call < 4 * cfg.n_steps:
        with pytest.raises(PolarSingularityError, match="got nan"):
            polar_equivalence(cfg)
    else:
        assert math.isnan(polar_equivalence(cfg))


# --- exact oracles --------------------------------------------------------------


def linear_fields(tau, a0, b0, p0):
    """scaling.linear_field at each tau, as an array."""
    return np.array([linear_field(t, a0, b0, p0) for t in tau.tolist()])


def test_linear_regime_matches_closed_form():
    cfg = small_config(n_particles=1024, tau_end=4.0, record_stride=1)
    start = init_ensemble(cfg)
    p0 = complex(np.mean(start.p * np.exp(1j * start.theta)))
    traj, _ = run(cfg)
    field = traj.amp * np.exp(-1j * traj.phi)
    expected = linear_fields(traj.tau, start.field, start.bunching(), p0)
    assert np.max(np.abs(field - expected) / np.abs(expected)) < 1e-6


@pytest.mark.parametrize("n_particles", [512, 16384])
def test_linear_regime_amplitude_is_the_closed_form_to_second_order(n_particles):
    # every step through the first pass of amp = 1e-2: the deviation from the exact
    # linear solution is its first nonlinear term, about 0.18·amp² (1.80e-5 at the
    # end at both N); a coupling of -2.0002 in the kick leaves it at 1.73e-4
    cfg = small_config(n_particles=n_particles, tau_end=7.0, rng_seed=12345, record_stride=1)
    start = init_ensemble(cfg)
    traj, _ = run(cfg)
    assert traj.amp.max() > 1e-2
    end = int(np.argmax(traj.amp > 1e-2))
    amp = traj.amp[:end]
    expected = linear_fields(traj.tau[:end], start.field, start.bunching(), 0.0)
    deviation = np.abs(amp / np.abs(expected) - 1.0)
    assert np.all(deviation <= 1e-6 + 0.25 * amp**2)


def hamiltonian_drift(h, scheme, n_steps):
    """Max |H - H0| of H = <p^2>/2 - 2 Im(A conj(b)) over n_steps steps of h from the
    256-particle quiet start, and the final state."""
    def hamiltonian(s):
        return float(np.mean(s.p**2)) / 2.0 - 2.0 * (s.field * np.conj(s.bunching())).imag

    state = init_ensemble(small_config(n_particles=256, tau_end=30.0, rng_seed=7))
    h0 = hamiltonian(state)
    drift = 0.0
    for _ in range(n_steps):
        state = step(state, h, scheme)
        drift = max(drift, abs(hamiltonian(state) - h0))
    return drift, state


def test_second_first_integral_is_conserved():
    # H is conserved besides <p> + |A|^2: the triple jump at dt = 0.01 to tau = 30
    drift, state = hamiltonian_drift(0.01, dynamics.TRIPLE_JUMP, 3000)
    assert state.amp > 0.1  # the run went through saturation
    assert drift < 1e-8


def test_s6_at_four_times_the_step_conserves_the_second_first_integral():
    # the same run stepped by S6 at h = 0.04: 750 steps drift by about 1.0e-9
    drift, state = hamiltonian_drift(0.04, dynamics.S6, 750)
    assert state.amp > 0.1
    assert drift < 1e-8


def fields_at_every_dt(cfg, substeps):
    """field after each of cfg.n_steps steps of dt, by substeps triple-jump steps each."""
    state = init_ensemble(cfg)
    fields = [state.field]
    for _ in range(cfg.n_steps):
        for _ in range(substeps):
            state = step(state, cfg.dt / substeps)
        fields.append(state.field)
    return np.array(fields)


@pytest.mark.parametrize(("n_particles", "init_mode", "tau_end", "rng_seed"), [
    (512, "quiet-start", 30.0, 12345), (256, "uniform-random", 12.0, 1)])
def test_records_are_as_accurate_as_the_triple_jump_at_dt(n_particles, init_mode, tau_end,
                                                          rng_seed):
    # against the triple jump at dt/10, the field error of every record over tau <= 15
    # and over the whole run is no larger than a triple-jump run at dt makes there
    # (measured: 2.1e-8 against 9.4e-8 over tau <= 30 at N = 512, stride 10)
    cfg = small_config(n_particles=n_particles, init_mode=init_mode, tau_end=tau_end,
                       rng_seed=rng_seed, record_stride=1)
    reference = fields_at_every_dt(cfg, 10)
    triple_jump = recorded_fields(run(cfg)[0])
    for stride in (5, 10):
        traj = run(cfg._replace(record_stride=stride))[0]
        index = np.round(traj.tau / cfg.dt).astype(int)
        error = np.abs(recorded_fields(traj) - reference[index])
        bound = np.abs(triple_jump[index] - reference[index])
        for window in (traj.tau <= 15.0, traj.tau <= tau_end):
            assert np.max(error[window]) <= np.max(bound[window])


def recorded_fields(traj):
    return traj.amp * np.exp(-1j * traj.phi)


# --- the symplectic step against RK4 ---------------------------------------------


@pytest.fixture(scope="module")
def saturating_run():
    """A quiet start through saturation, every step recorded."""
    cfg = SimConfig(n_particles=512, dt=0.01, tau_end=15.0, seed_amp=1e-4,
                    init_mode="quiet-start", rng_seed=12345, record_stride=1)
    return cfg, *run(cfg)


def rk4_fields(cfg):
    """field after each classical RK4 step of the complex-field equations."""
    def deriv(theta, p, field):
        return derivative(EnsembleState(theta, p, field, 0.0))

    start = init_ensemble(cfg)
    y = (start.theta, start.p, start.field)
    fields = [y[2]]
    for _ in range(cfg.n_steps):
        y = _rk4(deriv, y, cfg.dt)
        fields.append(y[2])
    return np.array(fields)


def test_a_kick_is_the_derivative_force_at_the_mid_field():
    # the integrator's kicks and the RK4 cross-check's derivative share one force; a
    # kick carries h in the force's coefficients as (-2c)·h, and scaling by 2 is
    # exact, so it adds the bits of derivative's force at h times the mid field
    rng = np.random.default_rng(777)
    n, h = 777, 0.0123
    theta, p = rng.uniform(0.0, 2.0 * math.pi, n), rng.normal(0.0, 0.3, n)
    field = 0.3 + 0.2j
    planes, b = dynamics._phase_factors(theta)
    kicked = p.copy()
    moved = dynamics._kick(planes, b, kicked, field, h, (np.empty(n), np.empty(n)))
    mid = field + (0.5 * h) * b
    scaled = EnsembleState(theta, p, h * mid, 0.0)
    assert np.array_equal(bits(kicked), bits(p + derivative(scaled)[1]))
    assert np.array_equal(bits(moved), bits(field + h * b))
    # and, to rounding, h times the force at the mid field
    force = derivative(EnsembleState(theta, p, mid, 0.0))[1]
    assert np.max(np.abs(kicked - (p + h * force))) <= 2.0**-52


def test_run_matches_rk4_through_saturation(saturating_run):
    cfg, traj, diag = saturating_run
    reference = rk4_fields(cfg)
    field = traj.amp * np.exp(-1j * traj.phi)
    assert np.max(np.abs(field - reference)) / np.max(np.abs(reference)) <= 1e-7
    amp = np.abs(reference)
    peak = _first_local_max(amp, 0.0)  # this run's first local maximum is its peak
    assert diag.sat_tau == traj.tau[peak]
    assert abs(diag.sat_peak - amp[peak]) <= 1e-7
    b0 = complex(traj.bunch_re[0], traj.bunch_im[0])
    assert abs(diag.growth_rate_fit - _fit_growth_rate(traj.tau, amp, reference[0], b0)) <= 1e-7


def test_growth_rate_of_a_window_with_one_sample_is_nan():
    # only the first record lies at or below 0.1: no rate fits one point
    amp = np.array([1e-4, 0.5, 0.6])
    assert math.isnan(_fit_growth_rate(np.arange(3.0), amp, 1e-4, 0.0))


def first_local_max_loop(amp, floor):
    """The reference scan: the first k with amp[k-1] <= amp[k] > amp[k+1] and
    amp[k] > floor."""
    for k in range(1, amp.shape[0] - 1):
        if amp[k] >= amp[k - 1] and amp[k] > amp[k + 1] and amp[k] > floor:
            return k
    return None


def test_first_local_max_is_the_first_index_of_the_scan():
    rng = np.random.default_rng(37)
    for n in list(range(7)) + [50, 1000]:
        for _ in range(40):
            # few distinct values, so that plateaus and ties are common; NaN compares false
            amp = rng.integers(0, 4, n).astype(float)
            amp[rng.random(n) < 0.1] = math.nan
            for floor in (0.0, 1.0, 1.5, 3.0):
                assert _first_local_max(amp, floor) == first_local_max_loop(amp, floor), amp


def test_a_linear_regime_wiggle_is_not_saturation():
    # the seed field and the quiet start's bunching (|b0| = 1.02e-8) beat, so |A|
    # has a local maximum of 1.045e-8 at tau = 1.6, long before the real peak
    cfg = SimConfig(n_particles=4096, dt=0.01, tau_end=30.0, seed_amp=1e-8,
                    init_mode="quiet-start", rng_seed=1, record_stride=10)
    _, diag = run(cfg)
    assert abs(diag.sat_peak - 1.17129) <= 1e-4
    assert diag.sat_tau == 24.2


def test_kicks_conserve_momentum_plus_field_energy_to_rounding(saturating_run):
    _, traj, diag = saturating_run
    assert traj.amp.max() > 1.0  # the run went through saturation
    assert diag.conserved_drift < 1e-13


@pytest.mark.parametrize(("record_stride", "rows"), [(1, 24), (5, 6)])
def test_each_step_evaluates_the_phases_three_times(monkeypatch, record_stride, rows):
    # the initial state's phases, then one per drift of each step run takes: 3 for a
    # triple-jump step (stride 1), 6 for an S6 step (stride 5); a recorded bunching
    # adds none
    calls = []
    phase_factors = dynamics._phase_factors

    def counting(theta, *rest):
        calls.append(theta)
        return phase_factors(theta, *rest)

    monkeypatch.setattr(dynamics, "_phase_factors", counting)
    cfg = small_config(n_particles=64, tau_end=0.23, record_stride=record_stride)
    traj, _ = run(cfg)
    assert len(traj) == rows
    plan = [(cfg.dt, dynamics.TRIPLE_JUMP)] * 23 if record_stride == 1 else STRIDE_5_PLAN
    assert len(calls) == 1 + sum(len(kicks) - 1 for _, (kicks, _) in plan)


def bits(values):
    """The IEEE words of real or complex values, so that == compares them bit for bit."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def test_phase_factors_are_exp_to_within_2_pow_minus_50(saturating_run):
    # the half-angle formulas do not give libm's bits, but each row is within 2^-50
    # of np.exp's parts (4.0e-16 at most here), and the modulus is within 2^-50 of 1;
    # b is the two row means, each row summed as pairwise_sum sums it
    cfg = saturating_run[0]
    state = init_ensemble(cfg)
    quiet_start = state.theta
    for _ in range(cfg.n_steps):
        state = step(state, cfg.dt)
    rng = np.random.default_rng(2018)
    magnitudes = 10.0 ** rng.uniform(-320.0, 12.0, 4096)
    cases = [
        quiet_start,
        state.theta,  # through saturation
        rng.uniform(-1e3, 1e3, 4096),
        np.concatenate([magnitudes, -magnitudes]),
        np.array([0.0, 5e-324, -5e-324, math.pi, 1e300, -1e300]),
        init_ensemble(cfg._replace(n_particles=16384)).theta,
    ]
    for theta in cases:
        planes, b = dynamics._phase_factors(theta)
        n = theta.shape[0]
        assert planes.shape == (2, n) and planes.dtype == float and planes.flags.c_contiguous
        eith = planes[0] + 1j * planes[1]
        assert np.max(np.abs(eith - np.exp(1j * theta))) <= 2.0**-50
        assert np.max(np.abs(np.abs(eith) - 1.0)) <= 2.0**-50
        means = complex(pairwise_sum(planes[0]) / n, pairwise_sum(planes[1]) / n)
        assert np.array_equal(bits(b), bits(means))
    # a non-finite phase gives non-finite rows, so step's blowup check fires
    with np.errstate(invalid="ignore"):
        planes, b = dynamics._phase_factors(np.array([math.inf, -math.inf, math.nan]))
    assert not np.isfinite(planes).any()
    assert not cmath.isfinite(b)
    assert dynamics._phase_factors(np.array([-0.0]))[0].tolist() == [[1.0], [0.0]]


def test_step_scratch_arrays_alias_no_kept_array():
    s1 = step(init_ensemble(small_config(n_particles=64)), 0.01)
    s2 = step(s1, 0.01)
    s3 = step(s1, 0.01)
    kept = [s1.theta, s1.p, s1.phases()[0], s2.theta, s2.p, s2.phases()[0]]
    for i, a in enumerate(kept):
        for other in kept[i + 1:]:
            assert not np.shares_memory(a, other)
    assert np.array_equal(bits(s1.phases()[0]), bits(dynamics._phase_factors(s1.theta)[0]))
    for a, b in [(s2.theta, s3.theta), (s2.p, s3.p), (s2.phases()[0], s3.phases()[0]),
                 (s2.bunching(), s3.bunching()), (s2.field, s3.field)]:
        assert np.array_equal(bits(a), bits(b))


def test_run_reaches_the_step_and_bunching_hooks(monkeypatch):
    # the benchmark's traced mode counts steps and records through these two names
    calls = {"step": 0, "bunching": 0}
    step_fn, bunching_fn = dynamics.step, EnsembleState.bunching

    def counting_step(*args):
        calls["step"] += 1
        return step_fn(*args)

    def counting_bunching(state):
        calls["bunching"] += 1
        return bunching_fn(state)

    monkeypatch.setattr(dynamics, "step", counting_step)
    monkeypatch.setattr(EnsembleState, "bunching", counting_bunching)
    cfg = small_config(n_particles=64, tau_end=0.23, record_stride=5)
    traj, _ = run(cfg)
    assert calls == {"step": len(STRIDE_5_PLAN), "bunching": len(traj)}


def test_cold_beam_first_peak_is_universal(saturating_run):
    # far tighter than criterion 10's [0.7, 1.6]: the first peak of a quiet
    # start does not depend on N, the seed or dt at this resolution
    cfg, _, diag = saturating_run
    _, other = run(cfg._replace(n_particles=1024, rng_seed=99))
    for d in (diag, other):
        assert abs(d.sat_peak - 1.1713253) <= 2e-6
        assert d.sat_tau == 12.96


# --- pairwise reduction ---------------------------------------------------------


def test_pairwise_sum_matches_exact_sum():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 17, 1024, 1000):
        values = rng.normal(0.0, 1.0, n)
        assert pairwise_sum(values) == pytest.approx(math.fsum(values), abs=1e-12)


def wide_values(rng, shape, dtype):
    """Normal deviates scaled by 10^u, u uniform on [-300, 300]; sums may overflow."""
    def part():
        return rng.normal(0.0, 1.0, shape) * 10.0 ** rng.uniform(-300.0, 300.0, shape)
    return part() + 1j * part() if dtype is complex else part()


def same_bits(a, b):
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def at_offset(values, offset):
    """A copy of values that starts offset bytes past a 64-byte boundary."""
    raw = np.empty(values.nbytes + 128, np.uint8)
    start = -raw.ctypes.data % 64 + offset
    copy = raw[start:start + values.nbytes].view(values.dtype)
    copy[...] = values
    return copy


PAIRWISE_LENGTHS = list(range(1, 71)) + [m for k in range(7, 16)
                                        for m in (2**k - 1, 2**k, 2**k + 1)] + [30001]


def test_pairwise_sum_is_within_the_pairwise_error_bound():
    rng = np.random.default_rng(29)
    for n in PAIRWISE_LENGTHS:
        # pairwise summation's bound, with room for numpy's blocks of 128
        bound = (16 + math.log2(n)) * 2.0**-52
        parts = rng.normal(0.0, 1.0, (2, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (2, n))
        for values in (parts[0], parts[0] + 1j * parts[1]):
            total = complex(pairwise_sum(values))
            for got, part in ((total.real, values.real), (total.imag, values.imag)):
                assert abs(got - math.fsum(part)) <= bound * math.fsum(abs(part)), (n, values.dtype)


def test_pairwise_sum_bits_follow_the_length_alone():
    # the same bits on every call and at every 8-byte offset from a 64-byte boundary
    rng = np.random.default_rng(31)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in PAIRWISE_LENGTHS:
            for dtype in (float, complex):
                values = wide_values(rng, n, dtype)
                want = pairwise_sum(values)
                assert same_bits(pairwise_sum(values), want), (n, dtype)
                for offset in range(0, 64, 8):
                    assert same_bits(pairwise_sum(at_offset(values, offset)), want), (n, dtype, offset)


def test_row_sums_are_the_pairwise_sums_of_each_row():
    # _phase_factors sums the cos and sin rows of its (2, N) planes with one
    # add.reduce over axis 1: each row gets pairwise_sum's bits, at any alignment
    rng = np.random.default_rng(41)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in PAIRWISE_LENGTHS:
            planes = wide_values(rng, (2, n), float)
            for offset in (0, 8, 24):
                rows = np.add.reduce(at_offset(planes.ravel(), offset).reshape(2, n), axis=1)
                for k in (0, 1):
                    assert same_bits(rows[k], pairwise_sum(planes[k])), (n, offset, k)


def test_pairwise_sum_rejects_rows():
    rng = np.random.default_rng(37)
    for dtype in (float, complex):
        with pytest.raises(ValueError):
            pairwise_sum(wide_values(rng, (37, 3), dtype))
    # one row, no element and no axis are not 1-D inputs either
    for values in (np.ones((1, 3)), np.ones(0), np.array(1.0)):
        with pytest.raises(ValueError, match="1-D"):
            pairwise_sum(values)


def test_pairwise_sum_threads_do_not_share_scratch():
    # four threads contend for the cores and switch every microsecond
    workers, repeats = 4, 300
    rng = np.random.default_rng(31)
    arrays = [np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2**16)) for _ in range(workers)]
    expected = [pairwise_sum(values) for values in arrays]
    start = threading.Barrier(workers, timeout=60)
    results = [[] for _ in range(workers)]

    def worker(k):
        start.wait()
        results[k] = [pairwise_sum(arrays[k]) for _ in range(repeats)]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(expected, results):
        assert len(got) == repeats
        assert all(same_bits(total, want) for total in got)


# --- validity ------------------------------------------------------------------


def test_validity_ratio_is_theta_dot_over_omega_c():
    t_gain, omega_c = 2.6e-6, 1.5e13
    # |p| = |theta_dot|·t_gain, so theta_dot = omega_c/10 reads 0.1
    ratio = validity_ratio(0.1 * omega_c * t_gain, t_gain, omega_c)
    assert ratio == pytest.approx(0.1, rel=1e-15)

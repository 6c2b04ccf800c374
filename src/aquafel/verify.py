"""Self-contained oracle battery for the exact-arithmetic layers.

Each check compares a derived value with a closed form and reports the
worst deviation, recomputing the result through an independent route
(quadrature vs analytic values, matrix arithmetic vs trigonometric closed
forms, a sum over explicit molecules vs the shell aggregate). This is the
one place where the derivations in spinstates and quadrature meet their
closed forms: the functions themselves return the derived value
unchecked, so a fault shows here as a FAIL line while the other checks
still run. The last check integrates a short quiet start and compares
its field with the linearized dynamics' closed form (scaling.linear_field),
so the phases, kicks and drifts of this machine's numpy are checked where
they run. The CLI `verify` subcommand prints one line per check; the
test suite asserts the same bounds.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .config import SimConfig
from .dynamics import run
from .quadrature import dipole_matrix_element, permanent_polarization
from .rotor import build_rotor
from .scaling import linear_field
from .spinstates import (
    energy_spins,
    free_energy_expectation,
    make_frame,
    per_ion_ponderomotive,
    ponderomotive_term,
    superradiant_pair,
)

_SQRT3 = math.sqrt(3.0)
#: Random draws of the two derivation-vs-closed-form checks.
_DRAWS = 1000
#: Random shells of the aggregation check, about 1000 molecules in all.
_SHELLS = 50
#: The linear-regime check's run: a 512-particle quiet start, seed field 1e-4,
#: every step recorded; its amplitude first passes 1e-2 at tau = 6.59.
_LINEAR_RUN = SimConfig(n_particles=512, dt=0.01, tau_end=7.0, seed_amp=1e-4,
                        init_mode="quiet-start", rng_seed=12345, record_stride=1)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _worst(deviations) -> float:
    """The largest of the deviations, or NaN if any is NaN.

    The checks reduce their deviations here and not with a running max(), which
    keeps its first argument when the other is NaN and so drops a NaN deviation.
    """
    return float(np.max(np.fromiter(deviations, dtype=float)))


def _check(name: str, deviation: float, bound: float) -> CheckResult:
    return CheckResult(
        name=name,
        passed=deviation <= bound,
        detail=f"max deviation {deviation:.3e} (bound {bound:.0e})",
    )


def check_quadrature_elements() -> CheckResult:
    targets = [
        ((1, 1, 0, 0, 1), -1.0 / math.sqrt(6.0)),
        ((1, 1, 0, 0, 2), 1j / math.sqrt(6.0)),
        ((1, -1, 0, 0, 1), 1.0 / math.sqrt(6.0)),
        ((1, -1, 0, 0, 2), 1j / math.sqrt(6.0)),
        ((1, 0, 0, 0, 3), 1.0 / _SQRT3),
        ((1, 1, 0, 0, 3), 0.0),
        ((1, -1, 0, 0, 3), 0.0),
        ((1, 0, 0, 0, 1), 0.0),
        ((0, 0, 0, 0, 3), 0.0),
    ]
    worst = _worst(
        abs(dipole_matrix_element(*args) - expected) for args, expected in targets
    )
    return _check("quadrature matrix elements vs analytic", worst, 1e-9)


def check_su2_algebra() -> CheckResult:
    ops = energy_spins()
    mats = [ops.s1, ops.s2, ops.s3]
    deviations = [np.abs(mats[i] @ mats[j] - mats[j] @ mats[i] - 1j * mats[k]).max()
                  for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    casimir = sum(m @ m for m in mats)
    deviations.append(np.abs(casimir - 0.75 * np.eye(2)).max())
    return _check("su(2) commutators and Casimir", _worst(deviations), 1e-14)


def check_superradiant_geometry() -> CheckResult:
    rng = np.random.default_rng(2024)
    deviations = []
    for _ in range(200):
        t1, t2 = rng.uniform(-10.0, 10.0, 2)
        pair = superradiant_pair(t1, t2)
        deviations += [abs(float(np.vdot(pair.psi_g, pair.psi_g).real) - 2.0 / 3.0),
                       abs(float(np.vdot(pair.psi_e, pair.psi_e).real) - 2.0 / 3.0),
                       abs(abs(complex(np.vdot(pair.psi_g, pair.psi_e))) - 1.0 / 3.0)]
    return _check("superradiant norms 2/3 and overlap 1/3", _worst(deviations), 1e-14)


def check_ponderomotive_two_paths() -> CheckResult:
    """Frame-built value vs trigonometric closed form over random draws."""
    rotor = build_rotor()
    rng = np.random.default_rng(777)
    scale0 = rotor.omega_c * rotor.d0_tilde
    deviations = []
    for _ in range(_DRAWS):
        A0 = rng.uniform(0.0, 2.0)
        phi0, theta, delta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 3)
        xi1 = rng.uniform(0.0, math.pi)
        xi2 = rng.uniform(0.0, 2.0 * math.pi)
        which = "g" if rng.uniform() < 0.5 else "e"
        frame = make_frame(xi1, xi2)
        value = ponderomotive_term(A0, phi0, theta, delta, frame, rotor, which)
        sign = 1.0 if which == "g" else -1.0
        closed = (
            sign * A0 * scale0 * math.cos(xi2) * math.sin(theta + phi0 + delta)
            / (2.0 * _SQRT3)
        )
        denom = max(A0 * scale0, 1e-300)
        deviations.append(abs(value - closed) / denom)
    return _check(
        f"ponderomotive numeric vs closed form ({_DRAWS} draws, relative)",
        _worst(deviations), 1e-12,
    )


def check_xi1_invariance() -> CheckResult:
    rotor = build_rotor()
    rng = np.random.default_rng(778)
    A0, phi0, theta, delta, xi2 = 1.3, 0.4, 2.1, -0.7, 1.1
    values = []
    for _ in range(100):
        frame = make_frame(rng.uniform(0.0, math.pi), xi2)
        values.append(ponderomotive_term(A0, phi0, theta, delta, frame, rotor, "g"))
    # np.ptp, unlike max() - min(), is NaN when any value is
    spread = float(np.ptp(values)) / (A0 * rotor.omega_c * rotor.d0_tilde)
    return _check("frame-angle xi1 invariance (relative spread)", spread, 1e-12)


def check_eq_ave_aggregation() -> CheckResult:
    """Shell energy vs ponderomotive_term summed over explicit molecules.

    Each shell holds n_g molecules in the ground state and n_e in the
    excited state, so delta_n_bar = n_g - n_e. Within each state they come
    in pairs with dipole axes cos(xi2) = P_z ± d, so their mean cos(xi2) is
    P_z; xi1 and d are random.
    """
    rotor = build_rotor()
    rng = np.random.default_rng(780)
    scale0 = rotor.omega_c * rotor.d0_tilde
    deviations = []
    for _ in range(_SHELLS):
        A0 = float(rng.uniform(0.0, 2.0))
        phi0, theta, delta = (float(x) for x in rng.uniform(-6.0, 6.0, 3))
        P_z = float(rng.uniform(0.0, 1.0 / (3.0 * _SQRT3)))
        pairs_g = int(rng.integers(1, 13))
        pairs_e = int(rng.integers(0, pairs_g + 1))
        total = 0.0
        for which, n_pairs in (("g", pairs_g), ("e", pairs_e)):
            for _ in range(n_pairs):
                d = float(rng.uniform(0.0, 1.0 - P_z))
                for cos_xi2 in (P_z + d, P_z - d):
                    frame = make_frame(float(rng.uniform(0.0, math.pi)), math.acos(cos_xi2))
                    total += ponderomotive_term(A0, phi0, theta, delta, frame, rotor, which)
        n_g, n_e = 2 * pairs_g, 2 * pairs_e
        shell = per_ion_ponderomotive(A0, phi0, theta, delta, n_g - n_e, P_z, rotor)
        scale = max(A0 * scale0 * (n_g + n_e), 1e-300)
        deviations.append(abs(shell - total) / scale)
    return _check(
        f"shell aggregation vs sum over molecules ({_SHELLS} shells, relative)",
        _worst(deviations), 1e-12,
    )


def check_free_energy_expectations() -> CheckResult:
    rotor = build_rotor()
    rng = np.random.default_rng(781)
    deviations = []
    for _ in range(100):
        pair = superradiant_pair(*rng.uniform(-8.0, 8.0, 2))
        for which in ("g", "e"):
            value = free_energy_expectation(pair, which, rotor.E_split)
            deviations.append(abs(value + rotor.E_split / 6.0) / rotor.E_split)
    return _check("free-energy expectation -E_split/6 per state", _worst(deviations), 1e-14)


def check_polarization_forms() -> CheckResult:
    rng = np.random.default_rng(782)
    deviations = []
    for _ in range(_DRAWS):
        alpha = float(rng.uniform(-math.pi, math.pi))
        value = permanent_polarization(alpha)
        deviations.append(abs(value - math.sin(2.0 * alpha) / (3.0 * _SQRT3)))
    return _check(
        f"weighted vs closed-form polarization ({_DRAWS} draws)", _worst(deviations), 1e-12
    )


def check_linear_regime() -> CheckResult:
    """Integrated amplitude vs the linear-regime closed form, up to amp = 1e-2.

    Each recorded step before the amplitude first exceeds 1e-2 is compared
    with |linear_field| from the field and bunching of the run's first record
    (p = 0, so p0 = 0). The relative deviation is the first nonlinear term, about
    0.18·amp² (1.8e-5 at the end); what exceeds 0.25·amp² must stay below
    1e-6. A kick coupling of -2.0002 instead of -2 leaves 1.6e-4.
    """
    traj, _ = run(_LINEAR_RUN)
    a0 = cmath.rect(traj.amp[0], -traj.phi[0])
    b0 = complex(traj.bunch_re[0], traj.bunch_im[0])
    deviations = []
    for tau, amp in zip(traj.tau.tolist(), traj.amp.tolist()):
        if amp > 1e-2:
            break
        deviation = abs(amp / abs(linear_field(tau, a0, b0)) - 1.0)
        deviations.append(deviation - 0.25 * amp * amp)
    return _check("linear regime vs closed form (N=512 quiet start, relative, "
                  "less 0.25·amp²)", _worst(deviations), 1e-6)


ALL_CHECKS = (
    check_quadrature_elements,
    check_su2_algebra,
    check_superradiant_geometry,
    check_ponderomotive_two_paths,
    check_xi1_invariance,
    check_eq_ave_aggregation,
    check_free_energy_expectations,
    check_polarization_forms,
    check_linear_regime,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]

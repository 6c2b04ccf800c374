"""Pseudo-spin algebra, cooperative states, frames, interaction energy."""

import math

import numpy as np
import pytest

from aquafel.rotor import build_rotor
from aquafel.spinstates import (
    energy_spins,
    free_energy_expectation,
    make_frame,
    per_ion_ponderomotive,
    ponderomotive_term,
    spin_expectation,
    superradiant_pair,
    transverse_field_vector,
)

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def rotor():
    return build_rotor()


def test_su2_commutators():
    ops = energy_spins()
    mats = [ops.s1, ops.s2, ops.s3]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = mats[i] @ mats[j] - mats[j] @ mats[i]
        assert np.abs(comm - 1j * mats[k]).max() < 1e-14


def test_spin_operators_hermitian_with_half_eigenvalues():
    ops = energy_spins()
    for mat in (ops.s1, ops.s2, ops.s3):
        assert np.abs(mat - mat.conj().T).max() < 1e-15
        np.testing.assert_allclose(np.linalg.eigvalsh(mat), [-0.5, 0.5], atol=1e-15)


def test_casimir():
    ops = energy_spins()
    total = ops.s1 @ ops.s1 + ops.s2 @ ops.s2 + ops.s3 @ ops.s3
    assert np.abs(total - 0.75 * np.eye(2)).max() < 1e-15


def test_superradiant_norms_and_overlap():
    rng = np.random.default_rng(21)
    for _ in range(50):
        t1, t2 = rng.uniform(-7.0, 7.0, 2)
        pair = superradiant_pair(float(t1), float(t2))
        assert abs(np.vdot(pair.psi_g, pair.psi_g).real - 2.0 / 3.0) < 1e-14
        assert abs(np.vdot(pair.psi_e, pair.psi_e).real - 2.0 / 3.0) < 1e-14
        assert abs(abs(complex(np.vdot(pair.psi_g, pair.psi_e))) - 1.0 / 3.0) < 1e-14


def test_global_phase_invariance_of_spin_expectations():
    pair0 = superradiant_pair(0.3, 1.9)
    for chi in (0.7, -2.4, 11.0):
        pair1 = superradiant_pair(0.3 + chi, 1.9 + chi)
        for which in ("g", "e"):
            for axis in (1, 2, 3):
                assert spin_expectation(pair1, which, axis) == pytest.approx(
                    spin_expectation(pair0, which, axis), abs=1e-14
                )


def test_spin_expectation_closed_forms():
    rng = np.random.default_rng(22)
    for _ in range(100):
        t1 = float(rng.uniform(-5.0, 5.0))
        delta = float(rng.uniform(-5.0, 5.0))
        pair = superradiant_pair(t1, t1 + delta)
        scale = 1.0 / (2.0 * SQRT3)
        assert spin_expectation(pair, "g", 1) == pytest.approx(-math.cos(delta) * scale, abs=1e-14)
        assert spin_expectation(pair, "e", 1) == pytest.approx(math.cos(delta) * scale, abs=1e-14)
        assert spin_expectation(pair, "g", 2) == pytest.approx(-math.sin(delta) * scale, abs=1e-14)
        assert spin_expectation(pair, "e", 2) == pytest.approx(math.sin(delta) * scale, abs=1e-14)
        # the third component is a constant -1/6 for both members
        assert spin_expectation(pair, "g", 3) == pytest.approx(-1.0 / 6.0, abs=1e-14)
        assert spin_expectation(pair, "e", 3) == pytest.approx(-1.0 / 6.0, abs=1e-14)


def test_spin_expectation_specific_values():
    pair = superradiant_pair(0.0, 0.0)
    assert spin_expectation(pair, "g", 1) == pytest.approx(-1.0 / (2.0 * SQRT3), abs=1e-14)
    pair = superradiant_pair(0.0, math.pi / 2.0)
    assert spin_expectation(pair, "g", 1) == pytest.approx(0.0, abs=1e-14)


def test_free_energy_expectation(rotor):
    pair = superradiant_pair(1.2, -0.4)
    e_g = free_energy_expectation(pair, "g", rotor.E_split)
    e_e = free_energy_expectation(pair, "e", rotor.E_split)
    assert e_g == pytest.approx(-rotor.E_split / 6.0, rel=1e-14)
    assert e_e == pytest.approx(-rotor.E_split / 6.0, rel=1e-14)
    assert e_g + e_e == pytest.approx(-rotor.E_split / 3.0, rel=1e-14)


def test_selector_validation():
    pair = superradiant_pair(0.0, 0.0)
    with pytest.raises(ValueError):
        spin_expectation(pair, "x", 1)
    with pytest.raises(ValueError):
        spin_expectation(pair, "g", 4)


def test_frame_geometry():
    rng = np.random.default_rng(23)
    for _ in range(50):
        xi1 = float(rng.uniform(0.0, math.pi))
        xi2 = float(rng.uniform(0.0, 2.0 * math.pi))
        frame = make_frame(xi1, xi2)
        assert frame.e3 @ np.array([0.0, 0.0, 1.0]) == pytest.approx(math.cos(xi2), abs=1e-14)
        basis = np.vstack([frame.e1, frame.e2, frame.e3])
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(
            frame.e1, [math.cos(xi1), -math.sin(xi1), 0.0], atol=1e-14
        )
        np.testing.assert_allclose(
            frame.e2,
            [math.cos(xi2) * math.sin(xi1), math.cos(xi2) * math.cos(xi1), -math.sin(xi2)],
            atol=1e-14,
        )


def test_field_projections_onto_frame():
    A0, phi0, xi1, xi2 = 1.7, 0.6, 0.9, 2.2
    frame = make_frame(xi1, xi2)
    A_vec = transverse_field_vector(A0, phi0)
    assert A_vec @ frame.e1 == pytest.approx(A0 * math.cos(phi0 - xi1), abs=1e-14)
    assert A_vec @ frame.e2 == pytest.approx(
        -A0 * math.cos(xi2) * math.sin(phi0 - xi1), abs=1e-14
    )


def test_ponderomotive_two_paths_random(rotor):
    rng = np.random.default_rng(24)
    scale = rotor.omega_c * rotor.d0_tilde
    for _ in range(1000):
        A0 = float(rng.uniform(0.0, 3.0))
        phi0, theta, delta = (float(x) for x in rng.uniform(-7.0, 7.0, 3))
        frame = make_frame(float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi)))
        which = "g" if rng.uniform() < 0.5 else "e"
        value = ponderomotive_term(A0, phi0, theta, delta, frame, rotor, which)
        sign = 1.0 if which == "g" else -1.0
        closed = (
            sign * A0 * scale * math.cos(frame.xi2)
            * math.sin(theta + phi0 + delta) / (2.0 * SQRT3)
        )
        assert abs(value - closed) <= 1e-12 * max(A0 * scale, 1e-300)


def test_ponderomotive_carries_half_sqrt3_factor(rotor):
    # cos(xi2) = 1 and sin(theta+phi) = 1 isolate the 1/(2 sqrt(3)) coefficient
    frame = make_frame(0.0, 0.0)
    value = ponderomotive_term(1.0, 0.0, math.pi / 2.0, 0.0, frame, rotor, "g")
    assert value == pytest.approx(rotor.omega_c * rotor.d0_tilde / (2.0 * SQRT3), rel=1e-12)


def test_ponderomotive_perpendicular_dipole_axis(rotor):
    frame = make_frame(0.4, math.pi / 2.0)
    value = ponderomotive_term(1.3, 0.2, 0.9, 0.1, frame, rotor, "g")
    assert value == pytest.approx(0.0, abs=1e-25)


def test_ponderomotive_excited_negates_ground(rotor):
    frame = make_frame(0.8, 1.1)
    g = ponderomotive_term(1.1, 0.3, 2.0, -0.4, frame, rotor, "g")
    e = ponderomotive_term(1.1, 0.3, 2.0, -0.4, frame, rotor, "e")
    assert e == pytest.approx(-g, rel=1e-12)


def test_ponderomotive_xi1_invariance(rotor):
    rng = np.random.default_rng(25)
    values = [
        ponderomotive_term(1.0, 0.5, 1.2, 0.7, make_frame(float(x), 0.9), rotor, "g")
        for x in rng.uniform(0.0, math.pi, 100)
    ]
    spread = max(values) - min(values)
    assert spread <= 1e-12 * rotor.omega_c * rotor.d0_tilde


def test_ponderomotive_rejects_negative_amplitude(rotor):
    with pytest.raises(ValueError):
        ponderomotive_term(-1.0, 0.0, 0.0, 0.0, make_frame(0.0, 0.0), rotor, "g")
    with pytest.raises(ValueError, match="^field amplitude A0 must be non-negative$"):
        ponderomotive_term(math.nan, 0.0, 0.0, 0.0, make_frame(0.0, 0.0), rotor, "g")


def test_per_ion_aggregate_matches_closed_coefficient(rotor):
    A0, phi0, theta, delta = 0.8, 0.2, 1.4, 0.5
    dn_bar, P_z = 18.6, 4.9e-7
    value = per_ion_ponderomotive(A0, phi0, theta, delta, dn_bar, P_z, rotor)
    expected = (
        dn_bar * A0 * rotor.omega_c * rotor.d0_tilde * P_z
        * math.sin(theta + phi0 + delta) / (2.0 * SQRT3)
    )
    assert value == pytest.approx(expected, rel=1e-14)

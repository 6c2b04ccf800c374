"""Rotor constants, level ladder, population ratios, thermal inversion."""

import math

import pytest
from numpy.testing import assert_allclose

from aquafel.constants import CODATA2018
from aquafel.rotor import (
    D_E_WATER,
    D_G_WATER,
    build_rotor,
    population_ratio,
    rotational_level_energy,
    thermal_inversion,
)

ROOM_T = 300.0

# Reference room-temperature ratio table for the six lowest levels.
RATIO_TABLE = (1.0, 0.89, 0.70, 0.49, 0.30, 0.17)


@pytest.fixture(scope="module")
def rotor():
    return build_rotor()


def test_moment_of_inertia_is_direct_arithmetic(rotor):
    assert_allclose(rotor.I_ave, 2.0 * CODATA2018.m_p * D_G_WATER**2, rtol=1e-15)
    assert_allclose(rotor.I_ave, 2.2493419629783125e-47, rtol=1e-12)


def test_splitting_wavenumber_near_160_inverse_cm(rotor):
    wavenumber_cm = rotor.E_split / (CODATA2018.hbar * CODATA2018.c) / 100.0
    assert wavenumber_cm == pytest.approx(160.0, rel=0.03)


def test_resonant_wavelength_near_400_um(rotor):
    assert rotor.l_c == pytest.approx(400e-6, rel=0.05)


def test_reduced_dipole_ratio(rotor):
    assert rotor.d0_tilde / rotor.d0 == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)
    assert rotor.d0_tilde / rotor.d0 == pytest.approx(0.82, abs=0.01)
    assert rotor.d0 == pytest.approx(2.0 * CODATA2018.e_charge * D_E_WATER, rel=1e-15)


def test_frequency_wavelength_consistency(rotor):
    # omega_c * l_c = 2 pi c exactly, by construction
    assert_allclose(rotor.omega_c * rotor.l_c, 2.0 * math.pi * CODATA2018.c, rtol=1e-15)
    assert_allclose(rotor.E_split, rotor.omega_c * CODATA2018.hbar, rtol=1e-15)


def test_level_ladder(rotor):
    assert rotational_level_energy(rotor, 0) == 0.0
    assert rotational_level_energy(rotor, 1) == pytest.approx(rotor.E_split, rel=1e-15)
    assert rotational_level_energy(rotor, 3) == pytest.approx(6.0 * rotor.E_split, rel=1e-15)
    energies = [rotational_level_energy(rotor, l) for l in range(8)]
    assert energies == sorted(energies)


def test_bad_inputs_rejected(rotor):
    with pytest.raises(ValueError):
        rotational_level_energy(rotor, -1)
    with pytest.raises(ValueError):
        population_ratio(rotor, 1, 0.0)
    with pytest.raises(ValueError, match="^temperature must be positive$"):
        population_ratio(rotor, 1, math.nan)
    with pytest.raises(ValueError):
        thermal_inversion(rotor, 0, ROOM_T)
    with pytest.raises(ValueError, match="^molecule count n must be >= 1$"):
        thermal_inversion(rotor, math.nan, ROOM_T)
    with pytest.raises(ValueError):
        thermal_inversion(rotor, 30, -10.0)


def test_population_ratio_table(rotor):
    for l, expected in enumerate(RATIO_TABLE):
        assert population_ratio(rotor, l, ROOM_T) == pytest.approx(expected, abs=0.01)


def test_thermal_inversion_room_temperature(rotor):
    inv = thermal_inversion(rotor, 30, ROOM_T)
    assert inv.delta_n_bar == pytest.approx(0.9, abs=0.05)
    assert inv.energy_ratio == pytest.approx(0.06, abs=0.005)


def test_thermal_inversion_high_temperature_limit(rotor):
    assert thermal_inversion(rotor, 30, 1e9).delta_n_bar == pytest.approx(0.0, abs=1e-6)


def test_thermal_inversion_monotone_in_temperature(rotor):
    values = [thermal_inversion(rotor, 30, t).delta_n_bar for t in (100, 200, 400, 800)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_thermal_inversion_linear_in_n(rotor):
    base = thermal_inversion(rotor, 1, ROOM_T).delta_n_bar
    for n in (7, 30, 123):
        assert thermal_inversion(rotor, n, ROOM_T).delta_n_bar == pytest.approx(
            n * base, rel=1e-12
        )

"""Quadrature oracle vs analytic direction-cosine matrix elements."""

import math

import numpy as np
import pytest

from aquafel import quadrature
from aquafel.quadrature import (
    _PHI,
    _THETA,
    dipole_matrix_element,
    direction_cosine,
    sphere_integral,
    spherical_harmonic,
)

TOL = 1e-9


@pytest.mark.parametrize(
    "l1, m1, l2, m2, axis, expected",
    [
        # transverse transitions out of the ground state
        (1, 1, 0, 0, 1, -1.0 / math.sqrt(6.0)),
        (1, 1, 0, 0, 2, 1j / math.sqrt(6.0)),
        (1, -1, 0, 0, 1, 1.0 / math.sqrt(6.0)),
        (1, -1, 0, 0, 2, 1j / math.sqrt(6.0)),
        # axial transition
        (1, 0, 0, 0, 3, 1.0 / math.sqrt(3.0)),
        # azimuthal selection rules
        (1, 1, 0, 0, 3, 0.0),
        (1, -1, 0, 0, 3, 0.0),
        (1, 0, 0, 0, 1, 0.0),
        (1, 0, 0, 0, 2, 0.0),
        # parity: no diagonal dipole elements
        (0, 0, 0, 0, 1, 0.0),
        (0, 0, 0, 0, 3, 0.0),
        (1, 1, 1, 1, 3, 0.0),
        (1, 1, 1, 0, 1, 0.0),
    ],
)
def test_matrix_elements_match_analytic(l1, m1, l2, m2, axis, expected):
    value = dipole_matrix_element(l1, m1, l2, m2, axis)
    assert abs(value - expected) < TOL


def test_hermiticity_of_direction_cosines():
    for axis in (1, 2, 3):
        for (l1, m1), (l2, m2) in [((1, 1), (0, 0)), ((1, -1), (0, 0)), ((1, 0), (0, 0))]:
            forward = dipole_matrix_element(l1, m1, l2, m2, axis)
            backward = dipole_matrix_element(l2, m2, l1, m1, axis)
            assert abs(forward - backward.conjugate()) < TOL


def test_out_of_range_quantum_numbers_rejected():
    with pytest.raises(ValueError):
        dipole_matrix_element(2, 0, 0, 0, 3)
    with pytest.raises(ValueError):
        dipole_matrix_element(1, 2, 0, 0, 3)
    with pytest.raises(ValueError):
        dipole_matrix_element(0, 0, 1, -2, 1)
    with pytest.raises(ValueError):
        dipole_matrix_element(1, 0, 0, 0, 4)
    with pytest.raises(ValueError):
        spherical_harmonic(3, 0, 0.1, 0.2)
    for l, m in ((1, 2), (-1, 0), (2, -3)):
        with pytest.raises(ValueError, match="invalid quantum numbers"):
            spherical_harmonic(l, m, 0.1, 0.2)


def test_the_grid_is_built_once(monkeypatch):
    # dipole_matrix_element integrates on the grid built at import, not a new one
    def rebuilt():
        raise AssertionError("the sphere grid was built again")

    monkeypatch.setattr(quadrature, "_sphere_grid", rebuilt)
    assert abs(dipole_matrix_element(1, 0, 0, 0, 3) - 1.0 / math.sqrt(3.0)) < TOL


def test_harmonics_orthonormal_on_grid():
    # the grid must integrate all l <= 2 products exactly
    states = [(l, m) for l in range(3) for m in range(-l, l + 1)]
    for la, ma in states:
        for lb, mb in states:
            ya = spherical_harmonic(la, ma, _THETA, _PHI)
            yb = spherical_harmonic(lb, mb, _THETA, _PHI)
            overlap = sphere_integral(np.conj(ya) * yb)
            expected = 1.0 if (la, ma) == (lb, mb) else 0.0
            assert abs(overlap - expected) < 1e-12, (la, ma, lb, mb)


def test_direction_cosines_unit_norm():
    total = sum(sphere_integral(direction_cosine(a, _THETA, _PHI) ** 2) for a in (1, 2, 3))
    # sum of squared direction cosines is 1; sphere area is 4 pi
    assert abs(total - 4.0 * math.pi) < 1e-12
    with pytest.raises(ValueError):
        direction_cosine(0, _THETA, _PHI)

"""Numerical quadrature oracle for direction-cosine matrix elements.

Evaluates integrals of the form

    integral over the sphere of  conj(Y_{l1,m1}) * n_a * Y_{l2,m2}

where n_a is the direction cosine along axis a (1: sin(theta)cos(phi),
2: sin(theta)sin(phi), 3: cos(theta)), in units of the bare dipole
moment. The grid is a tensor product of Gauss-Legendre nodes in
cos(theta) and a uniform trapezoid rule in phi. Every non-vanishing
integrand for l <= 2 is a polynomial in cos(theta) and a trigonometric
polynomial in phi, so both rules are exact at the orders chosen here and
the result is correct to rounding, far below the 1e-9 contract.

Spherical harmonics use the Condon-Shortley phase convention
(Y_{1,1} = -sqrt(3/8pi)·sin(theta)·e^{i phi}).

permanent_polarization is the quadrature route to the permanent
polarization of the field-mixed pair (mixing.py has the physics): it
builds P_z from the states and the quadrature value of <1,0|n_z|0,0>,
and verify.py compares it with its closed form. The static field lies
along z and mixes only |0,0> with |1,0>, whose n_x and n_y elements
vanish, so P_z is the one component and alpha the one input: the level
weights multiply the result by w_minus + 3·w_plus, which is 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import GAUSS_LEGENDRE_ORDER, TRAPEZOID_ORDER


def spherical_harmonic(l: int, m: int, theta, phi):
    """Y_{l,m}(theta, phi) for l <= 2, Condon-Shortley phase."""
    if l < 0 or abs(m) > l:
        raise ValueError(f"invalid quantum numbers (l={l}, m={m})")
    if l > 2:
        raise ValueError("spherical_harmonic implements l <= 2 only")
    ct = np.cos(theta)
    st = np.sin(theta)
    ph = np.exp(1j * m * phi)
    if l == 0:
        base = np.full_like(ct, 0.5 / math.sqrt(math.pi))
    elif l == 1:
        if m == 0:
            base = math.sqrt(3.0 / (4.0 * math.pi)) * ct
        else:
            # Y_{1,-1} = -conj(Y_{1,1}): the (-1)^m phase sits on m = +1 only
            sign = -1.0 if m == 1 else 1.0
            base = sign * math.sqrt(3.0 / (8.0 * math.pi)) * st
    else:
        if m == 0:
            base = math.sqrt(5.0 / (16.0 * math.pi)) * (3.0 * ct**2 - 1.0)
        elif abs(m) == 1:
            sign = -1.0 if m == 1 else 1.0
            base = sign * math.sqrt(15.0 / (8.0 * math.pi)) * st * ct
        else:
            base = math.sqrt(15.0 / (32.0 * math.pi)) * st**2
    return base * ph


def direction_cosine(axis: int, theta, phi):
    """Cartesian unit-vector component n_axis on the sphere."""
    if axis == 1:
        return np.sin(theta) * np.cos(phi)
    if axis == 2:
        return np.sin(theta) * np.sin(phi)
    if axis == 3:
        return np.cos(theta)
    raise ValueError(f"axis must be 1, 2 or 3, got {axis}")


def _sphere_grid():
    """Tensor quadrature grid (theta, phi, weights) over the unit sphere; built once,
    at import, as the module's one grid (_THETA, _PHI, _WEIGHTS)."""
    x, wx = np.polynomial.legendre.leggauss(GAUSS_LEGENDRE_ORDER)
    phi = 2.0 * math.pi * np.arange(TRAPEZOID_ORDER) / TRAPEZOID_ORDER
    tt, pp = np.meshgrid(np.arccos(x), phi, indexing="ij")
    return tt, pp, np.outer(wx, np.full(TRAPEZOID_ORDER, 2.0 * math.pi / TRAPEZOID_ORDER))


_THETA, _PHI, _WEIGHTS = _sphere_grid()


def sphere_integral(values: np.ndarray) -> complex:
    """Weighted sum of integrand values sampled on the grid (_THETA, _PHI)."""
    return complex(np.sum(values * _WEIGHTS))


def dipole_matrix_element(l1: int, m1: int, l2: int, m2: int, axis: int) -> complex:
    """<l1,m1| n_axis |l2,m2> by 2-D quadrature, in units of the bare dipole d0.

    Both states must be in the two lowest rotational multiplets
    (l in {0, 1}, |m| <= l). Absolute accuracy is better than 1e-9 by
    construction of the grid.
    """
    for l in (l1, l2):
        if l not in (0, 1):
            raise ValueError(f"l must be 0 or 1 for dipole elements, got l={l}")
    integrand = (
        np.conj(spherical_harmonic(l1, m1, _THETA, _PHI))
        * direction_cosine(axis, _THETA, _PHI)
        * spherical_harmonic(l2, m2, _THETA, _PHI)
    )
    return sphere_integral(integrand)


# <1,0| cos(theta) |0,0> computed once by the quadrature (= 1/sqrt(3)).
_Z_MATRIX_ELEMENT = dipole_matrix_element(1, 0, 0, 0, axis=3).real


class MixedStates(NamedTuple):
    """Field-mixed rotational eigenstates over the (|0,0>, |1,0>) basis."""

    amp_0: np.ndarray
    amp_1: np.ndarray


def mixed_states(alpha: float) -> MixedStates:
    """Rotate the (|0,0>, |1,0>) pair by the mixing angle alpha [rad]."""
    c, s = math.cos(alpha), math.sin(alpha)
    return MixedStates(
        amp_0=np.array([c, s], dtype=complex),
        amp_1=np.array([-s, c], dtype=complex),
    )


def permanent_polarization(alpha: float) -> float:
    """Permanent z-polarization of the mixed stationary state.

    Evaluates the weighted expectation

        P_z = (w_minus + 3 w_plus)/2 · <mix0|n_z|mix0>
            + (w_minus + 3 w_plus)/6 · <mix1|n_z|mix1>

    with the quadrature value of <1,0|n_z|0,0>. The level weights enter
    only as w_minus + 3·w_plus, which their normalisation fixes at 1, so
    the result is <mix0|n_z|mix0>/2 + <mix1|n_z|mix1>/6 for any weights:
    sin(2·alpha)/(3·sqrt(3)).
    """
    states = mixed_states(alpha)
    n_z = np.array([[0.0, _Z_MATRIX_ELEMENT], [_Z_MATRIX_ELEMENT, 0.0]], dtype=complex)
    exp0 = float(np.real(np.vdot(states.amp_0, n_z @ states.amp_0)))
    exp1 = float(np.real(np.vdot(states.amp_1, n_z @ states.amp_1)))
    return exp0 / 2.0 + exp1 / 6.0

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
"""

from __future__ import annotations

import math

import numpy as np

#: Gauss-Legendre node count in cos(theta); exact for x-degree <= 31.
GAUSS_LEGENDRE_ORDER = 16
#: Uniform azimuthal node count; exact for harmonics e^{ik phi}, |k| < 64.
TRAPEZOID_ORDER = 64


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


def _sphere_grid(n_theta: int, n_phi: int):
    """Tensor quadrature grid (theta, phi, weights) over the unit sphere."""
    x, wx = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * math.pi / n_phi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    ww = np.outer(wx, np.full(n_phi, wphi))
    return tt, pp, ww


def sphere_integral(values: np.ndarray, weights: np.ndarray) -> complex:
    """Weighted sum of sampled integrand values over the sphere grid."""
    return complex(np.sum(values * weights))


def dipole_matrix_element(l1: int, m1: int, l2: int, m2: int, axis: int) -> complex:
    """<l1,m1| n_axis |l2,m2> by 2-D quadrature, in units of the bare dipole d0.

    Both states must be in the two lowest rotational multiplets
    (l in {0, 1}, |m| <= l). Absolute accuracy is better than 1e-9 by
    construction of the grid.
    """
    for l, m in ((l1, m1), (l2, m2)):
        if l not in (0, 1):
            raise ValueError(f"l must be 0 or 1 for dipole elements, got l={l}")
        if abs(m) > l:
            raise ValueError(f"invalid quantum numbers (l={l}, m={m})")
    tt, pp, ww = _sphere_grid(GAUSS_LEGENDRE_ORDER, TRAPEZOID_ORDER)
    integrand = (
        np.conj(spherical_harmonic(l1, m1, tt, pp))
        * direction_cosine(axis, tt, pp)
        * spherical_harmonic(l2, m2, tt, pp)
    )
    return sphere_integral(integrand, ww)

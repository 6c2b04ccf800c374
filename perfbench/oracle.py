"""Independent oracle for the benchmark's correctness checks.

Imports nothing from aquafel, so a fault in the program cannot hide in
its own check. From the CODATA 2018 values and the water-rotor geometry
it recomputes the universal prefactors c_A and c_t by closed-form
elimination of rho and P_z from the saturation scales, and from them

    A_sat  = c_A * rho^(2/3) * P_z^(1/3)      [V*s/m]
    t_gain = c_t * rho^(-1/3) * P_z^(-2/3)    [s]

It also gives the linear-regime field of the scaled equations of motion.
Linearizing dA/dtau = <e^{i theta}> about a uniform phase distribution
gives A''' = -i A, so A(tau) = sum_k c_k exp(lambda_k tau) over the
three cube roots lambda_k of -i, with the c_k fixed by A(0),
A'(0) = b0 (the initial bunching) and A''(0) = i P0, P0 = <p e^{i theta}>.
"""

from __future__ import annotations

import math

import numpy as np

# CODATA 2018 (SI); hbar, c and e are exact since the 2019 redefinition.
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0
M_P = 1.67262192369e-27
E_CHARGE = 1.602176634e-19
MU0 = 1.25663706212e-6

#: Rotor arm length and dipole charge separation of a water molecule [m].
D_G = 0.82e-10
D_E = 0.2e-10
#: Linear response of the permanent polarization to the static field [m/V].
C_P = 4.9e-9
#: Limit-cycle level-weight difference w_minus - w_plus.
DELTA_W = 0.62

_SQRT3 = math.sqrt(3.0)

#: The three roots of lambda^3 = -i; the first, sqrt(3)/2 - i/2, grows.
CUBE_ROOTS_OF_MINUS_I = np.exp(1j * (-math.pi / 2.0 + 2.0 * math.pi * np.arange(3)) / 3.0)


def prefactors(n: int = 30, delta_w: float = DELTA_W) -> tuple[float, float]:
    """(c_A, c_t) for an n-molecule shell with level-weight difference delta_w."""
    inertia = 2.0 * M_P * D_G**2
    omega_c = HBAR / inertia  # E_split / hbar with E_split = hbar^2 / I
    d0_tilde = 2.0 * E_CHARGE * D_E * math.sqrt(2.0 / 3.0)
    dn_bar = n * delta_w
    c_a = (
        n * dn_bar * inertia * MU0**2 * C_LIGHT**4 * d0_tilde / (6.0 * _SQRT3 * omega_c)
    ) ** (1.0 / 3.0)
    c_t = (
        4.0 * n * inertia / (omega_c * MU0 * C_LIGHT**2 * d0_tilde**2 * dn_bar**2)
    ) ** (1.0 / 3.0)
    return c_a, c_t


def saturation_scales(rho, p_z, n: int = 30, delta_w: float = DELTA_W):
    """(A_sat, t_gain); rho and p_z may be floats or numpy arrays."""
    c_a, c_t = prefactors(n, delta_w)
    rho = np.asarray(rho, dtype=float)
    p_z = np.asarray(p_z, dtype=float)
    return c_a * rho ** (2.0 / 3.0) * p_z ** (1.0 / 3.0), c_t * rho ** (-1.0 / 3.0) * p_z ** (-2.0 / 3.0)


def linear_field(tau, a0: complex, b0: complex, p0: complex = 0.0) -> np.ndarray:
    """Complex field A(tau) of the linearized dynamics A''' = -i A."""
    lam = CUBE_ROOTS_OF_MINUS_I
    vandermonde = np.vstack([lam**0, lam, lam**2])  # row m holds lambda_k^m
    coef = np.linalg.solve(vandermonde, np.array([a0, b0, 1j * p0], dtype=complex))
    return np.exp(np.outer(np.asarray(tau, dtype=float), lam)) @ coef

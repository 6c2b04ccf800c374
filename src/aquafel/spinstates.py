"""Exact two-level pseudo-spin algebra for the rotor-radiation coupling.

Basis ordering is (|e>, |g>) everywhere in this module: index 0 is the
excited state, index 1 the ground state. The pseudo-spin operators
s1, s2, s3 are one half times the Pauli matrices in that ordering and
satisfy [s_i, s_j] = i·eps_ijk·s_k.

The cooperative ("superradiant") single-molecule amplitudes

    psi_g = (1/sqrt(2)) [ (1/sqrt(3))·e^{i t1}·|e>  -  e^{i t2}·|g> ]
    psi_e = (1/sqrt(2)) [ (1/sqrt(3))·e^{-i t2}·|e> +  e^{-i t1}·|g> ]

are kept unnormalized exactly as defined (norm² = 2/3, mutual overlap
1/3): normalizing them would change the 1/(2·sqrt(3)) coupling
coefficient that every expectation below carries.

ponderomotive_term builds the radiation-dipole interaction energy per
molecule from frame vectors, phase shifts and 2x2 matrix expectations.
Its closed form
+/- A0·omega_c·d0_tilde·cos(xi2)·sin(theta + phi0 + delta)/(2·sqrt(3))
is not evaluated here: verify.py compares the two.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .rotor import RigidRotor

_SQRT3 = math.sqrt(3.0)


class SpinOperators(NamedTuple):
    """Pseudo-spin-1/2 matrices over the (|e>, |g>) basis."""

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray

    def axis(self, a: int) -> np.ndarray:
        if a not in (1, 2, 3):
            raise ValueError(f"spin axis must be 1, 2 or 3, got {a}")
        return (self.s1, self.s2, self.s3)[a - 1]


class SuperradiantPair(NamedTuple):
    """Unnormalized cooperative amplitudes; phases enter via theta2 - theta1."""

    psi_g: np.ndarray
    psi_e: np.ndarray

    def state(self, which: str) -> np.ndarray:
        if which not in ("g", "e"):
            raise ValueError(f"state selector must be 'g' or 'e', got {which!r}")
        return self.psi_g if which == "g" else self.psi_e


class Frame(NamedTuple):
    """Molecular Cartesian frame from two successive rotations.

    The frame is the lab basis rotated first about z by -xi1, then about
    the intermediate x-axis by -xi2; e3 is the dipole axis and
    e3·e_z = cos(xi2).
    """

    xi1: float
    xi2: float
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray


def energy_spins() -> SpinOperators:
    """The three pseudo-spin matrices in the (|e>, |g>) ordering."""
    s1 = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
    return SpinOperators(s1=s1, s2=s2, s3=s3)


def superradiant_pair(theta1: float, theta2: float) -> SuperradiantPair:
    """Build the unnormalized cooperative pair for phases (theta1, theta2)."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    inv_sqrt3 = 1.0 / _SQRT3
    psi_g = inv_sqrt2 * np.array(
        [inv_sqrt3 * np.exp(1j * theta1), -np.exp(1j * theta2)], dtype=complex
    )
    psi_e = inv_sqrt2 * np.array(
        [inv_sqrt3 * np.exp(-1j * theta2), np.exp(-1j * theta1)], dtype=complex
    )
    return SuperradiantPair(psi_g=psi_g, psi_e=psi_e)


def spin_expectation(pair: SuperradiantPair, which: str, axis: int) -> float:
    """<psi| s_axis |psi> with the unnormalized amplitudes: its real part, all of
    it for a Hermitian s_axis (verify's su(2) check covers the operators)."""
    psi = pair.state(which)
    op = energy_spins().axis(axis)
    return complex(np.vdot(psi, op @ psi)).real


def free_energy_expectation(pair: SuperradiantPair, which: str, E_split: float) -> float:
    """<psi| H_free |psi> with the two-level diagonal (+E/2, -E/2).

    Both cooperative states give -E_split/6 with the unnormalized
    amplitudes; the sum over the pair is -E_split/3.
    """
    psi = pair.state(which)
    h = E_split * energy_spins().s3
    return float(np.real(np.vdot(psi, h @ psi)))


def make_frame(xi1: float, xi2: float) -> Frame:
    """Construct the frame vectors from the two rotation angles [rad]."""
    rot_z = np.array(
        [
            [math.cos(xi1), -math.sin(xi1), 0.0],
            [math.sin(xi1), math.cos(xi1), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    rot_x = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(xi2), -math.sin(xi2)],
            [0.0, math.sin(xi2), math.cos(xi2)],
        ]
    )
    frame_rows = rot_x @ rot_z
    return Frame(xi1=xi1, xi2=xi2, e1=frame_rows[0], e2=frame_rows[1], e3=frame_rows[2])


def transverse_field_vector(A0: float, phi0: float) -> np.ndarray:
    """Lab-frame vector potential of the transverse wave, (Ax, Ay, 0)."""
    return np.array([A0 * math.cos(phi0), -A0 * math.sin(phi0), 0.0])


def ponderomotive_term(
    A0: float,
    phi0: float,
    theta: float,
    delta: float,
    frame: Frame,
    rotor: RigidRotor,
    which: str = "g",
) -> float:
    """Radiation-dipole interaction energy of one molecule [J].

    Projects the lab field onto the frame vectors e1, e2, shifts the
    cooperative phase difference by xi1 (the frame rotation about z
    re-phases the energy eigenstates), takes the 2x2 spin expectations in
    the rotated frame, and contracts them using the time-derivative rule
    d(s1)/dt = -omega_c·s2, d(s2)/dt = +omega_c·s1. The s2 channel carries cos(xi2) because the dipole z-channel has no
    matrix element inside the two-level space.
    """
    if not (A0 >= 0.0):
        raise ValueError("field amplitude A0 must be non-negative")
    A_vec = transverse_field_vector(A0, phi0)
    A_dot_e1 = float(A_vec @ frame.e1)
    A_dot_e2 = float(A_vec @ frame.e2)
    # frame rotation about z shifts the phase difference theta+delta by +xi1
    pair = superradiant_pair(0.0, theta + delta + frame.xi1)
    s1_exp = spin_expectation(pair, which, 1)
    s2_exp = math.cos(frame.xi2) * spin_expectation(pair, which, 2)
    return rotor.omega_c * rotor.d0_tilde * (A_dot_e1 * (-s2_exp) + A_dot_e2 * s1_exp)


def per_ion_ponderomotive(
    A0: float,
    phi0: float,
    theta: float,
    delta: float,
    delta_n_bar: float,
    P_z: float,
    rotor: RigidRotor,
) -> float:
    """Orientation-aggregated interaction energy of one solvation shell [J].

    Summing ponderomotive_term over the shell, the ground state counts +1
    and the excited state -1, so the molecules enter as the population
    difference delta_n_bar, and their factor cos(xi2) averages to the
    permanent polarization P_z, its only component (mixing.py).
    """
    coeff = delta_n_bar * rotor.omega_c * rotor.d0_tilde / (2.0 * _SQRT3)
    return coeff * (A0 * P_z * math.sin(theta + phi0 + delta))

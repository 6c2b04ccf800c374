"""Two-level rigid-rotor model of a water molecule and its thermal statistics.

The molecule is a quantum rigid rotator for the internal rotation of the
hydrogen pair about the electric dipole axis, with average moment of
inertia I_ave = 2·m_p·d_g². The level ladder is E_l = E_split·l(l+1)/2,
so the lowest splitting E_1 - E_0 equals E_split = hbar²/I_ave exactly.
Population ratios are per-state Boltzmann factors (no 2l+1 degeneracy
weight): that convention reproduces the measured room-temperature ratio
table R_1..R_5 = 0.89, 0.70, 0.49, 0.30, 0.17.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constants import CODATA2018

#: Geometry length of the rotor arm [m] (0.82 Angstrom).
D_G_WATER = 0.82e-10
#: Effective dipole charge-separation length [m] (0.2 Angstrom).
D_E_WATER = 0.2e-10


class RigidRotor(NamedTuple):
    """Derived two-level rotor constants, all SI, from D_G_WATER, D_E_WATER and CODATA2018.

    I_ave [kg·m²] is the average moment of inertia; E_split [J] the l=0 ->
    l=1 energy splitting; omega_c [rad/s] the resonance angular frequency;
    l_c [m] the resonant wavelength; d0 and d0_tilde [C·m] the bare and
    two-level-reduced dipole moments (d0_tilde = d0·sqrt(2/3)).
    """

    I_ave: float
    E_split: float
    omega_c: float
    l_c: float
    d0: float
    d0_tilde: float


class ThermalInversion(NamedTuple):
    """Thermal ground/excited population difference for one solvation shell.

    delta_n_bar = (n/2)·tanh(E_split/(2·k_B·T)); energy_ratio is the
    tanh argument E_split/(2·k_B·T).
    """

    delta_n_bar: float
    energy_ratio: float


def build_rotor() -> RigidRotor:
    """Derive all two-level rotor constants from the water lengths and CODATA2018."""
    I_ave = 2.0 * CODATA2018.m_p * D_G_WATER**2
    E_split = CODATA2018.hbar**2 / I_ave
    omega_c = E_split / CODATA2018.hbar
    l_c = 2.0 * math.pi * CODATA2018.c / omega_c
    d0 = 2.0 * CODATA2018.e_charge * D_E_WATER
    return RigidRotor(
        I_ave=I_ave,
        E_split=E_split,
        omega_c=omega_c,
        l_c=l_c,
        d0=d0,
        d0_tilde=d0 * math.sqrt(2.0 / 3.0),
    )


def rotational_level_energy(rotor: RigidRotor, l: int) -> float:
    """Energy of level l [J] above the ground state: E_split·l(l+1)/2."""
    if l < 0:
        raise ValueError("azimuthal quantum number l must be >= 0")
    return rotor.E_split * l * (l + 1) / 2.0


def population_ratio(rotor: RigidRotor, l: int, temperature: float) -> float:
    """Per-state Boltzmann ratio R_l = exp(-E_l/(k_B·T)) relative to l=0."""
    if not (temperature > 0.0):
        raise ValueError("temperature must be positive")
    E_l = rotational_level_energy(rotor, l)
    return math.exp(-E_l / (CODATA2018.k_B * temperature))


def thermal_inversion(rotor: RigidRotor, n: int, temperature: float) -> ThermalInversion:
    """Thermal-equilibrium population difference over an n-molecule shell."""
    if not (n >= 1):
        raise ValueError("molecule count n must be >= 1")
    thermal_energy = 2.0 * CODATA2018.k_B * temperature
    if not thermal_energy > 0.0:
        raise ValueError(f"temperature must be positive with 2·k_B·T > 0, got {temperature!r} K")
    ratio = rotor.E_split / thermal_energy
    return ThermalInversion(delta_n_bar=(n / 2.0) * math.tanh(ratio), energy_ratio=ratio)

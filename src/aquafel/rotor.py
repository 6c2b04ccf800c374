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
from dataclasses import dataclass

from .constants import CODATA2018, PhysicalConstants

#: Geometry length of the rotor arm [m] (0.82 Angstrom).
D_G_WATER = 0.82e-10
#: Effective dipole charge-separation length [m] (0.2 Angstrom).
D_E_WATER = 0.2e-10


@dataclass(frozen=True)
class RigidRotor:
    """Derived two-level rotor constants, all SI.

    d_g, d_e are the input lengths [m]; I_ave [kg·m²] the average moment
    of inertia; E_split [J] the l=0 -> l=1 energy splitting; omega_c
    [rad/s] the resonance angular frequency; l_c [m] the resonant
    wavelength; d0 and d0_tilde [C·m] the bare and two-level-reduced
    dipole moments (d0_tilde = d0·sqrt(2/3)).
    """

    d_g: float
    d_e: float
    I_ave: float
    E_split: float
    omega_c: float
    l_c: float
    d0: float
    d0_tilde: float
    constants: PhysicalConstants = CODATA2018


@dataclass(frozen=True)
class ThermalPopulation:
    """Boltzmann population ratios R_l relative to l=0 at one temperature."""

    temperature: float
    ratios: tuple[float, ...]
    delta_n_thermal: float


@dataclass(frozen=True)
class ThermalInversion:
    """Thermal ground/excited population difference for one solvation shell.

    delta_n_bar = (n/2)·tanh(E_split/(2·k_B·T)); energy_ratio is the
    tanh argument E_split/(2·k_B·T).
    """

    delta_n_bar: float
    energy_ratio: float


def build_rotor(
    constants: PhysicalConstants = CODATA2018,
    d_g: float = D_G_WATER,
    d_e: float = D_E_WATER,
) -> RigidRotor:
    """Derive all two-level rotor constants from the geometry lengths.

    Parameters
    ----------
    constants : PhysicalConstants
        SI constants source.
    d_g, d_e : float
        Rotor-arm and dipole lengths [m]; must be positive.
    """
    if d_g <= 0.0 or d_e <= 0.0:
        raise ValueError("rotor lengths d_g, d_e must be positive")
    I_ave = 2.0 * constants.m_p * d_g**2
    E_split = constants.hbar**2 / I_ave
    omega_c = E_split / constants.hbar
    l_c = 2.0 * math.pi * constants.c / omega_c
    d0 = 2.0 * constants.e_charge * d_e
    return RigidRotor(
        d_g=d_g,
        d_e=d_e,
        I_ave=I_ave,
        E_split=E_split,
        omega_c=omega_c,
        l_c=l_c,
        d0=d0,
        d0_tilde=d0 * math.sqrt(2.0 / 3.0),
        constants=constants,
    )


def rotational_level_energy(rotor: RigidRotor, l: int) -> float:
    """Energy of level l [J] above the ground state: E_split·l(l+1)/2."""
    if l < 0:
        raise ValueError("azimuthal quantum number l must be >= 0")
    return rotor.E_split * l * (l + 1) / 2.0


def population_ratio(rotor: RigidRotor, l: int, temperature: float) -> float:
    """Per-state Boltzmann ratio R_l = exp(-E_l/(k_B·T)) relative to l=0."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    E_l = rotational_level_energy(rotor, l)
    return math.exp(-E_l / (rotor.constants.k_B * temperature))


def thermal_population(
    rotor: RigidRotor, n: int, temperature: float, l_max: int = 5
) -> ThermalPopulation:
    """Ratio table R_0..R_lmax plus the thermal inversion for n molecules."""
    ratios = tuple(population_ratio(rotor, l, temperature) for l in range(l_max + 1))
    inv = thermal_inversion(rotor, n, temperature)
    return ThermalPopulation(
        temperature=temperature, ratios=ratios, delta_n_thermal=inv.delta_n_bar
    )


def thermal_inversion(rotor: RigidRotor, n: int, temperature: float) -> ThermalInversion:
    """Thermal-equilibrium population difference over an n-molecule shell."""
    if n < 1:
        raise ValueError("molecule count n must be >= 1")
    thermal_energy = 2.0 * rotor.constants.k_B * temperature
    if not thermal_energy > 0.0:
        raise ValueError(f"temperature must be positive with 2·k_B·T > 0, got {temperature!r} K")
    ratio = rotor.E_split / thermal_energy
    return ThermalInversion(delta_n_bar=(n / 2.0) * math.tanh(ratio), energy_ratio=ratio)

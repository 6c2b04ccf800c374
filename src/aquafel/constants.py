"""Fundamental physical constants, SI units.

Values are the CODATA 2018 recommended values
(https://physics.nist.gov/cuu/Constants/). h, c, k_B and e are exact by
the 2019 SI redefinition; m_p and mu0 carry the 2018 experimental digits.
All derived quantities in this package trace back to this single table.
The node counts of the matrix-element quadrature sit here too, so that a
summary can echo them without importing the quadrature (or numpy).
"""

from __future__ import annotations

from typing import NamedTuple


class PhysicalConstants(NamedTuple):
    """SI constants bundle used by every derivation in the package.

    Attributes
    ----------
    hbar : float
        Reduced Planck constant [J·s].
    c : float
        Speed of light in vacuum [m/s].
    k_B : float
        Boltzmann constant [J/K].
    m_p : float
        Proton mass [kg].
    e_charge : float
        Elementary charge [C].
    mu0 : float
        Vacuum magnetic permeability [kg·m/(A²·s²)]; water is treated as
        magnetically inert, so this is also the permeability in water.
    """

    hbar: float = 1.054571817e-34
    c: float = 299792458.0
    k_B: float = 1.380649e-23
    m_p: float = 1.67262192369e-27
    e_charge: float = 1.602176634e-19
    mu0: float = 1.25663706212e-6


#: Frozen CODATA 2018 table; rotor, scaling and scenario read it directly.
CODATA2018 = PhysicalConstants()

#: Gauss-Legendre node count in cos(theta) of quadrature.py; exact for x-degree <= 31.
GAUSS_LEGENDRE_ORDER = 16
#: Uniform azimuthal node count of quadrature.py; exact for harmonics e^{ik phi}, |k| < 64.
TRAPEZOID_ORDER = 64

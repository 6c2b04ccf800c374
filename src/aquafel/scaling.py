"""Gain coefficients and saturation scales of the collective instability.

The coupled rotor-field equations carry two dimensional coefficients

    alpha = sqrt(3)·delta_n_bar·omega_c·d_eff / (n·I_ave)
    beta  = mu·c²·rho·delta_n_bar·d_eff / (2·sqrt(3))

with d_eff = d0_tilde·P_z the polarization-rescaled dipole moment and
rho = N/V the ion concentration. The natural field and time scales

    A_sat  = (alpha/(2·beta²))^(-1/3)   [V·s/m]
    t_gain = (alpha·beta/2)^(-1/3)      [s]

obey exact power laws A_sat = c_A·rho^(2/3)·P_z^(1/3) and
t_gain = c_t·rho^(-1/3)·P_z^(-2/3); the prefactors c_A, c_t depend only
on the rotor constants and the shell inversion. When P_z = 0 or
delta_n_bar = 0 the mechanism is off: A_sat -> 0 and t_gain -> infinity.
Neither scale involves the ion velocity.

gain_coefficients is the one route from SystemParams to these scales;
prefactors_closed_form is an independent reference for c_A and c_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rotor import RigidRotor

_SQRT3 = math.sqrt(3.0)
#: Largest attainable permanent polarization, at mixing angle pi/4.
P_Z_MAX = 1.0 / (3.0 * _SQRT3)


@dataclass(frozen=True)
class SystemParams:
    """Scenario-level inputs for the gain coefficients.

    n: solvating molecules per ion; delta_n_bar: shell inversion;
    rho: ion concentration [1/m³]; P_z: permanent polarization
    (dimensionless, in [0, 1/(3*sqrt(3))]); mu: magnetic permeability.
    """

    n: int
    delta_n_bar: float
    rho: float
    P_z: float
    rotor: RigidRotor
    mu: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("molecule count n must be >= 1")
        if not 0.0 <= self.delta_n_bar <= self.n:
            raise ValueError(f"inversion delta_n_bar must lie in [0, n = {self.n}], "
                             f"got {self.delta_n_bar!r}")
        if not 0.0 < self.rho < math.inf:
            raise ValueError("ion concentration rho must be positive and finite, "
                             f"got {self.rho!r}")
        if not 0.0 <= self.P_z <= P_Z_MAX + 1e-15:
            raise ValueError(f"P_z must lie in [0, {P_Z_MAX}], got {self.P_z!r}")
        if self.mu <= 0.0:
            raise ValueError("permeability mu must be positive")


@dataclass(frozen=True)
class GainCoefficients:
    """alpha/beta pair plus the derived saturation scales and prefactors."""

    alpha_coef: float
    beta_coef: float
    A_sat: float
    t_gain: float
    c_A: float
    c_t: float

    @property
    def mechanism_on(self) -> bool:
        return self.A_sat > 0.0 and math.isfinite(self.t_gain)


def gain_coefficients(params: SystemParams) -> GainCoefficients:
    """Gain coefficients (alpha, beta), saturation scales and prefactors.

    With P_z = 0 or delta_n_bar = 0 the mechanism is off: alpha = beta = 0,
    A_sat is 0, t_gain infinite and the prefactors undefined (NaN); no
    exception is raised. Scales that over- or underflow the float range
    raise ValueError naming rho and P_z.
    """
    if params.P_z == 0.0 or params.delta_n_bar == 0.0:
        # no gain at any rho (and no inf·0 = NaN in the scales)
        return GainCoefficients(alpha_coef=0.0, beta_coef=0.0, A_sat=0.0, t_gain=math.inf,
                                c_A=math.nan, c_t=math.nan)
    rotor = params.rotor
    d_eff = rotor.d0_tilde * params.P_z
    alpha = _SQRT3 * params.delta_n_bar * rotor.omega_c * d_eff / (params.n * rotor.I_ave)
    beta = params.mu * rotor.constants.c**2 * params.rho * params.delta_n_bar * d_eff / (
        2.0 * _SQRT3
    )
    # a coefficient that underflows to 0 or overflows to inf fails here
    try:
        A_sat = (alpha / (2.0 * beta**2)) ** (-1.0 / 3.0)
        t_gain = (alpha * beta / 2.0) ** (-1.0 / 3.0)
        c_A = A_sat / (params.rho ** (2.0 / 3.0) * params.P_z ** (1.0 / 3.0))
        c_t = t_gain * params.rho ** (1.0 / 3.0) * params.P_z ** (2.0 / 3.0)
        in_range = all(0.0 < x < math.inf for x in (A_sat, t_gain, c_A, c_t))
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise ValueError("saturation scales leave the floating-point range at "
                         f"rho = {params.rho!r} 1/m^3, P_z = {params.P_z!r}")
    return GainCoefficients(alpha, beta, A_sat, t_gain, c_A, c_t)


def prefactors_closed_form(params: SystemParams) -> tuple[float, float]:
    """(c_A, c_t) by direct algebra, independent of the alpha/beta route.

    Eliminating rho and P_z from the saturation scales gives

        c_A = [n·delta_n_bar·I_ave·mu²·c⁴·d0_tilde / (6·sqrt(3)·omega_c)]^(1/3)
        c_t = [4·n·I_ave / (omega_c·mu·c²·d0_tilde²·delta_n_bar²)]^(1/3)
    """
    rotor = params.rotor
    c = rotor.constants.c
    c_A = (
        params.n
        * params.delta_n_bar
        * rotor.I_ave
        * params.mu**2
        * c**4
        * rotor.d0_tilde
        / (6.0 * _SQRT3 * rotor.omega_c)
    ) ** (1.0 / 3.0)
    c_t = (
        4.0
        * params.n
        * rotor.I_ave
        / (rotor.omega_c * params.mu * c**2 * rotor.d0_tilde**2 * params.delta_n_bar**2)
    ) ** (1.0 / 3.0)
    return c_A, c_t


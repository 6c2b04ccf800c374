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

gain_grid evaluates them over a rho x P_z grid, and gain_coefficients is
the one route from SystemParams to them, through gain_grid at one point;
prefactors_closed_form is an independent reference for c_A and c_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rotor import RigidRotor

_SQRT3 = math.sqrt(3.0)
#: Largest attainable permanent polarization, at mixing angle pi/4.
P_Z_MAX = 1.0 / (3.0 * _SQRT3)


def _rho_ok(rho):  # element-wise on arrays, as _pz_ok
    return (0.0 < rho) & (rho < math.inf)


def _pz_ok(P_z):
    return (0.0 <= P_z) & (P_z <= P_Z_MAX)


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
        if not _rho_ok(self.rho):
            raise ValueError("ion concentration rho must be positive and finite, "
                             f"got {self.rho!r}")
        if not _pz_ok(self.P_z):
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


def _cpow(x, e: float) -> np.ndarray:
    """x ** e per element by CPython's float pow, not numpy.power, which
    differs from it by 1 ulp on some inputs; +inf where CPython raises
    (0 ** -e, overflow)."""

    def pow_or_inf(v: float) -> float:
        try:
            return v ** e
        except (OverflowError, ZeroDivisionError):
            return math.inf

    return np.array([pow_or_inf(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def gain_grid(n: int, delta_n_bar: float, rho, P_z, rotor: RigidRotor, mu: float) -> tuple:
    """(alpha, beta, A_sat, t_gain, c_A, c_t) over the grid (rho[i], P_z[j]), as
    arrays indexed [i, j] (alpha, free of rho, has one row), in one evaluation.

    Powers go through _cpow and the rest rounds alike in numpy and Python, so
    each point has the bits of a one-point grid. Where P_z or delta_n_bar is 0
    the mechanism is off, as gain_coefficients describes. The first point in
    rho-major order with an invalid rho or P_z, or scales beyond the float
    range, raises ValueError; nothing warns.
    """
    rho, P_z = np.asarray(rho, dtype=float)[:, None], np.asarray(P_z, dtype=float)[None, :]
    rho_ok, pz_ok = _rho_ok(rho), _pz_ok(P_z)
    off = (P_z == 0.0) | (delta_n_bar == 0.0)
    with np.errstate(all="ignore"):
        # NaN stands in for an invalid rho or P_z: a negative one has complex powers
        r, p = np.where(rho_ok, rho, math.nan), np.where(pz_ok, P_z, math.nan)
        d_eff = rotor.d0_tilde * p
        alpha = _SQRT3 * delta_n_bar * rotor.omega_c * d_eff / (n * rotor.I_ave)
        beta = mu * rotor.constants.c**2 * r * delta_n_bar * d_eff / (2.0 * _SQRT3)
        A_sat = _cpow(alpha / (2.0 * _cpow(beta, 2)), -1.0 / 3.0)
        t_gain = _cpow(alpha * beta / 2.0, -1.0 / 3.0)
        c_A = A_sat / (_cpow(r, 2.0 / 3.0) * _cpow(p, 1.0 / 3.0))
        c_t = t_gain * _cpow(r, 1.0 / 3.0) * _cpow(p, 2.0 / 3.0)
        in_range = np.all([(0.0 < x) & (x < math.inf) for x in (A_sat, t_gain, c_A, c_t)], 0)
    bad = ~(rho_ok & pz_ok & (off | in_range))
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        rho_i, pz_j = rho[i, 0].item(), P_z[0, j].item()
        SystemParams(n, delta_n_bar, rho_i, pz_j, rotor, mu)  # raises for an invalid input
        raise ValueError("saturation scales leave the floating-point range at rho = "
                         f"{rho_i!r} 1/m^3, P_z = {pz_j!r}, delta_n_bar = {delta_n_bar!r}")
    off_values = (0.0, 0.0, 0.0, math.inf, math.nan, math.nan)
    return tuple(np.where(off, v, x)
                 for v, x in zip(off_values, (alpha, beta, A_sat, t_gain, c_A, c_t)))


def gain_coefficients(params: SystemParams) -> GainCoefficients:
    """Gain coefficients (alpha, beta), saturation scales and prefactors.

    With P_z = 0 or delta_n_bar = 0 the mechanism is off: alpha = beta = 0,
    A_sat is 0, t_gain infinite and the prefactors undefined (NaN); no
    exception is raised. Scales that over- or underflow the float range
    raise ValueError naming rho, P_z and delta_n_bar.
    """
    coeffs = gain_grid(params.n, params.delta_n_bar, [params.rho], [params.P_z],
                       params.rotor, params.mu)
    return GainCoefficients(*(float(x[0, 0]) for x in coeffs))


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


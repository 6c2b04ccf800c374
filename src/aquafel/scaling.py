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

gain_grid evaluates them over a rho x P_z grid and is the one place that
checks their inputs, every rho and P_z before any point and the float range
at each point; gain_coefficients is the one route from the plain
SystemParams record to them, through gain_grid at one point;
prefactors_closed_form is an independent reference for c_A and c_t,
validity_ratio converts a scaled momentum back to units of omega_c, and
linear_field is the scaled field of the linear regime in closed form. All
of it is plain float and complex arithmetic: no numpy.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .constants import CODATA2018
from .rotor import RigidRotor

_SQRT3 = math.sqrt(3.0)
#: Largest attainable permanent polarization, at mixing angle pi/4.
P_Z_MAX = 1.0 / (3.0 * _SQRT3)
#: (alpha, beta, A_sat, t_gain, c_A, c_t) where the mechanism is off.
_MECHANISM_OFF = (0.0, 0.0, 0.0, math.inf, math.nan, math.nan)


class SystemParams(NamedTuple):
    """Scenario-level inputs for the gain coefficients.

    n: solvating molecules per ion; delta_n_bar: shell inversion;
    rho: ion concentration [1/m³]; P_z: permanent polarization
    (dimensionless, in [0, 1/(3*sqrt(3))]); mu: magnetic permeability.
    A plain record: gain_grid, which gain_coefficients calls, checks the values.
    """

    n: int
    delta_n_bar: float
    rho: float
    P_z: float
    rotor: RigidRotor
    mu: float


class GainCoefficients(NamedTuple):
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


def gain_grid(n: int, delta_n_bar: float, rho, P_z, rotor: RigidRotor, mu: float):
    """Yield, for each rho in order, the list of (alpha, beta, A_sat, t_gain, c_A,
    c_t) at (rho, P_z[j]) for every P_z; rho and P_z are sequences.

    Plain float arithmetic with the operations and operand order of a point by
    point evaluation, so every grid point has the bits of gain_coefficients at
    that point. What depends on one axis is computed once for it: per P_z
    column d_eff = d0_tilde·P_z, alpha and P_z^(1/3), P_z^(2/3); per rho row
    beta's prefix k_beta·rho·delta_n_bar and rho^(1/3), rho^(2/3). Per point are
    left beta, A_sat, t_gain, c_A, c_t and their range checks. Where P_z or
    delta_n_bar is 0 the mechanism is off, as gain_coefficients describes.
    Before any row is yielded, even when an axis is empty, an invalid n,
    delta_n_bar or mu raises ValueError, then the first invalid rho, then the
    first invalid P_z. The first point in rho-major order whose scales leave the
    float range raises ValueError when it is reached. NaN is invalid everywhere,
    and nothing warns.
    """
    if not (n >= 1):
        raise ValueError("molecule count n must be >= 1")
    if not (0.0 <= delta_n_bar <= n):
        raise ValueError(f"inversion delta_n_bar must lie in [0, n = {n}], "
                         f"got {delta_n_bar!r}")
    if not (mu > 0.0):
        raise ValueError("permeability mu must be positive")
    for r in rho:
        if not (0.0 < r < math.inf):
            raise ValueError(f"ion concentration rho must be positive and finite, got {r!r}")
    for p in P_z:
        if not (0.0 <= p <= P_Z_MAX):
            raise ValueError(f"P_z must lie in [0, {P_Z_MAX}], got {p!r}")
    k_alpha, n_I = _SQRT3 * delta_n_bar * rotor.omega_c, n * rotor.I_ave
    k_beta, d0_tilde = mu * CODATA2018.c**2, rotor.d0_tilde
    two_sqrt3, inf = 2.0 * _SQRT3, math.inf
    # (P_z, d_eff, alpha, P_z^(1/3), P_z^(2/3)), or None where the mechanism is off
    columns = []
    for p in P_z:
        if p == 0.0 or delta_n_bar == 0.0:
            columns.append(None)
        else:
            d_eff = d0_tilde * p
            columns.append((p, d_eff, k_alpha * d_eff / n_I, p ** (1.0 / 3.0),
                            p ** (2.0 / 3.0)))
    for r in rho:
        k_r = k_beta * r * delta_n_bar
        r_third, r_two_thirds = r ** (1.0 / 3.0), r ** (2.0 / 3.0)
        row = []
        for column in columns:
            if column is None:
                row.append(_MECHANISM_OFF)
                continue
            p, d_eff, alpha, p_third, p_two_thirds = column
            beta = k_r * d_eff / two_sqrt3
            try:
                A_sat = (alpha / (2.0 * beta**2)) ** (-1.0 / 3.0)
                t_gain = (alpha * beta / 2.0) ** (-1.0 / 3.0)
                c_A = A_sat / (r_two_thirds * p_third)
            except (ZeroDivisionError, OverflowError):  # an infinite or undefined scale
                raise _range_error(r, p, delta_n_bar) from None
            c_t = t_gain * r_third * p_two_thirds
            if not (0.0 < A_sat < inf and 0.0 < t_gain < inf
                    and 0.0 < c_A < inf and 0.0 < c_t < inf):
                raise _range_error(r, p, delta_n_bar)
            row.append((alpha, beta, A_sat, t_gain, c_A, c_t))
        yield row


def _range_error(rho: float, P_z: float, delta_n_bar: float) -> ValueError:
    return ValueError("saturation scales leave the floating-point range at rho = "
                      f"{rho!r} 1/m^3, P_z = {P_z!r}, delta_n_bar = {delta_n_bar!r}")


def gain_coefficients(params: SystemParams) -> GainCoefficients:
    """Gain coefficients (alpha, beta), saturation scales and prefactors.

    With P_z = 0 or delta_n_bar = 0 the mechanism is off: alpha = beta = 0,
    A_sat is 0, t_gain infinite and the prefactors undefined (NaN); no
    exception is raised. Scales that over- or underflow the float range
    raise ValueError naming rho, P_z and delta_n_bar.
    """
    [[point]] = gain_grid(params.n, params.delta_n_bar, [params.rho], [params.P_z],
                          params.rotor, params.mu)
    return GainCoefficients(*point)


def prefactors_closed_form(params: SystemParams) -> tuple[float, float]:
    """(c_A, c_t) by direct algebra, independent of the alpha/beta route.

    Eliminating rho and P_z from the saturation scales gives

        c_A = [n·delta_n_bar·I_ave·mu²·c⁴·d0_tilde / (6·sqrt(3)·omega_c)]^(1/3)
        c_t = [4·n·I_ave / (omega_c·mu·c²·d0_tilde²·delta_n_bar²)]^(1/3)
    """
    rotor, c = params.rotor, CODATA2018.c
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


def validity_ratio(p_max_abs: float, t_gain: float, omega_c: float) -> float:
    """max|theta_dot|/omega_c from the largest scaled momentum |p| = |theta_dot|·t_gain.

    It must stay well below 1 for the slow-phase approximation to hold.
    """
    return p_max_abs / (t_gain * omega_c)


#: The three roots of lambda³ = -i, e^{i·pi·(4k - 1)/6}; the first, sqrt(3)/2 - i/2, grows.
_CUBE_ROOTS_OF_MINUS_I = tuple(cmath.exp(1j * math.pi * (4 * k - 1) / 6.0) for k in range(3))


def linear_field(tau: float, a0: complex, b0: complex, p0: complex = 0.0) -> complex:
    """The scaled field A(tau) of the equations of motion linearized about uniform phases.

    There A' = b, b' = i·<p·e^{i·theta}> and <p·e^{i·theta}>' = -A, so A''' = -i·A
    and A = sum_k c_k·e^{lambda_k·tau} over the three cube roots lambda_k of -i,
    with A(0) = a0, A'(0) = b0 (the initial bunching) and A''(0) = i·p0,
    p0 = <p·e^{i·theta}>. The roots are lambda_0 times the cube roots of unity,
    so the Vandermonde system inverts in closed form:
    c_k = (a0 + b0/lambda_k + i·p0/lambda_k²)/3.
    """
    return sum((a0 + b0 / lam + 1j * p0 / (lam * lam)) / 3.0 * cmath.exp(lam * tau)
               for lam in _CUBE_ROOTS_OF_MINUS_I)

"""Static-field mixing of rotational states and permanent polarization.

A static field along z perturbs the |0,0> and |1,0> rotational states
into the pair

    |mix0> = cos(a)|0,0> + sin(a)|1,0>
    |mix1> = -sin(a)|0,0> + cos(a)|1,0>

which carries a time-independent (permanent) dipole expectation along z,
P_z = sin(2a)/(3*sqrt(3)). The transverse components P_x, P_y vanish by
construction. For weak fields P_z is linear in the field with slope
C_P = 4.9e-9 m/V, a published limit-cycle result adopted here as a fixed
coefficient (valid up to ~1e7 V/m); the same applies to the stationary
level-weight difference DELTA_W_LIMIT_CYCLE = 0.62.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .quadrature import dipole_matrix_element

#: Linear response slope of P_z to the static field [m/V].
C_P = 4.9e-9
#: Upper validity bound of the linear response [V/m].
E0Z_MAX = 1.0e7
#: Stationary (limit-cycle) weight difference w_minus - w_plus.
DELTA_W_LIMIT_CYCLE = 0.62

# <1,0| cos(theta) |0,0> computed once by the quadrature oracle (= 1/sqrt(3)).
_Z_MATRIX_ELEMENT = dipole_matrix_element(1, 0, 0, 0, axis=3).real

_WEIGHT_TOL = 1e-12
_FORM_AGREEMENT_TOL = 1e-12


@dataclass(frozen=True)
class MixedStates:
    """Field-mixed rotational eigenstates over the (|0,0>, |1,0>) basis."""

    alpha: float
    amp_0: np.ndarray
    amp_1: np.ndarray


@dataclass(frozen=True)
class PolarizationResult:
    """Permanent polarization and level weights of the stationary state.

    P_z is dimensionless (expectation of the dipole direction along z);
    delta_n_bar = n·delta_w is the inversion over an n-molecule shell.
    """

    P_z: float
    w_plus: float
    w_minus: float
    delta_w: float
    delta_n_bar: float

    @property
    def vector(self) -> tuple[float, float, float]:
        """(P_x, P_y, P_z); the transverse components vanish identically."""
        return (0.0, 0.0, self.P_z)


def mixed_states(alpha: float) -> MixedStates:
    """Rotate the (|0,0>, |1,0>) pair by the mixing angle alpha [rad]."""
    c, s = math.cos(alpha), math.sin(alpha)
    return MixedStates(
        alpha=alpha,
        amp_0=np.array([c, s], dtype=complex),
        amp_1=np.array([-s, c], dtype=complex),
    )


def permanent_polarization(alpha: float, w_plus: float, w_minus: float) -> float:
    """Permanent z-polarization of the mixed stationary state.

    Evaluates the weighted expectation

        P_z = (w_minus + 3 w_plus)/2 · <mix0|n_z|mix0>
            + (w_minus + 3 w_plus)/6 · <mix1|n_z|mix1>

    with the quadrature value of <1,0|n_z|0,0>, and cross-checks it
    against the closed form sin(2·alpha)/(3·sqrt(3)). The weights must
    satisfy w_minus + 3·w_plus = 1, and given that constraint the result
    is weight-independent.
    """
    norm = w_minus + 3.0 * w_plus
    if abs(norm - 1.0) > _WEIGHT_TOL:
        raise ValueError(
            f"level weights must satisfy w_minus + 3*w_plus = 1, got {norm!r}"
        )
    states = mixed_states(alpha)
    n_z = np.array([[0.0, _Z_MATRIX_ELEMENT], [_Z_MATRIX_ELEMENT, 0.0]], dtype=complex)
    exp0 = float(np.real(np.vdot(states.amp_0, n_z @ states.amp_0)))
    exp1 = float(np.real(np.vdot(states.amp_1, n_z @ states.amp_1)))
    weighted = (norm / 2.0) * exp0 + (norm / 6.0) * exp1
    closed = math.sin(2.0 * alpha) / (3.0 * math.sqrt(3.0))
    if abs(weighted - closed) > _FORM_AGREEMENT_TOL * max(1.0, abs(closed)):
        raise RuntimeError(
            "weighted polarization disagrees with its closed form: "
            f"{weighted!r} vs {closed!r}"
        )
    return weighted


def linearized_polarization(E0z: float) -> float:
    """Weak-field P_z = C_P·E0z; valid for 0 <= E0z <= 1e7 V/m."""
    if E0z < 0.0:
        raise ValueError("static field E0z must be non-negative")
    if E0z > E0Z_MAX:
        raise ValueError(
            f"linear response holds only up to {E0Z_MAX:.0e} V/m, got {E0z:.3e}"
        )
    return C_P * E0z


def solvation_inversion(n: int, delta_w: float) -> float:
    """Shell inversion delta_n_bar = n·delta_w for n solvating molecules."""
    if not 1 <= n <= sys.float_info.max:
        raise ValueError(f"molecule count n must lie in [1, {sys.float_info.max:.3g}]")
    if not 0.0 <= delta_w <= 1.0:
        raise ValueError("delta_w must lie in [0, 1]")
    return n * delta_w


def weights_from_delta_w(delta_w: float) -> tuple[float, float]:
    """(w_plus, w_minus) solving w_minus - w_plus = delta_w, w_minus + 3 w_plus = 1."""
    w_plus = (1.0 - delta_w) / 4.0
    w_minus = (1.0 + 3.0 * delta_w) / 4.0
    return w_plus, w_minus


def polarization_result(
    P_z: float, n: int, delta_w: float = DELTA_W_LIMIT_CYCLE
) -> PolarizationResult:
    """Bundle P_z with the stationary weights and the shell inversion."""
    w_plus, w_minus = weights_from_delta_w(delta_w)
    return PolarizationResult(
        P_z=P_z,
        w_plus=w_plus,
        w_minus=w_minus,
        delta_w=delta_w,
        delta_n_bar=solvation_inversion(n, delta_w),
    )

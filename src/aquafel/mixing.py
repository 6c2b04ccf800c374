"""Static-field mixing of rotational states: polarization and shell inversion.

A static field along z perturbs the |0,0> and |1,0> rotational states
into the pair

    |mix0> = cos(a)|0,0> + sin(a)|1,0>
    |mix1> = -sin(a)|0,0> + cos(a)|1,0>

which carries a time-independent (permanent) dipole expectation along z,
P_z = sin(2a)/(3*sqrt(3)). P_z is the only component: the field mixes
only the m = 0 states, between which n_x and n_y have no matrix element,
so P_x = P_y = 0. Nor does P_z depend on the level weights: they scale it
by w_minus + 3*w_plus, which their normalisation fixes at 1. The route
from these states to P_z through the quadrature matrix element is
quadrature.permanent_polarization(a); verify.py compares it with that
closed form. For weak fields P_z is linear in the field with slope
C_P = 4.9e-9 m/V, a published limit-cycle result adopted here as a fixed
coefficient (valid up to ~1e7 V/m); the same applies to the stationary
level-weight difference DELTA_W_LIMIT_CYCLE = 0.62. This module is plain
float arithmetic and imports no numpy.
"""

from __future__ import annotations

import sys

#: Linear response slope of P_z to the static field [m/V].
C_P = 4.9e-9
#: Upper validity bound of the linear response [V/m].
E0Z_MAX = 1.0e7
#: Stationary (limit-cycle) weight difference w_minus - w_plus.
DELTA_W_LIMIT_CYCLE = 0.62


def linearized_polarization(E0z: float) -> float:
    """Weak-field P_z = C_P·E0z; valid for 0 <= E0z <= 1e7 V/m."""
    if not (E0z >= 0.0):
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


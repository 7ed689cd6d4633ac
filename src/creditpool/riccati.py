"""The scalar Riccati equation behind the affine survival transform.

For a firm class with reversion speed ``alpha`` and volatility ``sigma``,
the exponent slope b solves

    db/dt = 1 - (sigma^2 / 2) b^2 - alpha b,   b(0) = 0.

b is positive for t > 0, increases monotonically, and saturates at the
positive root of the right-hand side.  Two independent routes are
implemented: the closed-form solution of this constant-coefficient
equation, and classical fourth-order Runge-Kutta on the grid.  They must
agree to discretization accuracy; tests exploit that as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, NonFiniteResultError, bounded_repr
from .model import FirmType, TimeGrid, Trajectory

METHODS = ("closed_form", "rk4")


@dataclass(frozen=True)
class RiccatiSolution:
    """b and db/dt sampled on a grid for one firm class."""

    firm_type: FirmType
    b: Trajectory
    b_dot: Trajectory

    @property
    def grid(self) -> TimeGrid:
        return self.b.grid


def _closed_form(alpha: float, sigma: float, t: np.ndarray) -> np.ndarray:
    # expm1 keeps 1 - exp(-delta t) accurate when delta*t is tiny; the
    # delta == 0 branch also covers sigma so small that sigma^2 underflows.
    delta = math.sqrt(alpha * alpha + 2.0 * sigma * sigma)
    if delta == 0.0:
        return np.asarray(t, dtype=float).copy()
    if sigma == 0.0:
        return -np.expm1(-alpha * t) / alpha
    # Written with exp(-delta t) only, so it never overflows and tends to
    # the saturation level 2/(delta+alpha) as t grows.
    e = np.exp(-delta * t)
    u = -np.expm1(-delta * t)
    return 2.0 * u / ((delta + alpha) * u + 2.0 * delta * e)


def _rk4(alpha: float, sigma: float, n_steps: int, dt: float) -> np.ndarray:
    half_s2 = 0.5 * sigma * sigma
    b = np.empty(n_steps + 1)
    b[0] = 0.0
    x = 0.0
    for k in range(n_steps):
        k1 = 1.0 - half_s2 * x * x - alpha * x
        y = x + 0.5 * dt * k1
        k2 = 1.0 - half_s2 * y * y - alpha * y
        y = x + 0.5 * dt * k2
        k3 = 1.0 - half_s2 * y * y - alpha * y
        y = x + dt * k3
        k4 = 1.0 - half_s2 * y * y - alpha * y
        x += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        b[k + 1] = x
    return b


def solve_riccati(firm_type: FirmType, grid: TimeGrid, method: str = "closed_form") -> RiccatiSolution:
    """Sample b and db/dt on the grid.

    ``b_dot`` is always evaluated through the right-hand side
    ``1 - sigma^2 b^2 / 2 - alpha b``, so the differential relation holds
    to round-off by construction regardless of method.
    """
    if method not in METHODS:
        raise FieldError("method", f"must be one of {METHODS}, got {bounded_repr(method)}")
    a, s = firm_type.alpha, firm_type.sigma
    if method == "closed_form":
        b = _closed_form(a, s, grid.points())
    else:
        b = _rk4(a, s, grid.n_steps, grid.dt)
    if not np.all(np.isfinite(b)):
        raise NonFiniteResultError(
            f"Riccati integration produced non-finite values "
            f"(alpha={a}, sigma={s}, dt={grid.dt})"
        )
    b_dot = 1.0 - 0.5 * s * s * b * b - a * b
    return RiccatiSolution(
        firm_type=firm_type,
        b=Trajectory(grid, b),
        b_dot=Trajectory(grid, b_dot),
    )

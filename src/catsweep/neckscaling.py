"""Neck-cost bookkeeping for gluing tubes through an n-dimensional hypersurface.

Opening a hole of radius t and bridging it with a tube costs at most
2*C*h*t^(n-1) in wall area while reclaiming 2*c*t^n of sheet, so the net
cost 2*C*h*t^(n-1) - 2*c*t^n peaks at a radius proportional to h and the
peak value scales like h^n.  For n >= 3 this loses to the h^2 gain from the
second variation; n = 2 is kept as the deliberate negative control where
both effects are the same order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegimeViolation


@dataclass(frozen=True)
class NeckScalingConfig:
    n: int
    c: float = 1.0
    C: float = 1.0
    A: float = 1.0
    h: float = 0.01

    def __post_init__(self):
        if int(self.n) != self.n or not (2 <= self.n <= 6):
            raise DomainError("dimension n must be an integer in [2, 6], got n = %s" % self.n)
        if not (0.0 < self.c <= self.C):
            raise DomainError("volume constants need 0 < c <= C")
        if self.A <= 0.0 or self.h <= 0.0:
            raise DomainError("A and h must be positive")


def cost_coefficient(n, c=1.0, C=1.0):
    """Coefficient B with max-cost = B*h^n; equals (2C/n)*(C(n-1)/(cn))^(n-1)."""
    return (2.0 * C / n) * (C * (n - 1) / (c * n)) ** (n - 1)


def max_neck_cost(cfg):
    """Peak cost B*h^n, guarded against leaving the quadratic-gain regime.

    Raises RegimeViolation when the peak exceeds (A/2)h^2, i.e. when h is too
    large for the tube cost to hide under the second-variation gain.  For
    n = 2 with B > A/2 this fires at every h; that is the point of the control.
    """
    cost = cost_coefficient(cfg.n, cfg.c, cfg.C) * cfg.h ** cfg.n
    if cost > 0.5 * cfg.A * cfg.h ** 2:
        raise RegimeViolation(
            "neck cost %.3e exceeds quadratic gain %.3e at h=%g"
            % (cost, 0.5 * cfg.A * cfg.h ** 2, cfg.h)
        )
    return cost


def cost_exponent_fit(n, c=1.0, C=1.0, A=1.0, h_grid=(1e-1, 1e-2, 1e-3, 1e-4)):
    """Least-squares slope of log max-cost against log h; should read back n."""
    hs = np.asarray(h_grid, dtype=float)
    costs = [
        max_neck_cost(NeckScalingConfig(n=n, c=c, C=C, A=A, h=float(h))) for h in hs
    ]
    return float(np.polyfit(np.log(hs), np.log(costs), 1)[0])

"""Neck-cost bookkeeping for gluing tubes through an n-dimensional hypersurface.

Opening a hole of radius t and bridging it with a tube costs at most
2*C*h*t^(n-1) in wall area while reclaiming 2*c*t^n of sheet, so the net
cost 2*C*h*t^(n-1) - 2*c*t^n peaks at a radius proportional to h and the
peak value scales like h^n.  For n >= 3 this loses to the h^2 gain from the
second variation; n = 2 is kept as the deliberate negative control where
both effects are the same order.
"""

import math
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
    R: float = 0.1

    def __post_init__(self):
        if int(self.n) != self.n or not (2 <= self.n <= 6):
            raise DomainError("dimension n must be an integer in [2, 6], got n = %s" % self.n)
        if not (0.0 < self.c <= self.C):
            raise DomainError("volume constants need 0 < c <= C")
        if self.A <= 0.0 or self.h <= 0.0 or self.R <= 0.0:
            raise DomainError("A, h and R must be positive")


def cost_coefficient(n, c=1.0, C=1.0):
    """Coefficient B with max-cost = B*h^n; equals (2C/n)*(C(n-1)/(cn))^(n-1)."""
    return (2.0 * C / n) * (C * (n - 1) / (c * n)) ** (n - 1)


def optimal_neck_radius(cfg):
    """Radius C(n-1)h/(cn) maximizing the net neck cost."""
    return cfg.C * (cfg.n - 1) * cfg.h / (cfg.c * cfg.n)


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


def quadratic_threshold(cfg):
    """Largest h with B*h^n <= (A/2)h^2; infinite for n = 2 when B <= A/2."""
    B = cost_coefficient(cfg.n, cfg.c, cfg.C)
    if cfg.n == 2:
        return math.inf if B <= 0.5 * cfg.A else 0.0
    return (0.5 * cfg.A / B) ** (1.0 / (cfg.n - 2))


def opened_hole_drop(cfg):
    """Guaranteed area drop once the hole is opened wide, to radius R.

    Returns 2*c*R^n - 2*C*h*R^(n-1), which stays at least c*R^n whenever
    h <= c*R/(2C): a loss depending on R but not on h.
    """
    h_cap = min(quadratic_threshold(cfg), cfg.c * cfg.R / (2.0 * cfg.C))
    if cfg.h > h_cap:
        raise RegimeViolation(
            "h=%g exceeds the admissible cap %.3e for R=%g" % (cfg.h, h_cap, cfg.R)
        )
    return 2.0 * cfg.c * cfg.R ** cfg.n - 2.0 * cfg.C * cfg.h * cfg.R ** (cfg.n - 1)


@dataclass(frozen=True)
class NeckCostCurve:
    t_grid: np.ndarray
    cost: np.ndarray
    t_star: float
    max_cost: float


def neck_cost_curve(cfg, t_grid=None):
    """Sampled cost profile 2*C*h*t^(n-1) - 2*c*t^n with its closed-form peak."""
    t_star = optimal_neck_radius(cfg)
    if t_grid is None:
        t_grid = np.linspace(0.0, 3.0 * t_star, 1201)
    t_grid = np.asarray(t_grid, dtype=float)
    cost = 2.0 * cfg.C * cfg.h * t_grid ** (cfg.n - 1) - 2.0 * cfg.c * t_grid ** cfg.n
    return NeckCostCurve(
        t_grid=t_grid,
        cost=cost,
        t_star=t_star,
        max_cost=cost_coefficient(cfg.n, cfg.c, cfg.C) * cfg.h ** cfg.n,
    )


def cost_exponent_fit(n, c=1.0, C=1.0, A=1.0, h_grid=(1e-1, 1e-2, 1e-3, 1e-4)):
    """Least-squares slope of log max-cost against log h; should read back n."""
    hs = np.asarray(h_grid, dtype=float)
    costs = [
        max_neck_cost(NeckScalingConfig(n=n, c=c, C=C, A=A, h=float(h))) for h in hs
    ]
    return float(np.polyfit(np.log(hs), np.log(costs), 1)[0])

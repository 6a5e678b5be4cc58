"""Catenoid boundary-value problem between two coaxial unit-spaced circles.

A catenoid spanning the circles of radius r at heights +-h has profile
f(x) = c*cosh(x/c); admissible c solve r = c*cosh(h/c).  In the variable
x = h/c this becomes cosh(x) = lam*x with lam = r/h, which has two roots
(or none) depending on whether lam exceeds the tangency slope.  The larger
x root gives the smaller, unstable neck; the smaller x root the stable one.
The tangency abscissa (a literal: the double that bisection reaches) and
the critical ratio h/r, past which no catenoid spans the circles, are
module constants.  Both roots are found by one bisection loop.
"""

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, NoCatenoid, NonConvergence

TOL_ROOT = 1e-10     # relative residual demanded of c*cosh(h/c) = r

# separations 0.1*2^-k down to 1e-6 (17 points) on which the estimate
# is checked; halving is exact, so the points are bit-identical however built
HALVING_GRID = tuple(0.1 * 0.5 ** k for k in range(17))

_TWO_PI = 2.0 * math.pi

# largest circle radius: a catenoid's area is 2*pi*(r*sqrt(r^2 - c^2) + h*c),
# below 2*pi*r^2*(1 + h/r), and h/r stays under the critical ratio 0.663,
# so every area stays below 4*pi*r^2, which must be a finite double
R_MAX = math.sqrt(sys.float_info.max / (4.0 * math.pi))
# smallest circle radius: areas scale like r^2, which must be a normal double
R_MIN = math.sqrt(sys.float_info.min)

_LOG_2 = math.log(2.0)


def _log_cosh(x):
    # log(cosh x) evaluated without overflow; math.cosh dies near x = 710
    return x + math.log1p(math.exp(-2.0 * x)) - _LOG_2


# root x0 of x*tanh(x) = 1, where the line lam*x first touches cosh(x) (the
# double, which bisection on [1, 2] down to adjacent doubles reaches), and
# the largest h/r for which the two-circle catenoid problem is solvable
TANGENCY_ABSCISSA = 1.199678640257734
CRITICAL_RATIO = 1.0 / math.sinh(TANGENCY_ABSCISSA)


@dataclass(frozen=True)
class CatenoidSpec:
    """Two coaxial circles of radius r at heights -h and +h."""

    r: float
    h: float

    def __post_init__(self):
        bad = ["%s = %s" % (name, v) for name, v in (("r", self.r), ("h", self.h)) if not v > 0.0]
        if bad:
            raise DomainError(
                "circle radius and half-separation must be positive, got " + ", ".join(bad)
            )
        if not self.r <= R_MAX:
            raise DomainError("circle radius r = %s exceeds %.6g, past which the areas overflow"
                              % (self.r, R_MAX))
        if not self.r >= R_MIN:
            raise DomainError("circle radius r = %s is below %.6g, where r^2 is no normal double"
                              % (self.r, R_MIN))


@dataclass(frozen=True)
class CatenoidSolution:
    c_unstable: float
    c_stable: float
    area_unstable: float
    area_stable: float


def solve_parameters(spec):
    """Both roots of r = c*cosh(h/c) with their areas.

    Raises NoCatenoid when h/r exceeds the critical ratio and only the
    two-disk competitor remains.  Works in x = h/c throughout: the residual
    g(x) = log cosh(x) - log(lam*x) is monotone-free of overflow for any x.
    """
    r, h = spec.r, spec.h
    if h / r < sys.float_info.min:
        # past here r/h overflows, or h/r has lost the bits the roots need
        raise DomainError(
            "h/r = %.6g is below the smallest normal double %.6g"
            % (h / r, sys.float_info.min)
        )
    lam = r / h
    if h / r > CRITICAL_RATIO + 1e-12:
        raise NoCatenoid("h/r = %.6g exceeds the critical ratio %.6g" % (h / r, CRITICAL_RATIO))

    log_lam = math.log(lam)

    def g(x):
        return _log_cosh(x) - log_lam - math.log(x)

    # split point: where the slope of cosh matches lam
    x_split = math.asinh(lam)
    if g(x_split) >= 0.0:
        # tangency (up to rounding): both roots coincide
        x_small = x_large = x_split
    else:
        hi = 2.0 * x_split
        while g(hi) < 0.0:
            hi *= 2.0
            if hi > 1e6:
                raise NonConvergence("no sign change found for the outer root")
        # g changes sign on each bracket and has the sign given at its lower
        # end, given since g(lo) may round wrongly: g(1/lam) = log
        # cosh(1/lam) > 0, but below the rounding of log(lam) + log(x) once
        # h/r is under ~1e-7.  Each root is the midpoint once it rounds to
        # an end, when lo and hi are adjacent doubles; no fixed count of
        # halvings suffices, as the stable root x ~ h/r can sit about a
        # thousand halvings below the bracket top.  g is written out in the
        # loop, the same operations in the same order, since the loop runs
        # thousands of times a scan.
        roots = []
        for lo, hi, sign_lo in ((1.0 / lam, x_split, 1.0), (x_split, hi, -1.0)):
            while True:
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                if (mid + math.log1p(math.exp(-2.0 * mid)) - _LOG_2 - log_lam
                        - math.log(mid)) * sign_lo > 0.0:
                    lo = mid
                else:
                    hi = mid
            roots.append(mid)
        x_small, x_large = roots

    c_unstable = h / x_large
    c_stable = h / x_small
    for c in (c_unstable, c_stable):
        residual = abs(math.exp(math.log(c) + _log_cosh(h / c)) - r)
        if residual > TOL_ROOT * r:
            raise NonConvergence(
                "root residual %.3e exceeds %.1e * r" % (residual, TOL_ROOT)
            )

    return CatenoidSolution(
        c_unstable=c_unstable,
        c_stable=c_stable,
        area_unstable=_area_on_root(r, h, c_unstable),
        area_stable=_area_on_root(r, h, c_stable),
    )


def _area_on_root(r, h, c):
    # On a BVP root, r^2 - c^2 = c^2*sinh^2(h/c) exactly, which sidesteps the
    # catastrophic subtraction when c rounds to r (stable branch at tiny h).
    x = h / c
    if x > 30.0:
        c_sinh = math.exp(math.log(c) + _log_cosh(x))  # sinh = cosh to 1e-26 here
    else:
        c_sinh = c * math.sinh(x)
    return _TWO_PI * (r * c_sinh + h * c)


def excess_over_disks(r, h, c):
    """Catenoid area minus the two-disk area 2*pi*r^2, evaluated stably.

    The direct subtraction loses every significant digit once the excess
    drops below float eps * 2*pi*r^2 (h around 1e-6 and smaller), so the
    difference is rearranged into a cancellation-free product form.  It is
    evaluated in units of r and scaled back by r^2: r*c*c itself overflows
    from r of about 5e102.
    """
    y = c / r
    root = _neck_root(r, c) / r
    return _TWO_PI * (h / r * y - y * y / (1.0 + root)) * r * r


def excess_over_disks_scaled(r, h, c):
    """excess_over_disks(r, h, c) / h^2, in the same product form in y = c/h.

    The excess is of order h^2/(-log h) and underflows to 0 from h of about
    1e-161 down; this quotient stays of order 1/(-log h) for every h that
    solve_parameters accepts.
    """
    root = _neck_root(r, c)
    y = c / h
    return _TWO_PI * (y - r * y * y / (r + root))


def _neck_root(r, c):
    # sqrt(r^2 - c^2), defined for a neck strictly inside the circles
    if not (0.0 < c < r):
        raise DomainError("need 0 < c < r, got c=%g, r=%g" % (c, r))
    return math.sqrt(r * r - c * c)

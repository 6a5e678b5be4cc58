"""Catenoid root solver and area estimate tests.

Expected values were frozen from an independent oracle (scipy brentq on the
transcendental equation plus adaptive quadrature for areas) before the
module was written; tolerances reflect the oracle's own precision.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from catsweep.catenoid import (
    CRITICAL_RATIO,
    HALVING_GRID,
    TANGENCY_ABSCISSA,
    TOL_ROOT,
    CatenoidSpec,
    excess_over_disks,
    excess_over_disks_scaled,
    solve_parameters,
    stable_neck,
    unstable_neck,
)
from catsweep import acceptance
from catsweep.acceptance import catenoid_scan
from catsweep.errors import DomainError, NoCatenoid
from reference_geometry import bisect_root, catenoid_roots

TWO_PI = 2.0 * math.pi

# brentq on x*tanh(x) - 1 over [1, 2]
X_TANGENT = 1.199678640257734
RHO_STAR = 0.6627434193491815

# (r, h) -> (c_unstable, c_stable, area_unstable, area_stable), brentq oracle
SOLUTION_TABLE = {
    (1.0, 0.1): (0.02222421500725973, 0.9949704937519076, 6.295597319614625, 1.254535275184989),
    (1.0, 0.3): (0.1003411682239323, 0.9523567777217989, 6.440613278353348, 3.711434897704093),
    (1.0, 0.5): (0.2350949902345327, 0.848337938094979, 6.845655394310629, 5.991796975802281),
    (2.0, 0.8): (0.3159247944213618, 1.821475988547576, 26.40521410403278, 19.53517280772458),
    (0.5, 0.2): (0.07898119860534046, 0.455368997136894, 1.650325881502049, 1.220948300482786),
}

# h -> c_unstable * (-log h) / h on the decade grid, brentq oracle
RATIO_TABLE = [
    (1e-2, 0.63223124),
    (1e-3, 0.69826798),
    (1e-4, 0.74139181),
    (1e-5, 0.77226655),
    (1e-6, 0.79568687),
    (1e-7, 0.81417842),
    (1e-8, 0.82921593),
]


def test_tangency_constants():
    assert abs(TANGENCY_ABSCISSA - X_TANGENT) < 1e-12
    assert abs(CRITICAL_RATIO - RHO_STAR) < 1e-12
    # defining property of the tangency point
    x = TANGENCY_ABSCISSA
    assert abs(x * math.tanh(x) - 1.0) < 1e-12


def test_tangency_abscissa_is_the_bisected_double():
    # the literal is the double that bisection of x tanh x - 1 on [1, 2] reaches
    assert TANGENCY_ABSCISSA == bisect_root(lambda x: x * math.tanh(x) - 1.0, 1.0, 2.0, -1.0)


def _log_uniform_h(count):
    # count h/r drawn log-uniformly from [1e-300, CRITICAL_RATIO), seeded
    rng = random.Random(41)
    lo, hi = math.log(1e-300), math.log(CRITICAL_RATIO)
    return [math.exp(rng.uniform(lo, hi)) for _ in range(count)]


@pytest.mark.parametrize("grid", ["halving", "decades", "critical", "log-uniform"])
def test_roots_equal_the_closure_bisection(grid):
    # each neck, bisected alone, and both solved together against the
    # closure-based bisection the inline loop replaced, root for root and
    # bit for bit: on the halving grid, on the decades down to 1e-300,
    # within 1e-12 of the critical ratio (the tangency branch, where both
    # roots are the split point) and on 2,000 log-uniform h/r
    if grid == "halving":
        cases = [(1.0, h) for h in HALVING_GRID]
    elif grid == "decades":
        cases = [(1.0, 10.0 ** -k) for k in range(1, 301)]
    elif grid == "critical":
        cases = [(r, (CRITICAL_RATIO + d) * r) for r in (1.0, 3.0)
                 for d in (-1e-12, -1e-13, 0.0, 1e-13, 1e-12)]
    else:
        cases = [(1.0, h) for h in _log_uniform_h(2000)]
    for r, h in cases:
        spec = CatenoidSpec(r=r, h=h)
        sol = solve_parameters(spec)
        x_small, x_large = catenoid_roots(r, h)
        expected = (h / x_small, h / x_large)
        assert (sol.c_stable, sol.c_unstable) == expected
        assert (stable_neck(spec), unstable_neck(spec)) == expected


def test_tangency_case_roots_coincide():
    sol = solve_parameters(CatenoidSpec(r=1.0, h=RHO_STAR))
    assert abs(sol.c_unstable - sol.c_stable) < 1e-6


def test_solution_table():
    for (r, h), (cu, cs, au, a_s) in SOLUTION_TABLE.items():
        sol = solve_parameters(CatenoidSpec(r=r, h=h))
        assert sol.c_unstable == pytest.approx(cu, rel=1e-10)
        assert sol.c_stable == pytest.approx(cs, rel=1e-10)
        assert sol.area_unstable == pytest.approx(au, rel=1e-10)
        assert sol.area_stable == pytest.approx(a_s, rel=1e-10)


def test_small_h_neck_parameter():
    # x = h/c near 4.50 solves cosh(x) = 10 x
    sol = solve_parameters(CatenoidSpec(r=1.0, h=0.1))
    x = 0.1 / sol.c_unstable
    assert abs(math.cosh(x) - 10.0 * x) < 1e-8
    assert x == pytest.approx(4.4996, abs=1e-3)


def test_stable_root_below_rounding_of_bracket_end():
    # h values where g(1/lam) = log cosh(1/lam) ~ h^2/2 once rounded negative
    # and the stable-root bisection walked off to the split point
    r = 1.0
    for h in (1.9839376736554745e-08, 4.820989230850174e-10, 1e-29, 1e-32):
        sol = solve_parameters(CatenoidSpec(r=r, h=h))
        for c in (sol.c_unstable, sol.c_stable):
            assert abs(c * math.cosh(h / c) - r) <= TOL_ROOT * r
        assert sol.c_stable == pytest.approx(r, rel=1e-12)
        # large root by fixed-point iteration of x = log(2r/h) + log x
        x = math.log(2.0 * r / h)
        for _ in range(100):
            x = math.log(2.0 * r / h) + math.log(x)
        big_l = -math.log(h)
        ratio = sol.c_unstable * big_l / h
        assert ratio == pytest.approx(big_l / x, rel=1e-12)


def _residual(r, h, c):
    # |c cosh(h/c) - r|; past x = 30, log cosh x = x - log 2 to 1e-26, and
    # the log form keeps cosh from overflowing near x = 710
    x = h / c
    if x < 30.0:
        return abs(c * math.cosh(x) - r)
    return abs(math.exp(math.log(c) + x - math.log(2.0)) - r)


def test_decade_grid_down_to_the_normal_range():
    # the stable root x ~ h/r sits ~1000 halvings below the bracket top at
    # h = 1e-307; a fixed halving count ran out from h = 1e-49 on
    r = 1.0
    for k in range(1, 308):
        h = 10.0 ** -k
        sol = solve_parameters(CatenoidSpec(r=r, h=h))
        for c in (sol.c_unstable, sol.c_stable):
            assert _residual(r, h, c) <= TOL_ROOT * r


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    r=st.floats(min_value=1e-3, max_value=1e3),
    gap=st.floats(min_value=1e-15, max_value=1e-9),
)
def test_roots_near_the_critical_ratio(r, gap):
    h = (CRITICAL_RATIO - gap) * r
    sol = solve_parameters(CatenoidSpec(r=r, h=h))
    for c in (sol.c_unstable, sol.c_stable):
        assert _residual(r, h, c) <= TOL_ROOT * r
    assert sol.c_unstable <= sol.c_stable
    assert sol.area_stable <= sol.area_unstable * (1.0 + 1e-15)


def test_residual_and_ordering_invariants():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        r = float(rng.uniform(0.2, 3.0))
        h = float(rng.uniform(0.05, 0.95) * (CRITICAL_RATIO - 1e-6) * r)
        sol = solve_parameters(CatenoidSpec(r=r, h=h))
        for c in (sol.c_unstable, sol.c_stable):
            assert abs(c * math.cosh(h / c) - r) <= 1e-10 * r
        assert 0.0 < sol.c_unstable < sol.c_stable < r


def test_area_matches_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = float(rng.uniform(0.5, 2.0))
        h = float(rng.uniform(0.1, 0.9) * CRITICAL_RATIO * r)
        sol = solve_parameters(CatenoidSpec(r=r, h=h))
        for c, a in ((sol.c_unstable, sol.area_unstable), (sol.c_stable, sol.area_stable)):
            q, _ = quad(lambda x: TWO_PI * c * math.cosh(x / c) ** 2, -h, h, limit=200)
            assert a == pytest.approx(q, rel=1e-8)


def test_scale_equivariance_of_roots():
    rng = np.random.default_rng(99)
    base = solve_parameters(CatenoidSpec(r=1.0, h=0.3))
    for _ in range(20):
        s = float(rng.uniform(0.01, 100.0))
        scaled = solve_parameters(CatenoidSpec(r=s, h=0.3 * s))
        assert scaled.c_unstable == pytest.approx(s * base.c_unstable, rel=1e-10)
        assert scaled.c_stable == pytest.approx(s * base.c_stable, rel=1e-10)


def test_two_disk_limit():
    # the unstable branch approaches the two-disk area 2*pi*r^2 as h -> 0
    sol = solve_parameters(CatenoidSpec(r=1.0, h=1e-6))
    assert abs(sol.area_unstable - TWO_PI) < 1e-10


def test_no_catenoid_past_critical_ratio():
    with pytest.raises(NoCatenoid):
        solve_parameters(CatenoidSpec(r=1.0, h=0.7))


def test_spec_validation():
    with pytest.raises(DomainError, match="got r = -1.0$"):
        CatenoidSpec(r=-1.0, h=0.1)
    with pytest.raises(DomainError, match="got h = 0.0$"):
        CatenoidSpec(r=1.0, h=0.0)


def test_estimate_bound_dominates_on_grid():
    # the total area under 2*pi*r^2 + 4*pi*h^2/(-log h), the estimate unscaled
    h = 0.1
    while h >= 1e-6:
        sol = solve_parameters(CatenoidSpec(r=1.0, h=h))
        assert sol.area_unstable <= TWO_PI + 4.0 * math.pi * h * h / (-math.log(h))
        h *= 0.5


def test_empirical_threshold_is_grid_top():
    rep = catenoid_scan(1.0)
    assert rep.summary["h_threshold"] == HALVING_GRID[0]
    # the excess over the estimate, 0.227 at h = 0.1 rising to 0.384 at
    # the grid's smallest h
    assert [row["t"] for row in rep.rows] == sorted(HALVING_GRID)
    assert 0.2 < rep.rows[-1]["area"] < rep.rows[0]["area"] < 0.4


def test_threshold_is_the_last_row_of_the_passing_run(monkeypatch):
    # excesses quadrupled above h = 0.01 fail the estimate there only
    real = acceptance.excess_over_disks_scaled
    monkeypatch.setattr(
        acceptance,
        "excess_over_disks_scaled",
        lambda r, h, c: real(r, h, c) * (4.0 if h > 0.01 else 1.0),
    )
    rep = catenoid_scan(1.0)
    assert rep.summary["passed"] is False
    assert rep.summary["h_threshold"] == HALVING_GRID[4] == 0.00625


def test_excess_stable_form():
    # agrees with the naive subtraction where that is still accurate
    sol = solve_parameters(CatenoidSpec(r=1.0, h=0.1))
    naive = sol.area_unstable - TWO_PI
    assert excess_over_disks(1.0, 0.1, sol.c_unstable) == pytest.approx(naive, rel=1e-9)
    # and stays meaningful where the subtraction has lost every digit
    sol6 = solve_parameters(CatenoidSpec(r=1.0, h=1e-6))
    ex = excess_over_disks(1.0, 1e-6, sol6.c_unstable)
    assert ex == pytest.approx(3.514513e-13, rel=1e-5)
    # sharpened-constant check: excess <= 2*pi*(1 + 0.5)*h^2/(-log h) at h = 1e-6
    assert ex <= TWO_PI * 1.5 * 1e-12 / (-math.log(1e-6))


def test_scaled_excess_survives_underflow():
    # equal to excess / h^2 where the excess is a normal double
    for h in (0.1, 1e-6, 1e-100):
        c = solve_parameters(CatenoidSpec(r=1.0, h=h)).c_unstable
        assert excess_over_disks_scaled(1.0, h, c) == pytest.approx(
            excess_over_disks(1.0, h, c) / (h * h), rel=1e-12
        )
    # and of order 1/(-log h) where the excess itself underflows to 0
    for h in (1e-200, 1e-300):
        c = solve_parameters(CatenoidSpec(r=1.0, h=h)).c_unstable
        assert excess_over_disks(1.0, h, c) == 0.0
        scaled = excess_over_disks_scaled(1.0, h, c)
        assert 0.5 * TWO_PI / (-math.log(h)) < scaled <= 4.0 * math.pi / (-math.log(h))
    with pytest.raises(DomainError):
        excess_over_disks_scaled(1.0, 0.1, 1.0)


def test_asymptotic_ratio_scan():
    # the neck parameter against its asymptote: c_unstable*(-log h)/h,
    # the ratio criterion 2 reads
    necks = [solve_parameters(CatenoidSpec(r=1.0, h=h)).c_unstable for h, _ in RATIO_TABLE]
    got = [c * (-math.log(h)) / h for c, (h, _) in zip(necks, RATIO_TABLE)]
    for val, (_, expect) in zip(got, RATIO_TABLE):
        assert val == pytest.approx(expect, abs=1e-6)
    # the gap to the limit shrinks monotonically along the grid
    gaps = [abs(v - 1.0) for v in got]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    # every row also keeps the bound ordering; compare excesses over the
    # two-disk area since below h ~ 1e-7 both sides round to 2*pi itself
    for c, (h, _) in zip(necks, RATIO_TABLE):
        assert excess_over_disks(1.0, h, c) <= 4.0 * math.pi * h ** 2 / (-math.log(h))

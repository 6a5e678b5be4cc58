"""Neck-cost scaling tests; oracle values from dense grid scans and polyfit."""

import numpy as np
import pytest

from catsweep.acceptance import NECK_H_GRID, neck_cost_coefficient, neck_fit
from catsweep.errors import DomainError


def brute_argmax(n, h):
    t = np.linspace(1e-9, 0.5, 400_001)
    vals = 2 * h * t ** (n - 1) - 2 * t ** n
    i = int(np.argmax(vals))
    return float(t[i]), float(vals[i])


def test_optimal_radius_matches_grid_scan():
    # the peak cost is the cost at the closed-form radius (n-1)h/n
    for n in range(2, 7):
        t_scan, v_scan = brute_argmax(n, 0.01)
        assert abs((n - 1) * 0.01 / n - t_scan) < 2 * 0.5 / 400_000
        assert neck_cost_coefficient(n) * 0.01 ** n == pytest.approx(v_scan, rel=1e-6)


def test_closed_form_values():
    assert neck_cost_coefficient(3) == pytest.approx(8.0 / 27.0, rel=1e-14)
    assert neck_cost_coefficient(3) * 0.01 ** 3 == pytest.approx((8.0 / 27.0) * 1e-6, rel=1e-14)


def test_exponent_fits():
    for n in range(3, 7):
        assert neck_fit(n).rows[0]["exponent"] == pytest.approx(float(n), abs=0.01)
    # critical dimension: cost scales like the gain
    assert neck_fit(2).rows[0]["exponent"] == pytest.approx(2.0, abs=0.01)


def test_cost_power_scaling():
    for n in range(3, 7):
        a = neck_cost_coefficient(n) * 0.004 ** n
        b = neck_cost_coefficient(n) * 0.008 ** n
        assert b / a == pytest.approx(2.0 ** n, rel=1e-12)


def test_cost_stays_under_the_quadratic_gain():
    # no h of the fit leaves the regime where the cost hides under the
    # gain h^2/2, so the fit needs no guard
    for n in range(3, 7):
        for h in NECK_H_GRID:
            assert neck_cost_coefficient(n) * h ** n < 0.5 * h ** 2


def test_n2_negative_control():
    # at n = 2 the cost B_2 h^2 = h^2/2 equals the gain at every h
    assert neck_cost_coefficient(2) == 0.5
    for h in NECK_H_GRID:
        assert neck_cost_coefficient(2) * h ** 2 == 0.5 * h ** 2


def test_curve_shape():
    h = 0.02
    t_star = 3.0 * h / 4.0
    t = np.linspace(0.0, 3.0 * t_star, 1201)
    cost = 2.0 * h * t ** 3 - 2.0 * t ** 4
    # the sampled peak is interior, so the grid brackets the true maximum
    i = int(np.argmax(cost))
    assert 0 < i < len(t) - 1
    assert t[i] == pytest.approx(t_star, abs=float(t[1] - t[0]))
    assert neck_cost_coefficient(4) * h ** 4 == pytest.approx(float(np.max(cost)), rel=1e-5)


def test_config_validation():
    for n in (1, 7, 2.5):
        with pytest.raises(DomainError, match=r"integer in \[2, 6\]"):
            neck_fit(n)

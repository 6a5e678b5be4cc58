"""Neck-cost scaling tests; oracle values from dense grid scans and polyfit."""

import numpy as np
import pytest

from catsweep.errors import DomainError, RegimeViolation
from catsweep.neckscaling import (
    NeckScalingConfig,
    cost_coefficient,
    cost_exponent_fit,
    max_neck_cost,
)


def brute_argmax(n, c, C, h):
    t = np.linspace(1e-9, 0.5, 400_001)
    vals = 2 * C * h * t ** (n - 1) - 2 * c * t ** n
    i = int(np.argmax(vals))
    return float(t[i]), float(vals[i])


def test_optimal_radius_matches_grid_scan():
    # the peak cost is the cost at the closed-form radius C(n-1)h/(cn)
    for n in range(2, 7):
        cfg = NeckScalingConfig(n=n, h=0.01)
        t_scan, v_scan = brute_argmax(n, 1.0, 1.0, 0.01)
        assert abs((n - 1) * 0.01 / n - t_scan) < 2 * 0.5 / 400_000
        assert max_neck_cost(cfg) == pytest.approx(v_scan, rel=1e-6)


def test_closed_form_values():
    cfg = NeckScalingConfig(n=3, h=0.01)
    assert cost_coefficient(3) == pytest.approx(8.0 / 27.0, rel=1e-14)
    assert max_neck_cost(cfg) == pytest.approx((8.0 / 27.0) * 1e-6, rel=1e-14)


def test_exponent_fits():
    for n in range(3, 7):
        assert cost_exponent_fit(n) == pytest.approx(float(n), abs=0.01)
    # critical dimension: cost scales like the gain
    assert cost_exponent_fit(2) == pytest.approx(2.0, abs=0.01)


def test_cost_power_scaling():
    for n in range(3, 7):
        a = max_neck_cost(NeckScalingConfig(n=n, h=0.004))
        b = max_neck_cost(NeckScalingConfig(n=n, h=0.008))
        assert b / a == pytest.approx(2.0 ** n, rel=1e-12)


def test_quadratic_regime_threshold():
    # largest h with B*h^3 <= (A/2)h^2 at n = 3: (A/2)/B = 27/16
    h0 = 27.0 / 16.0
    # below the threshold the cost hides under the gain; above it the guard fires
    ok = NeckScalingConfig(n=3, h=0.9 * h0)
    assert max_neck_cost(ok) <= 0.5 * ok.A * ok.h ** 2
    with pytest.raises(RegimeViolation):
        max_neck_cost(NeckScalingConfig(n=3, h=1.1 * h0))


def test_n2_negative_control():
    # with B > A/2 there is no admissible h at all: scan a geometric grid
    for h in [0.1 * 2.0 ** -k for k in range(20)]:
        with pytest.raises(RegimeViolation):
            max_neck_cost(NeckScalingConfig(n=2, c=1.0, C=2.0, A=1.0, h=h))
    # the marginal default B = A/2 passes with equality
    assert max_neck_cost(NeckScalingConfig(n=2, h=0.3)) == pytest.approx(
        0.5 * 0.3 ** 2, rel=1e-14
    )


def test_curve_shape():
    cfg = NeckScalingConfig(n=4, h=0.02)
    t_star = 3.0 * 0.02 / 4.0
    t = np.linspace(0.0, 3.0 * t_star, 1201)
    cost = 2.0 * cfg.C * cfg.h * t ** 3 - 2.0 * cfg.c * t ** 4
    # the sampled peak is interior, so the grid brackets the true maximum
    i = int(np.argmax(cost))
    assert 0 < i < len(t) - 1
    assert t[i] == pytest.approx(t_star, abs=float(t[1] - t[0]))
    assert max_neck_cost(cfg) == pytest.approx(float(np.max(cost)), rel=1e-5)


def test_config_validation():
    with pytest.raises(DomainError):
        NeckScalingConfig(n=7)
    with pytest.raises(DomainError):
        NeckScalingConfig(n=3, c=2.0, C=1.0)
    with pytest.raises(DomainError):
        NeckScalingConfig(n=3, h=-0.1)

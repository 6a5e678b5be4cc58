"""Planted defects each acceptance criterion must catch.

Each test plants one named defect by monkeypatching a package function,
with no hook in the package, and asserts that the criterion's verdict
turns to FAIL.  A criterion no planted defect can fail certifies nothing.
Where the criterion reads a command's report, the command exits 2 too.
"""

import dataclasses
import math

import numpy as np
import pytest

from catsweep import acceptance, cli, doubling


def _stable_root(monkeypatch):
    # the stable catenoid reported in place of the unstable one
    real = acceptance.solve_parameters

    def swapped(spec):
        sol = real(spec)
        return dataclasses.replace(
            sol, c_unstable=sol.c_stable, area_unstable=sol.area_stable
        )

    monkeypatch.setattr(acceptance, "solve_parameters", swapped)


def test_criterion_1_fails_on_the_stable_root(monkeypatch, capsys):
    _stable_root(monkeypatch)
    res = acceptance.run_criterion(1)
    assert not res.ok
    assert "NonConvergence" in res.detail and "not the unstable catenoid" in res.detail
    assert cli.run(["catenoid", "solve", "--r", "1", "--h", "0.1"]) == 2
    assert capsys.readouterr().err.startswith("verification failure:")


def test_criterion_1_fails_on_a_wide_neck(monkeypatch):
    # a neck three times too wide: the ratio grows as h falls and passes 1
    # below h ~ 5e-5, so no grid point starts a passing run from the bottom
    real = acceptance.solve_parameters

    def widened(spec):
        sol = real(spec)
        return dataclasses.replace(sol, c_unstable=3.0 * sol.c_unstable)

    monkeypatch.setattr(acceptance, "solve_parameters", widened)
    res = acceptance.run_criterion(1)
    assert not res.ok
    assert "estimate fails at the smallest grid h" in res.detail


@pytest.mark.parametrize("factor, gap", [(1.05, "4.80e-02"), (0.95, "5.80e-02")])
def test_criterion_2_fails_on_a_neck_five_percent_off(monkeypatch, factor, gap):
    # the ratio c*(-log h)/h leaves the two-term law L/(L + log(2rL)) by
    # about the factor, five times the law's tolerance
    real = acceptance.solve_parameters

    def scaled(spec):
        sol = real(spec)
        return dataclasses.replace(sol, c_unstable=factor * sol.c_unstable)

    monkeypatch.setattr(acceptance, "solve_parameters", scaled)
    res = acceptance.run_criterion(2)
    assert not res.ok
    assert "two-term law gap %s" % gap in res.detail


def test_criterion_3_fails_on_a_width_excess_six_percent_low(monkeypatch):
    # 6% of the excess is 4.9e-3 of the total area at h = 0.5: a check of
    # the total area at 5e-3 would pass it
    real = acceptance.mountain_pass_width

    def low(r, h):
        res = real(r, h)
        disks = 2.0 * math.pi * r * r
        return dataclasses.replace(res, width=disks + 0.94 * (res.width - disks))

    monkeypatch.setattr(acceptance, "mountain_pass_width", low)
    assert not acceptance.run_criterion(3).ok
    assert cli.run(["width", "run", "--h", "0.5"]) == 2


def test_criterion_5_fails_on_gradient_terms_five_percent_high(monkeypatch, capsys):
    # the constant mode has no gradient and cannot see it; the invariant
    # mode cos 2theta + cos 2phi reads +9.6e-2 against 4*pi^2
    real = acceptance.sheet_elements

    def steep(f, f_theta2, f_phi2):
        return real(f, 1.05 * f_theta2, 1.05 * f_phi2)

    monkeypatch.setattr(acceptance, "sheet_elements", steep)
    res = acceptance.run_criterion(5)
    assert not res.ok
    assert "(rel 8.33e-04)" in res.detail and "(rel 9.6" in res.detail
    assert cli.run(["fermi", "quad"]) == 2
    assert "result: FAIL" in capsys.readouterr().out


def test_criterion_7_fails_on_a_cutoff_linear_in_distance(monkeypatch, capsys):
    # the same 0-to-1 ramp over [t^2, t], linear in the distance rather
    # than in its log: the disk energy is no longer 2*pi/(-log t)
    monkeypatch.setattr(
        acceptance, "log_cutoff", lambda dist, t: np.clip((dist - t * t) / (t - t * t), 0.0, 1.0)
    )
    res = acceptance.run_criterion(7)
    assert not res.ok
    assert "disk energy rel errors 1.33e+00, 2.44e+00" in res.detail
    assert cli.run(["cutoff", "disk", "--t", "0.01"]) == 2
    assert "result: FAIL" in capsys.readouterr().out


def test_criterion_9_fails_on_a_wrong_genus(monkeypatch):
    # the witness slice of genus m^2 + 1 reads chi + 2, one handle short
    real = doubling.euler_characteristic
    monkeypatch.setattr(doubling, "euler_characteristic", lambda tris: real(tris) + 2)
    res = acceptance.run_criterion(9)
    assert not res.ok
    assert "m=2 margin" in res.detail and "chi -6/-8" in res.detail


def test_criterion_9_fails_on_tripled_tubes(monkeypatch):
    # the paired rows' tube area tripled stays under the budget, but the
    # witness mesh then reads 1.6e-3 (m = 2) and 4.0e-3 (m = 3) below it
    real = doubling.tube_area
    monkeypatch.setattr(doubling, "tube_area", lambda t, radius: 3.0 * real(t, radius))
    res = acceptance.run_criterion(9)
    assert not res.ok
    assert "witness mesh excess -1.6e-03" in res.detail

"""Planted defects each acceptance criterion must catch.

Each test plants one named defect by monkeypatching a package function,
with no hook in the package, and asserts that the criterion's verdict
turns to FAIL.  A criterion no planted defect can fail certifies nothing.
"""

from catsweep import acceptance, doubling


def test_criterion_9_fails_on_a_wrong_genus(monkeypatch):
    # the witness slice of genus m^2 + 1 reads chi + 2, one handle short
    real = doubling.euler_characteristic
    monkeypatch.setattr(doubling, "euler_characteristic", lambda tris: real(tris) + 2)
    res = acceptance.run_criterion(9)
    assert not res.ok
    assert "m=2 margin" in res.detail and "chi -6/-8" in res.detail

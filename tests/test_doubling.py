import math
from collections import Counter

import numpy as np
import pytest
from scipy.spatial import cKDTree

from catsweep import fermi
from catsweep.doubling import (
    DoubledSlice,
    GroupElement,
    NeckSchedule,
    S3Point,
    assemble_doubled_sweepout,
    cmc_area,
    default_resolution,
    default_schedule,
    doubled_slice,
    grid_retraction,
    group_elements,
    group_orbit,
    handoff_offset,
    neck_arc_length,
    neck_curve,
    orbit_isotropy,
    tube_area,
)
from catsweep.errors import BudgetViolated, DomainError, RadiusTooLarge
from catsweep.mesh import mesh_area
from catsweep.surfaces import product_torus, torus_distances

BUDGET = 4.0 * math.pi ** 2


@pytest.fixture(scope="module")
def slice2():
    return doubled_slice(0.2, 2)


@pytest.fixture(scope="module")
def report2():
    return assemble_doubled_sweepout(2)


@pytest.fixture(scope="module")
def report3():
    return assemble_doubled_sweepout(3)


def test_point_validation():
    p = S3Point(complex(0.6, 0.0), complex(0.0, 0.8))
    assert np.allclose(p.as_vector(), [0.6, 0.0, 0.0, 0.8])
    q = S3Point.from_vector(p.as_vector())
    assert q == p
    with pytest.raises(DomainError):
        S3Point(1.0, 1.0)


def test_group_has_order_two_m_squared():
    for m in (2, 3):
        els = group_elements(m)
        assert len(els) == 2 * m * m
        assert len(set(els)) == 2 * m * m


def test_group_closure_and_inverses():
    els = group_elements(3)
    table = set(els)
    for g in els:
        assert any(g.compose(h) == GroupElement(3, 0, 0, False) for h in els)
        for h in els[:5]:
            assert g.compose(h) in table


def test_compose_matches_matrix_product():
    els = group_elements(3)
    rng = np.random.default_rng(5)
    for g in rng.choice(len(els), size=6):
        for h in rng.choice(len(els), size=6):
            a, b = els[int(g)], els[int(h)]
            prod = a.compose(b).matrix()
            assert np.allclose(prod, a.matrix() @ b.matrix(), atol=1e-12)


def test_apply_matches_matrix():
    p = S3Point(complex(0.3, 0.4), complex(0.5, math.sqrt(1 - 0.5)))
    for g in group_elements(2):
        assert np.allclose(g.apply(p).as_vector(), g.matrix() @ p.as_vector(), atol=1e-12)


def test_orbit_sizes():
    # a core-circle point is fixed by half the rotations' worth of elements
    assert len(group_orbit(2, S3Point(1.0, 0.0))) == 4
    generic = S3Point(complex(0.31, 0.4), complex(0.52, math.sqrt(1 - 0.31**2 - 0.4**2 - 0.52**2)))
    assert len(group_orbit(2, generic)) == 8
    assert len(group_orbit(3, generic)) == 18


def test_center_orbit_and_isotropy():
    for m in (2, 3):
        rt = 1.0 / math.sqrt(2.0)
        phase = complex(math.cos(math.pi / m), math.sin(math.pi / m))
        center = S3Point(rt * phase, rt * phase)
        orbit = group_orbit(m, center)
        iso = orbit_isotropy(m, center)
        assert len(orbit) == m * m
        assert len(orbit) * len(iso) == 2 * m * m


def test_neck_curve_endpoints():
    for m in (2, 3):
        top = neck_curve(0.0, m)
        phase = complex(math.cos(math.pi / m), math.sin(math.pi / m))
        assert abs(top.z - phase) < 1e-12 and abs(top.w) < 1e-12
        mid = neck_curve(0.5, m)
        assert abs(abs(mid.z) ** 2 - 0.5) < 1e-12
        assert abs(abs(mid.w) ** 2 - 0.5) < 1e-12
    p = neck_curve(0.3, 2)
    assert abs(abs(p.w) ** 2 - 0.3) < 1e-12
    with pytest.raises(DomainError):
        neck_curve(0.6, 2)
    with pytest.raises(DomainError):
        neck_curve(0.1, 1)


def test_neck_arc_length():
    assert abs(neck_arc_length(0.0) - 0.25 * math.pi) < 1e-15
    assert abs(neck_arc_length(0.5)) < 1e-12


def test_cmc_area_closed_forms():
    assert cmc_area(0.0) == 0.0
    assert cmc_area(1.0) == 0.0
    assert abs(cmc_area(0.5) - 2.0 * math.pi ** 2) < 1e-12
    assert abs(cmc_area(0.25) - 4.0 * math.pi ** 2 * math.sqrt(3.0) / 4.0) < 1e-12
    with pytest.raises(DomainError):
        cmc_area(-0.1)
    with pytest.raises(DomainError):
        cmc_area(1.1)


def test_cmc_slice_mesh_matches_closed_form():
    assert abs(mesh_area(product_torus(0.3)) / cmc_area(0.3) - 1.0) < 1e-4
    with pytest.raises(DomainError):
        product_torus(0.0)
    with pytest.raises(DomainError):
        product_torus(1.0)


def test_tube_area_slope_and_linear_vanish():
    arc = neck_arc_length(0.25)
    for r in (0.01, 0.005):
        exact = 2.0 * math.pi * math.sin(r) * math.cos(r) * arc
        assert abs(tube_area(0.25, r) / exact - 1.0) < 1e-3
    ratio = tube_area(0.25, 0.01) / tube_area(0.25, 0.005)
    assert abs(ratio - 2.0) < 0.02
    assert tube_area(0.5, 0.01) == 0.0


def test_tube_area_rejects_bad_input():
    with pytest.raises(RadiusTooLarge):
        tube_area(0.25, 0.2)
    with pytest.raises(DomainError):
        tube_area(0.25, 0.0)
    with pytest.raises(DomainError):
        tube_area(0.7, 0.01)


def test_schedule_validation():
    sched = default_schedule()
    close = 0.5 - sched.delta
    assert sched.eta(0.0) == 0.0
    assert sched.eta(close) == 0.0
    assert sched.eta(0.5) == 0.0
    assert 0.0 < sched.eta(0.5 * close) <= sched.epsilon
    with pytest.raises(DomainError):
        NeckSchedule(eta=lambda t: 0.01, delta=0.2, epsilon=0.01)
    with pytest.raises(DomainError):
        NeckSchedule(eta=lambda t: 0.0, delta=0.2, epsilon=0.01)
    with pytest.raises(DomainError):
        NeckSchedule(eta=lambda t: 0.0, delta=0.6, epsilon=0.01)
    with pytest.raises(DomainError):
        NeckSchedule(eta=lambda t: 0.0, delta=0.2, epsilon=-1.0)


def test_handoff_offset_matches_pair_area():
    # the torus pair at the closing parameter and the two-sided normal
    # offset of the middle torus have equal area exactly when the offset
    # satisfies cos(2 h) = sqrt(1 - 4 delta^2)
    for delta in (0.05, 0.16, 0.22):
        h = handoff_offset(delta)
        assert abs(math.cos(2.0 * h) - math.sqrt(1.0 - 4.0 * delta * delta)) < 1e-12
    with pytest.raises(DomainError):
        handoff_offset(0.5)


def test_default_resolution_divisible():
    for m in (2, 3, 4):
        assert default_resolution(m) % (2 * m) == 0


def test_doubled_slice_topology(slice2):
    # genus m^2 + 1 for the welded pair
    assert isinstance(slice2, DoubledSlice)
    assert slice2.chi == -8
    assert slice2.n_tubes == 4
    cnt = Counter()
    for tri in slice2.triangles:
        a, b, c = sorted(int(v) for v in tri)
        cnt[(a, b)] += 1
        cnt[(a, c)] += 1
        cnt[(b, c)] += 1
    assert set(cnt.values()) == {2}


def test_doubled_slice_topology_order_three():
    sl = doubled_slice(0.15, 3)
    assert sl.chi == -18


def test_doubled_slice_area_accounting(slice2):
    parts = slice2.area_parts
    assert abs(parts["tori"] + parts["collars"] + parts["tubes"] - slice2.area) < 1e-12
    assert all(v > 0.0 for v in parts.values())
    assert slice2.removed_disk_area > 0.0
    pair = 2.0 * cmc_area(0.2)
    assert abs(slice2.area / pair - 1.0) < 0.02


def test_doubled_slice_at_closing_parameter():
    sched = default_schedule()
    sl = doubled_slice(0.5 - sched.delta, 2)
    assert sl.stage == "pair"
    assert sl.chi == 0
    assert sl.n_tubes == 0


def test_doubled_slice_equivariance(slice2):
    bary = slice2.vertices[slice2.triangles].mean(axis=1)
    tree = cKDTree(bary)
    for g in group_elements(2):
        dist, _ = tree.query(bary @ g.matrix().T)
        assert dist.max() < 1e-9


def test_doubled_slice_rejects_bad_input():
    with pytest.raises(DomainError):
        doubled_slice(0.2, 1)
    with pytest.raises(DomainError):
        doubled_slice(0.2, 2, n=30)
    with pytest.raises(DomainError):
        doubled_slice(0.0, 2)
    with pytest.raises(DomainError):
        doubled_slice(0.45, 2)


def test_doubled_slice_radius_capacity_guard():
    sched = default_schedule()
    close = 0.5 - sched.delta
    fat = NeckSchedule(
        eta=lambda t: 0.06 if 0.0 < t < close else 0.0, delta=sched.delta, epsilon=0.06
    )
    with pytest.raises(RadiusTooLarge):
        doubled_slice(0.2, 2, schedule=fat)


def test_retraction_identity_and_range():
    p = S3Point(
        complex(math.cos(0.3), math.sin(0.3)) / math.sqrt(2.0),
        complex(math.cos(2.0), math.sin(2.0)) / math.sqrt(2.0),
    )
    q0 = grid_retraction(2, 0.0, p)
    assert np.linalg.norm(q0.as_vector() - p.as_vector()) < 1e-12
    q1 = grid_retraction(2, 1.0, p)
    half = 0.5 * math.pi
    th = math.atan2(q1.z.imag, q1.z.real) % math.pi
    ph = math.atan2(q1.w.imag, q1.w.real) % math.pi
    assert max(abs(th - half), abs(ph - half)) > half - 1e-9


def test_retraction_fixes_grid_points():
    # a point on a grid line stays put for every step
    p = S3Point(
        complex(1.0, 0.0) / math.sqrt(2.0),
        complex(math.cos(1.3), math.sin(1.3)) / math.sqrt(2.0),
    )
    for s in (0.0, 0.3, 0.7, 1.0):
        q = grid_retraction(2, s, p)
        assert np.linalg.norm(q.as_vector() - p.as_vector()) < 1e-12


def test_retraction_moves_outward_monotonically():
    p = S3Point(
        complex(math.cos(1.1), math.sin(1.1)) / math.sqrt(2.0),
        complex(math.cos(2.2), math.sin(2.2)) / math.sqrt(2.0),
    )
    half = 0.5 * math.pi

    def sup_coord(q):
        th = math.atan2(q.z.imag, q.z.real) % math.pi
        ph = math.atan2(q.w.imag, q.w.real) % math.pi
        return max(abs(th - half), abs(ph - half))

    vals = [sup_coord(grid_retraction(2, s, p)) for s in np.linspace(0.0, 1.0, 9)]
    assert all(b > a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - half) < 1e-12


def test_retraction_equivariance():
    p = S3Point(
        complex(math.cos(0.4), math.sin(0.4)) / math.sqrt(2.0),
        complex(math.cos(2.5), math.sin(2.5)) / math.sqrt(2.0),
    )
    for m in (2, 3):
        for g in group_elements(m):
            a = grid_retraction(m, 0.6, g.apply(p))
            b = g.apply(grid_retraction(m, 0.6, p))
            assert np.linalg.norm(a.as_vector() - b.as_vector()) < 1e-12


def test_retraction_rejects_bad_input():
    rt = 1.0 / math.sqrt(2.0)
    center = S3Point(
        rt * complex(math.cos(0.25 * math.pi), math.sin(0.25 * math.pi)),
        rt * complex(math.cos(0.25 * math.pi), math.sin(0.25 * math.pi)),
    )
    with pytest.raises(DomainError):
        grid_retraction(4, 0.5, center)
    ok = S3Point(rt, rt)
    with pytest.raises(DomainError):
        grid_retraction(2, 1.5, ok)
    with pytest.raises(DomainError):
        grid_retraction(2, 0.5, S3Point(0.9, math.sqrt(1 - 0.81)))


def test_assembly_stays_under_budget(report2):
    s = report2.summary
    assert s["passed"] is True
    assert s["sup_area"] < BUDGET
    assert s["margin"] >= 0.05 * BUDGET
    assert s["margin"] == pytest.approx(3.4162889397003227, rel=1e-12)
    assert s["regular_chi"] == -8


def test_assembly_order_three_margin(report3):
    s = report3.summary
    assert s["passed"] is True
    assert s["margin"] >= 0.05 * BUDGET
    assert s["margin"] == pytest.approx(2.6394981231556045, rel=1e-12)
    assert s["regular_chi"] == -18


def test_assembly_row_structure(report2):
    rows = report2.rows
    stages = {r["stage"] for r in rows}
    assert stages == {"pair", "pair_tubes", "graph_necks", "collapse"}
    ts = [r["t"] for r in rows]
    assert ts == sorted(ts)
    assert rows[0]["t"] == 0.0 and rows[0]["area"] == 0.0
    assert rows[-1]["area"] < 0.01
    assert report2.summary["budget"] == BUDGET


def test_assembly_continuity_improves_under_refinement(report2):
    sched = default_schedule()
    delta = sched.delta
    t_a = 0.5 - delta
    t_b = 0.5 - 0.5 * delta
    fine = np.concatenate(
        [
            np.linspace(0.0, t_a, 35),
            t_a + 0.5 * delta * np.linspace(0.0, 1.0, 15)[1:],
            t_b + 0.5 * delta * np.linspace(0.0, 1.0, 15)[1:],
        ]
    )
    refined = assemble_doubled_sweepout(2, t_grid=fine)

    def max_jump(rows):
        # the jump out of the degenerate t = 0 slice is a property of the
        # foliation, not the discretization, so it is excluded
        areas = [r["area"] for r in rows if r["t"] > 0.0]
        return max(abs(b - a) for a, b in zip(areas, areas[1:]))

    assert max_jump(refined.rows) < 0.7 * max_jump(report2.rows)
    assert refined.summary["sup_area"] < BUDGET


def test_assembly_computes_puncture_distances_once(monkeypatch):
    # two graph-neck rows share one distance field per puncture center
    calls = []

    def counted(m, source):
        calls.append(source)
        return torus_distances(m, source)

    monkeypatch.setattr(fermi, "torus_distances", counted)
    rep = assemble_doubled_sweepout(2, t_grid=[0.3, 0.32])
    assert [r["stage"] for r in rep.rows] == ["graph_necks", "graph_necks"]
    assert len(calls) == 4


def test_assembly_budget_violation_detected():
    sched = default_schedule(epsilon=0.001, delta=0.004)
    with pytest.raises(BudgetViolated):
        assemble_doubled_sweepout(2, schedule=sched, t_grid=[0.496])


def test_assembly_rejects_bad_input():
    with pytest.raises(DomainError):
        assemble_doubled_sweepout(1)
    with pytest.raises(DomainError):
        assemble_doubled_sweepout(2, t_grid=[0.7])
    with pytest.raises(DomainError):
        assemble_doubled_sweepout(2, t_grid=[])
    with pytest.raises(DomainError):
        assemble_doubled_sweepout(2, n=30)

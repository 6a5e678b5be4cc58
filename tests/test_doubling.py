import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from catsweep import cli, doubling, fermi
from catsweep.doubling import (
    HANDOFF_NECK_MAX,
    TUBE_RING_POINTS,
    TUBE_SEGMENTS,
    DoubledSlice,
    NeckSchedule,
    _class_corners,
    _composite_tube_base,
    _pair_row,
    _sheet_area,
    _slice_index_map,
    _tube_strips,
    assemble_doubled_sweepout,
    cmc_area,
    default_resolution,
    doubled_slice,
    group_elements,
    neck_arc_length,
    tube_area,
)
from catsweep.errors import BudgetViolated, DomainError, RadiusTooLarge
from catsweep.mesh import _spherical_triangle_areas
from catsweep.surfaces import product_torus

from reference_geometry import (
    bridge_cycles_walk,
    group_matrix,
    per_triangle_area_parts,
    retract_uv,
)

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


def _group(m):
    # the group elements as (k, l, swap) tuples, in group_elements' order
    return list(zip(*(x.tolist() for x in group_elements(m))))


def test_group_has_order_two_m_squared():
    for m in (2, 3):
        els = _group(m)
        assert len(els) == 2 * m * m
        assert len(set(els)) == 2 * m * m
        # swap slowest, then k, then l
        assert els == [(k, l, s) for s in (False, True) for k in range(m) for l in range(m)]


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
    # the geodesic triangle sum, second order in the grid spacing
    rel64 = float(np.sum(product_torus(0.3).areas)) / cmc_area(0.3) - 1.0
    rel128 = float(np.sum(product_torus(0.3, 128).areas)) / cmc_area(0.3) - 1.0
    assert 0.0 < rel64 < 5e-4
    assert 3.0 < rel64 / rel128 < 5.0
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


@pytest.mark.parametrize("t, radius", [(0.1, 0.15), (0.25, 0.01), (0.3, 0.12)])
def test_tube_area_matches_the_tube_mesh(t, radius):
    # the strip mesh a welded slice lays along one full joining arc, twice
    # the curve tube_area measures: its ring polygons undershoot by about
    # (pi/64)^2/6 = 4e-4, far less than the factor sin(2r)/(2r) (1.5% at
    # r = 0.15)
    rings = _composite_tube_base(t, 2, radius)
    ids = np.arange(rings.shape[0] * rings.shape[1]).reshape(rings.shape[:2])
    mesh = np.sum(_spherical_triangle_areas(rings.reshape(-1, 4), _tube_strips(ids)))
    assert abs(0.5 * mesh / tube_area(t, radius) - 1.0) < 6e-4


def test_tube_area_rejects_bad_input():
    with pytest.raises(RadiusTooLarge):
        tube_area(0.25, 0.2)
    with pytest.raises(DomainError):
        tube_area(0.25, 0.0)
    with pytest.raises(DomainError):
        tube_area(0.7, 0.01)


def test_schedule_validation():
    sched = NeckSchedule()
    close = sched.closing
    assert close == 0.5 - sched.delta
    assert sched.eta(0.0) == 0.0
    assert sched.eta(close) == 0.0
    assert sched.eta(0.5) == 0.0
    assert sched.eta(0.5 * close) == sched.epsilon
    with pytest.raises(DomainError):
        NeckSchedule(delta=0.6, epsilon=0.01)
    with pytest.raises(DomainError):
        NeckSchedule(delta=0.2, epsilon=-1.0)


def test_handoff_offset_matches_pair_area():
    # the torus pair at the closing parameter and the two-sided normal
    # offset of the middle torus have equal area exactly when the offset
    # satisfies cos(2 h) = sqrt(1 - 4 delta^2)
    for delta in (0.05, 0.16, 0.22):
        h = NeckSchedule(delta=delta).handoff_offset
        assert abs(math.cos(2.0 * h) - math.sqrt(1.0 - 4.0 * delta * delta)) < 1e-12
    with pytest.raises(DomainError):
        NeckSchedule(delta=0.5)


def test_default_resolution_divisible():
    for m in (2, 3, 4):
        assert default_resolution(m) % (2 * m) == 0


def test_doubled_slice_topology(slice2):
    # genus m^2 + 1 for the welded pair
    assert isinstance(slice2, DoubledSlice)
    assert slice2.chi == -8
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
    pair = 2.0 * cmc_area(0.2)
    assert abs(slice2.area / pair - 1.0) < 0.02


def test_doubled_slice_equivariance(slice2):
    bary = slice2.vertices[slice2.triangles].mean(axis=1)
    tree = cKDTree(bary)
    for g in _group(2):
        dist, _ = tree.query(bary @ group_matrix(2, *g).T)
        assert dist.max() < 1e-9


def _triangle_keys(tris, n_vertices):
    # one integer per unordered triangle, sorted: equal arrays are equal
    # sets; the slice's int32 indices are widened first, since their
    # product would wrap in 32 bits
    a, b, c = tris.T.astype(np.int64)
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    return np.sort((lo * n_vertices + (a + b + c - lo - hi)) * n_vertices + hi)


_CLOSE = 0.5 - NeckSchedule().delta


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    m=st.sampled_from([3, 4]),
    t=st.floats(min_value=0.005, max_value=_CLOSE - 0.005),
)
def test_doubled_slice_index_map_is_a_symmetry(m, t):
    sl = doubled_slice(t, m)
    n_v = len(sl.vertices)
    keys = _triangle_keys(sl.triangles, n_v)
    assert np.all(keys[1:] != keys[:-1])
    perms = _slice_index_map(m, default_resolution(m), group_elements(m), np.arange(n_v))
    for g, perm in zip(_group(m), perms):
        assert np.array_equal(_triangle_keys(perm[sl.triangles], n_v), keys)
        assert np.max(np.abs(sl.vertices[perm] - sl.vertices @ group_matrix(m, *g).T)) < 1e-12


# the witness slice of assemble_doubled_sweepout at its defaults: sha256
# of its triangle (as int64) and vertex bytes, and its area_parts, as first recorded
# (triangle order and vertex layout are part of the record)
WITNESS_T = 0.2635294117647059
WITNESS_BYTES = {
    2: ("e7c9c3988fe56bd662f479a7d16bf750cd17ccc81a4c8a49da555f8633b26490",
        "7da1afdc631ca61e960c5829fb8cc2d3c556e5692c20e9adbb4e575a87e0dd92",
        "{'tori': 34.6962227609785, 'collars': 0.10175848133537613,"
        " 'tubes': 0.03411157370826275}"),
    3: ("072232dda3a42ee9a19b699d482f95d841fcccbc0ec0972f652bd65f71c6640b",
        "c84d189a4e25e9bf7cbb81f14a5510234d4adc001062973d971ec38c9c463ab2",
        "{'tori': 34.58165026798429, 'collars': 0.21525984577953453,"
        " 'tubes': 0.0767510408435906}"),
}


@pytest.mark.parametrize("m", [2, 3])
def test_witness_mesh_bytes_are_frozen(m, request):
    rep = request.getfixturevalue("report%d" % m)
    assert max(r["t"] for r in rep.rows if r["stage"] == "pair_tubes") == WITNESS_T
    sl = doubled_slice(WITNESS_T, m)
    tris, verts, parts = WITNESS_BYTES[m]
    # the triangles are int32; the record is of their int64 content
    assert sl.triangles.dtype == np.int32
    assert hashlib.sha256(sl.triangles.astype(np.int64).tobytes()).hexdigest() == tris
    assert hashlib.sha256(sl.vertices.tobytes()).hexdigest() == verts
    assert repr(sl.area_parts) == parts


@pytest.mark.parametrize("m", [2, 3])
def test_witness_tori_match_the_product_torus(m):
    # the slice lays out its tori without a mesh; product_torus is the
    # reference for their vertices and for the areas of a grid cell's two
    # triangle shapes, each times its kept count
    sl = doubled_slice(WITNESS_T, m)
    n = default_resolution(m)
    n2 = n * n
    low, high = product_torus(WITNESS_T, n), product_torus(1.0 - WITNESS_T, n)
    assert np.array_equal(sl.vertices[:n2], low.vertices)
    assert np.array_equal(sl.vertices[n2:2 * n2], high.vertices)
    n_v = len(sl.vertices)
    slice_keys = _triangle_keys(sl.triangles, n_v)
    keep = np.isin(_triangle_keys(low.triangles, n_v), slice_keys)
    assert np.array_equal(np.isin(_triangle_keys(high.triangles + n2, n_v), slice_keys), keep)
    kept_a, kept_b = np.count_nonzero(keep.reshape(-1, 2), axis=0).tolist()
    assert kept_a == kept_b == n2 - 3 * m * m
    low_a, low_b = low.areas[:2].tolist()
    high_a, high_b = high.areas[:2].tolist()
    lower, upper = kept_a * low_a + kept_b * low_b, kept_a * high_a + kept_b * high_b
    assert sl.area_parts["tori"] == lower + upper


# the slice sums its area once per congruence class; each part matches the
# sum over all of its triangles to roundoff, on every grid m divides
@pytest.mark.parametrize("t", [0.01, 0.2, WITNESS_T], ids=["t0.01", "t0.2", "witness"])
@pytest.mark.parametrize("m, n", [(2, 8), (2, None), (2, 128), (3, None), (4, 8), (4, None),
                                  (4, 128)])
def test_area_parts_match_the_per_triangle_sum(m, n, t):
    sl = doubled_slice(t, m, n=n)
    ref = per_triangle_area_parts(sl, n or default_resolution(m))
    assert sl.area_parts.keys() == ref.keys()
    for part, area in sl.area_parts.items():
        assert abs(area / ref[part] - 1.0) <= 1e-12, part


@pytest.mark.parametrize("gap", [1e-15, 5e-17])
def test_doubled_slice_genus_at_a_vanishing_radius(gap):
    # 1e-15 under the closing parameter the sine bump's radius is 1.7e-16,
    # and one ulp under it (5e-17 rounds there) 9.3e-18: the collar is
    # built from indices alone, so the genus holds however close the rings
    # sit to their weld center
    close = 0.5 - NeckSchedule().delta
    assert doubled_slice(close - gap, 2).chi == -8
    assert assemble_doubled_sweepout(2, t_grid=[close - gap]).summary["regular_chi"] == -8


@pytest.mark.parametrize("n_of_m", [default_resolution, lambda m: 4 * m], ids=["default", "4m"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_class_corners_are_the_slice_vertices(m, n_of_m):
    # the areas read each congruence class's corners, laid out on index
    # subsets; they are the lazily built vertex array's rows bit for bit,
    # and the closed-form vertex count is its length
    n = n_of_m(m)
    schedule = NeckSchedule()
    for t in schedule.closing * np.array([1, 8, 15]) / 17.0:
        sl = doubled_slice(t, m, schedule, n)
        assert "vertices" not in vars(sl)
        for ids, pts in _class_corners(sl.t, m, n, sl.radius):
            assert pts.tobytes() == sl.vertices[ids].tobytes()
        assert sl.n_vertices == len(sl.vertices)


def test_doubled_slice_refuses_an_underflowed_radius():
    # at t = 0.01 the sine bump of epsilon 5e-324 rounds to a radius of 0,
    # which would collapse every tube onto its arc; the witness of the same
    # schedule has a positive radius (tests/test_cli.py reads its genus)
    with pytest.raises(DomainError, match="underflows to 0"):
        doubled_slice(0.01, 2, NeckSchedule(5e-324))


@pytest.mark.parametrize("m, peak_mb", [(2, 1.35), (3, 2.25)])
def test_assembly_peak_memory(m, peak_mb):
    # the witness lays out only the corners its areas read, builds its
    # tube strips in int32 and releases its grid list, keep mask and tube
    # 0 before the genus count: 1.17 MB at m = 2 and 2.06 MB at m = 3,
    # under bounds 0.19 MB above them (1.52 and 2.42 MB when the strips
    # took an int64 round trip and the grid list outlived the count)
    assemble_doubled_sweepout(m)
    tracemalloc.start()
    try:
        assemble_doubled_sweepout(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_mb * 1e6


def _flat_angles(center, points):
    """Angles of points about a point of a product torus, in its tangent
    plane, from d/dtheta toward d/dphi (unit vectors)."""
    th, ph = math.atan2(center[1], center[0]), math.atan2(center[3], center[2])
    e_th = np.array([-math.sin(th), math.cos(th), 0.0, 0.0])
    e_ph = np.array([0.0, 0.0, -math.sin(ph), math.cos(ph)])
    return np.arctan2(points @ e_ph, points @ e_th)


@pytest.mark.parametrize("n_of_m", [default_resolution, lambda m: 4 * m], ids=["default", "4m"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_collar_zips_each_end_ring_to_its_hexagon_in_angular_order(m, n_of_m):
    # the zip is laid out from ring indices alone; read from the triangles
    # and measured on the points, each of the 2 m^2 tube end rings must be
    # joined, every point of it, to the six vertices of its hole's link,
    # and each joined ring point must lie in the two sectors of the
    # hexagon beside the hexagon vertex it meets, up to one ring spacing
    # (two hexagon vertices can fall within one ring spacing at small t).
    # A crossed zip is still an annulus, so the genus cannot see it
    seg, rr = TUBE_SEGMENTS, TUBE_RING_POINTS
    n = n_of_m(m)
    n_t = 2 * n * n
    slack = 2.0 * math.pi / rr + 1e-9
    for t in (0.01, NeckSchedule().closing * 8.0 / 17.0, WITNESS_T):
        sl = doubled_slice(t, m, n=n)
        tris = sl.triangles.astype(np.int64)
        edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), 1)
        hexv, ringv = np.unique(edges[(edges[:, 0] < n_t) & (edges[:, 1] >= n_t)], axis=0).T
        tube, row, _ = np.unravel_index(ringv - n_t, (m * m, seg + 1, rr))
        ends = set(zip(tube.tolist(), row.tolist()))
        assert ends == {(a, r) for a in range(m * m) for r in (0, seg)}
        for a, r in ends:
            ring = n_t + (a * (seg + 1) + r) * rr + np.arange(rr)
            center = sl.vertices[ring].mean(axis=0)
            at = tube * (seg + 1) + row == a * (seg + 1) + r
            h, p = hexv[at], ringv[at]
            assert np.array_equal(np.unique(p), ring)
            hexagon = np.unique(h)
            assert len(hexagon) == 6
            ang = dict(zip(hexagon.tolist(), _flat_angles(center, sl.vertices[hexagon]).tolist()))
            order = sorted(ang, key=ang.get)
            prev = {v: ang[order[i - 1]] for i, v in enumerate(order)}
            nxt = {v: ang[order[(i + 1) % 6]] for i, v in enumerate(order)}
            lo = np.array([prev[v] for v in h.tolist()]) - slack
            width = (np.array([nxt[v] for v in h.tolist()]) + slack - lo) % (2.0 * math.pi)
            off = (_flat_angles(center, sl.vertices[p]) - lo) % (2.0 * math.pi)
            assert np.all(off <= width), (t, a, r)


def _hexagon_angles(t):
    # the link hexagon's flat angles about its weld center, counterclockwise
    # from angle 0, by math.atan2 per offset
    return [math.atan2(math.sqrt(1.0 - t) * dj, math.sqrt(t) * di) % (2.0 * math.pi)
            for di, dj in ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))]


def _zip_parameters():
    """A 4,001-point grid in (0, 1/2); the t within 2 ulps of each where
    the hexagon's oblique vertex, at angle atan(sqrt((1 - t)/t)), meets a
    ring angle 2 pi p/rr, t = cos(2 pi p/rr)^2; and the witness t, 0.01,
    0.2 and the 17 paired t of the default grid of six schedules."""
    rr = TUBE_RING_POINTS
    ts = np.linspace(0.0, 0.5, 4003)[1:-1].tolist() + [WITNESS_T, 0.01, 0.2]
    for p in range(rr // 8 + 1, rr // 4):
        near = [math.cos(2.0 * math.pi * p / rr) ** 2]
        for _ in range(2):
            near = [math.nextafter(near[0], 0.0)] + near + [math.nextafter(near[-1], 1.0)]
        ts += near
    for sched in (NeckSchedule(), NeckSchedule(0.05, 0.22), NeckSchedule(0.005, 0.1),
                  NeckSchedule(0.001, 0.004), NeckSchedule(delta=0.05), NeckSchedule(delta=1e-3)):
        ts += np.linspace(0.0, sched.closing, 18)[1:].tolist()
    return ts


def test_collar_zip_matches_the_merge_walk(monkeypatch):
    # the zip places each step by a count of the other cycle's earlier
    # steps; it is the merge walk byte for byte, ties included (the ring
    # meets the hexagon at pi/2, pi and 3 pi/2 for every t, and the
    # oblique vertices meet ring angles near the tie t), and the witness
    # feeds it math.atan2's hexagon angles bit for bit
    rr = TUBE_RING_POINTS
    ring = np.arange(rr)
    inner = (6 + (rr // 8 - ring) % rr, 2.0 * np.pi * ring / rr)
    for t in _zip_parameters():
        args = (np.arange(6), np.array(_hexagon_angles(t))) + inner
        got, ref = doubling._bridge_cycles(*args), bridge_cycles_walk(*args)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), t
    calls = []
    zip_cycles = doubling._bridge_cycles
    monkeypatch.setattr(doubling, "_bridge_cycles",
                        lambda *args: calls.append(args) or zip_cycles(*args))
    for m in (2, 3):
        doubled_slice(WITNESS_T, m)
    for args in calls:
        assert args[1].tobytes() == np.array(_hexagon_angles(WITNESS_T)).tobytes()
        assert zip_cycles(*args).tobytes() == bridge_cycles_walk(*args).tobytes()
    assert len(calls) == 2


def test_doubled_slice_rejects_bad_input():
    with pytest.raises(DomainError):
        doubled_slice(0.2, 1)
    with pytest.raises(DomainError):
        doubled_slice(0.2, 2, n=30)
    with pytest.raises(DomainError):
        doubled_slice(0.0, 2)
    with pytest.raises(DomainError):
        doubled_slice(0.45, 2)
    # the closing parameter holds the bare torus pair, with no tubes to weld
    with pytest.raises(DomainError):
        doubled_slice(0.5 - NeckSchedule().delta, 2)


def test_doubled_slice_radius_capacity_guard():
    # the radius at t = 0.2 is 0.047, twice the n = 64 collar capacity
    fat = NeckSchedule(epsilon=0.06)
    with pytest.raises(RadiusTooLarge):
        doubled_slice(0.2, 2, schedule=fat)


# chart points of the middle torus, clear of every puncture center for m = 2, 3
RETRACT_THETA = np.array([0.3, 1.1, 0.4, 2.9, 4.0, 5.5])
RETRACT_PHI = np.array([2.0, 2.2, 2.5, 0.2, 5.1, 3.3])


def _sup_offset(m, theta, phi):
    # sup-norm distance from the center of the chart cell holding each point
    cell = 2.0 * math.pi / m
    half = math.pi / m
    return np.maximum(np.abs(theta % cell - half), np.abs(phi % cell - half))


def _embed(theta, phi):
    rt = 1.0 / math.sqrt(2.0)
    return rt * np.column_stack([np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)])


def test_retraction_identity_and_range():
    th0, ph0 = retract_uv(2, 0.0, RETRACT_THETA, RETRACT_PHI)
    assert np.max(np.abs(th0 - RETRACT_THETA)) < 1e-12
    assert np.max(np.abs(ph0 - RETRACT_PHI)) < 1e-12
    th1, ph1 = retract_uv(2, 1.0, RETRACT_THETA, RETRACT_PHI)
    assert np.all(_sup_offset(2, th1, ph1) > 0.5 * math.pi - 1e-9)


def test_retraction_fixes_grid_points():
    # a point on a grid line stays put for every step
    theta = np.array([0.0, 0.0, math.pi, 0.7, 2.1])
    phi = np.array([1.3, 2.9, 0.4, 0.0, math.pi])
    for s in (0.0, 0.3, 0.7, 1.0):
        th, ph = retract_uv(2, s, theta, phi)
        assert np.max(np.abs(_embed(th, ph) - _embed(theta, phi))) < 1e-12


def test_retraction_moves_outward_monotonically():
    half = 0.5 * math.pi
    vals = np.array(
        [_sup_offset(2, *retract_uv(2, s, RETRACT_THETA, RETRACT_PHI))
         for s in np.linspace(0.0, 1.0, 9)]
    )
    assert np.all(vals[1:] > vals[:-1] - 1e-12)
    assert np.max(np.abs(vals[-1] - half)) < 1e-12


def test_retraction_equivariance():
    p = _embed(RETRACT_THETA, RETRACT_PHI)
    for m in (2, 3):
        for g in _group(m):
            q = p @ group_matrix(m, *g).T
            theta, phi = np.arctan2(q[:, 1], q[:, 0]), np.arctan2(q[:, 3], q[:, 2])
            a = _embed(*retract_uv(m, 0.6, theta, phi))
            b = _embed(*retract_uv(m, 0.6, RETRACT_THETA, RETRACT_PHI)) @ group_matrix(m, *g).T
            assert np.max(np.abs(a - b)) < 1e-12


def test_retraction_rejects_bad_input():
    # the center of a chart cell is a removed puncture
    with pytest.raises(DomainError):
        retract_uv(4, 0.5, np.array([1.0, 0.25 * math.pi]), np.array([2.0, 0.25 * math.pi]))


def test_assembly_stays_under_budget(report2):
    s = report2.summary
    assert s["passed"] is True
    assert s["sup_area"] < BUDGET
    assert s["margin"] >= 0.05 * BUDGET
    # 8.444% of the budget, the continuum peak at the neck cap
    assert s["margin"] == pytest.approx(3.3335658382095161, rel=1e-12)
    assert s["regular_chi"] == -8


def test_assembly_order_three_margin(report3):
    s = report3.summary
    assert s["passed"] is True
    assert s["margin"] >= 0.05 * BUDGET
    # 6.249% of the budget
    assert s["margin"] == pytest.approx(2.4669149847717478, rel=1e-12)
    assert s["regular_chi"] == -18


@pytest.mark.parametrize("m, vertices, triangles", [(2, 20736, 41472), (3, 36936, 73872)])
def test_assembly_summary_counts(m, vertices, triangles, request):
    # the witness slice has the 2 n^2 torus vertices plus
    # (TUBE_SEGMENTS + 1) TUBE_RING_POINTS per tube
    s = request.getfixturevalue("report%d" % m).summary
    assert s["witness_vertices"] == vertices
    assert s["witness_triangles"] == triangles


def test_assembly_row_structure(report2):
    rows = report2.rows
    stages = {r["stage"] for r in rows}
    assert stages == {"pair", "pair_tubes", "graph_necks", "collapse"}
    ts = [r["t"] for r in rows]
    assert ts == sorted(ts)
    assert rows[0]["t"] == 0.0 and rows[0]["area"] == 0.0
    assert rows[-1]["area"] < 0.01
    assert report2.summary["budget"] == BUDGET


def test_last_collapse_row_is_exact(report2, report3):
    # t = 1/2 closes the collapse exactly: s is 1.0, not 1 - 1.1e-16, and
    # the sheets have no area left
    for rep in (report2, report3):
        last = rep.rows[-1]
        assert last["t"] == 0.5 and last["stage"] == "collapse"
        assert last["collapse_s"] == 1.0
        assert last["area"] == 0.0


def test_assembly_continuity_improves_under_refinement(report2):
    sched = NeckSchedule()
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


def _pair_closed_form(t, m, schedule):
    rho = schedule.eta(t)
    if rho == 0.0:
        return 2.0 * cmc_area(t)
    return (2.0 * cmc_area(t) - 2.0 * m * m * math.pi * rho * rho
            + 2.0 * m * m * tube_area(t, rho))


def test_paired_rows_are_the_continuum_limit_of_the_mesh():
    # the welded mesh area converges to the closed form at second order
    sched = NeckSchedule()
    t = 16.0 / 17.0 * (0.5 - sched.delta)
    closed = _pair_closed_form(t, 2, sched)
    coarse = doubled_slice(t, 2, n=64)
    fine = doubled_slice(t, 2, n=128)
    excess64 = coarse.area / closed - 1.0
    excess128 = fine.area / closed - 1.0
    assert 3.5e-4 <= excess64 <= 4.5e-4
    assert 3.5 <= excess64 / excess128 <= 4.5
    tubes = 8.0 * tube_area(t, sched.eta(t))
    assert abs(coarse.area_parts["tubes"] / tubes - 1.0) < 2e-3


def test_paired_rows_match_the_closed_form(report2):
    sched = NeckSchedule()
    pairs = [r for r in report2.rows if r["stage"] in ("pair", "pair_tubes") and r["t"] > 0.0]
    assert len(pairs) == 17
    for row in pairs:
        rho = sched.eta(row["t"])
        assert row["area"] == _pair_closed_form(row["t"], 2, sched)
        assert row["removed_disk_area"] == 8.0 * math.pi * rho * rho
        assert "chi" not in row
    # the witness keeps the mesh's second-order error on record
    assert 3.5e-4 <= report2.summary["witness_mesh_rel_excess"] <= 4.5e-4


@pytest.mark.parametrize("m", [2, 3])
def test_assembly_builds_one_welded_slice(m, monkeypatch):
    calls = []

    def counted(t, m, schedule=None, n=None):
        calls.append(t)
        return doubled_slice(t, m, schedule, n)

    monkeypatch.setattr(doubling, "doubled_slice", counted)
    rep = assemble_doubled_sweepout(m)
    assert rep.summary["regular_chi"] == 2 - 2 * (m * m + 1)
    # the witness is the last paired slice with tubes
    assert calls == [max(r["t"] for r in rep.rows if r["stage"] == "pair_tubes")]


def test_assembly_refines_past_the_weld_capacity():
    # n = 128 leaves the tube radius of the middle paired slices above the
    # weld collar capacity; only the witness slice is meshed
    rep = assemble_doubled_sweepout(2, n=128)
    assert rep.summary["passed"] is True
    assert rep.summary["regular_chi"] == -8
    assert len(rep.rows) == 32


def test_assembly_budget_violation_detected():
    # near the middle torus the tubes add about 2 m^2 pi d^2 over the weld
    # disks, d = 1/2 - t, against a gap of 8 pi^2 d^2 under the budget, so
    # only m >= 4 with fat tubes crosses it (by 0.73 here)
    sched = NeckSchedule(epsilon=0.19, delta=0.004)
    with pytest.raises(BudgetViolated):
        assemble_doubled_sweepout(4, schedule=sched, t_grid=[0.3])


def test_small_delta_assembly_stays_under_budget():
    # the first graph-neck slice sits about 1e-3 under the budget, well
    # inside the 1.6e-2 that an n = 64 mesh's 4e-4 relative excess adds
    sched = NeckSchedule(epsilon=0.001, delta=0.004)
    rep = assemble_doubled_sweepout(2, schedule=sched)
    assert rep.summary["passed"] is True
    assert rep.summary["margin"] > 0.0
    # the closing slice is exact at a small delta too
    assert rep.rows[-1]["collapse_s"] == 1.0


def test_order_five_reaches_the_budget():
    # the graph-neck row at the largest neck, t = t_b = 0.39, is 0.78% over
    # the budget (test_graph_neck_rows_match_the_polar_oracle), so m = 5 is
    # the first order the default schedule does not support
    with pytest.raises(BudgetViolated, match="t = 0.39 "):
        assemble_doubled_sweepout(5)


def test_first_failing_row_in_t_decides_the_error():
    # the sheet rows are one band pass, but the rows are still judged in t:
    # at m = 12 the graph-neck row at t = 0.35 reaches the budget before
    # the collapse row at 0.45 would leave its cell (inscribed radius
    # 0.185 < 0.25); at m = 9 a fitting row passes and the next raises,
    # and the closed row s = 1 has no band to leave its cell
    with pytest.raises(BudgetViolated, match="t = 0.35 "):
        assemble_doubled_sweepout(12, t_grid=[0.1, 0.35, 0.45])
    with pytest.raises(RadiusTooLarge, match="leaves the symmetry cell"):
        assemble_doubled_sweepout(9, t_grid=[0.3, 0.45])
    assert assemble_doubled_sweepout(9, t_grid=[0.3, 0.5]).rows[-1]["area"] == 0.0


def test_closing_pair_stays_under_budget():
    # the torus pair at t = 0.496 is 1.26e-3 under the budget; the n = 64
    # mesh area, 4.0e-4 relative high, put it 1.46e-2 over
    sched = NeckSchedule(epsilon=0.001, delta=0.004)
    rep = assemble_doubled_sweepout(2, schedule=sched, t_grid=[0.496])
    assert rep.summary["sup_area"] == 2.0 * cmc_area(0.496)
    assert rep.summary["passed"] is True


def test_assembly_rejects_bad_input():
    with pytest.raises(DomainError):
        assemble_doubled_sweepout(1)
    with pytest.raises(DomainError):
        assemble_doubled_sweepout(2, t_grid=[0.7])
    with pytest.raises(DomainError):
        assemble_doubled_sweepout(2, t_grid=[])
    # a NaN fails both range comparisons; it is refused by name
    with pytest.raises(DomainError, match="got t = nan"):
        assemble_doubled_sweepout(2, t_grid=[0.1, float("nan")])
    with pytest.raises(DomainError):
        assemble_doubled_sweepout(2, n=30)


def _polar_graph_neck_row(m, h, t, n_log=200, n_psi=128):
    """Resolution-free area of the graph-neck slice with neck t.

    Each sheet sigma f, sigma = +-1, is the flat middle torus at offset h
    outside the m^2 disks of flat radius t, plus one band t^2 < g < t per
    puncture, where f = h (2 log t - log g)/log t.  In flat polar
    coordinates (g, psi) about a puncture the chart area is 2 g dg dpsi
    and the area element of the sheet is sqrt(cos(2f)^2/4 + f'^2/4 ((1 +
    sigma sin 2f) sin^2 psi + (1 - sigma sin 2f) cos^2 psi)).  The band
    integral runs Gauss-Legendre in log g and the periodic trapezoid rule
    in psi, both spectrally accurate for this smooth integrand.
    """
    x, wx = np.polynomial.legendre.leggauss(n_log)
    log_t = math.log(t)
    log_g = 1.5 * log_t - 0.5 * log_t * x
    g = np.exp(log_g)[:, None]
    f = h * (2.0 * log_t - log_g[:, None]) / log_t
    fp2 = (h / (g * log_t)) ** 2
    psi = 2.0 * math.pi * np.arange(n_psi) / n_psi
    sin2, cos2 = np.sin(psi) ** 2, np.cos(psi) ** 2
    # dg = g d(log g), and the interval [2 log t, log t] has length -log t
    w = (-0.5 * log_t * wx)[:, None] * (2.0 * math.pi / n_psi)
    outer = (4.0 * math.pi ** 2 - 2.0 * math.pi * m * m * t * t) * math.cos(2.0 * h) / 2.0
    total = 0.0
    for sigma in (1.0, -1.0):
        sn = sigma * np.sin(2.0 * f)
        elem = np.sqrt(0.25 * np.cos(2.0 * f) ** 2
                       + 0.25 * fp2 * ((1.0 + sn) * sin2 + (1.0 - sn) * cos2))
        total += outer + m * m * float(np.sum(w * 2.0 * elem * g * g))
    return total


def test_graph_neck_rows_match_the_polar_oracle(report2, report3):
    h = NeckSchedule().handoff_offset
    necks = [k / 7.0 * HANDOFF_NECK_MAX for k in range(1, 8)]
    for m in (2, 3, 5):
        for t in necks:
            fine = _polar_graph_neck_row(m, h, t, 400, 256)
            assert abs(fine - _polar_graph_neck_row(m, h, t)) < 1e-12
    for m, rep in ((2, report2), (3, report3)):
        rows = [r for r in rep.rows if r["stage"] == "graph_necks"]
        assert [r["neck_radius"] for r in rows] == pytest.approx(necks, rel=1e-14)
        for row in rows:
            oracle = _polar_graph_neck_row(m, h, row["neck_radius"])
            assert row["area"] == pytest.approx(oracle, rel=1e-12)
    # the continuum peak at m = 5 is over the budget, so the BudgetViolated
    # the quadrature raises there is no grid artefact
    assert max(_polar_graph_neck_row(5, h, t) for t in necks) > BUDGET


@pytest.mark.parametrize("m", [2, 3, 4])
def test_graph_neck_area_rises_monotonically(m):
    # the continuum rows have no staircase: on a 225-point grid the area
    # rises with the neck radius up to the cap, as the polar oracle does
    delta = NeckSchedule().delta
    stage = np.linspace(0.5 - delta, 0.5 - 0.5 * delta, 225)[1:]
    rows = assemble_doubled_sweepout(m, t_grid=stage).rows
    assert [r["stage"] for r in rows] == ["graph_necks"] * 224
    areas = [r["area"] for r in rows]
    assert all(b > a for a, b in zip(areas, areas[1:]))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_rows_hold_when_the_band_nodes_double(m, monkeypatch):
    # the band's Gauss-Legendre rules are converged: every row of every
    # stage, and the tube family's, moves by less than 1e-8 relative
    tube = [(0.5 * math.pi, 1.5 * math.pi), (1.5 * math.pi, 0.5 * math.pi)]
    coarse = assemble_doubled_sweepout(m, n=4 * m).rows
    coarse_tubes = fermi.two_sided_tube_family(tube, 0.05).rows
    monkeypatch.setattr(fermi, "BAND_LOG_NODES", 2 * fermi.BAND_LOG_NODES)
    monkeypatch.setattr(fermi, "BAND_ANGLE_NODES", 2 * fermi.BAND_ANGLE_NODES)
    fine = assemble_doubled_sweepout(m, n=4 * m).rows
    fine_tubes = fermi.two_sided_tube_family(tube, 0.05).rows
    for a, b in zip(coarse + coarse_tubes, fine + fine_tubes):
        assert abs(a["area"] - b["area"]) <= 1e-8 * abs(b["area"])


@pytest.mark.parametrize("m", [2, 3])
def test_stage_handoffs_agree(m, request):
    rep = request.getfixturevalue("report%d" % m)
    sched = NeckSchedule()
    h_eff = sched.handoff_offset
    # at t_a the graph-neck stage opens from neck 0, the unpunctured offset,
    # which is the torus pair at the closing parameter
    pair = _pair_row(sched.closing, m, sched)["area"]
    opened, closed = _sheet_area(m, 0.0, h_eff, [0.0, HANDOFF_NECK_MAX])
    assert opened == pytest.approx(pair, rel=1e-12)
    # at t_b the collapse starts from the last graph-neck row
    last = [r for r in rep.rows if r["stage"] == "graph_necks"][-1]
    assert last["neck_radius"] == pytest.approx(HANDOFF_NECK_MAX, rel=1e-14)
    assert closed == pytest.approx(last["area"], rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP aim 3: the rows are 4*pi^2 less O(delta^2), and at "
                          "delta = 1e-9 the subtraction leaves rounding, read as the budget")
def test_small_delta_margin_is_not_read_as_the_budget():
    # which delta rounds onto the budget depends on the rows' last bits:
    # 5e-9 did on the chart quadrature and passes on the polar band
    assert cli.run(["doubling", "sweep", "--m", "2", "--delta", "1e-9"]) != 2

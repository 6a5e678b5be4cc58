"""The fast mesh and doubling kernels against plain references.

The references below are the straightforward forms the kernels replaced:
row gathers and np.linalg.norm for the spherical areas, (lo, hi) edge rows
for the Euler characteristic, trig over every vertex for the torus mesher,
per-vertex and per-triangle loops for the mesh tests' flat disk fixture,
and the chart triangles' corners for the chart quadrature's nodes (both
in tests/reference_geometry.py).  The fast forms compute the same
floating-point operations in the same order, so those comparisons are
exact (np.array_equal, == or equal bytes), never approximate.  The
exceptions are the doubled family's symmetry reductions and its sheet
rows.  The witness slice measures one triangle of each congruence class
times its count and matches the per-triangle sum to roundoff
(tests/test_doubling.py).  The graph-neck and collapse rows integrate
one polar band in the image chart, times m^2; they match the preimage
form (tests/reference_geometry.py), over one cell and over all m^2, to
the truncation error of its finite-difference metric.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catsweep.doubling import (
    HANDOFF_NECK_MAX,
    TUBE_RING_POINTS,
    TUBE_SEGMENTS,
    NeckSchedule,
    _sheet_area,
    assemble_doubled_sweepout,
    default_resolution,
    doubled_slice,
)
from catsweep.mesh import _spherical_triangle_areas, euler_characteristic
from catsweep.surfaces import product_torus
from reference_geometry import (
    chart_nodes,
    corner_chart_nodes,
    disk_mesh_rings,
    flat_disk,
    preimage_sheet_area,
)


def _ref_spherical_triangle_areas(verts, tris):
    p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    a = 2.0 * np.arcsin(np.clip(0.5 * np.linalg.norm(p1 - p2, axis=1), 0.0, 1.0))
    b = 2.0 * np.arcsin(np.clip(0.5 * np.linalg.norm(p0 - p2, axis=1), 0.0, 1.0))
    c = 2.0 * np.arcsin(np.clip(0.5 * np.linalg.norm(p0 - p1, axis=1), 0.0, 1.0))
    s = 0.5 * (a + b + c)
    prod = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - a))
        * np.tan(0.5 * (s - b))
        * np.tan(0.5 * (s - c))
    )
    return 4.0 * np.arctan(np.sqrt(np.maximum(prod, 0.0)))


def _ref_euler_characteristic(triangles):
    tris = np.asarray(triangles, dtype=np.int64)
    if tris.size == 0:
        return 0
    pairs = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    base = int(tris.max(initial=0)) + 1
    keys = np.sort(pairs.min(axis=1) * base + pairs.max(axis=1))
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    edges = np.column_stack([keys // base, keys % base])
    n_referenced = np.count_nonzero(np.bincount(tris.ravel()))
    return int(n_referenced - len(edges) + len(tris))


def _ref_flat_disk(n_theta, rings):
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    verts = [np.zeros(3)]
    ring_of = [-1]
    radius_of = [0.0]
    for ri, r in enumerate(rings):
        for th in theta:
            verts.append(np.array([r * math.cos(th), r * math.sin(th), 0.0]))
            ring_of.append(ri)
            radius_of.append(r)
    tris = []
    for k in range(n_theta):
        tris.append((0, 1 + k, 1 + (k + 1) % n_theta))
    for ri in range(len(rings) - 1):
        base0 = 1 + ri * n_theta
        base1 = 1 + (ri + 1) * n_theta
        for k in range(n_theta):
            k1 = (k + 1) % n_theta
            tris.append((base0 + k, base1 + k, base1 + k1))
            tris.append((base0 + k, base1 + k1, base0 + k1))
    return (
        np.array(verts),
        np.array(tris, dtype=np.int64),
        np.array(ring_of),
        np.array(radius_of),
    )


@pytest.fixture(scope="module", params=[2, 3], ids=["m2", "m3"])
def welded(request):
    return doubled_slice(0.15, request.param)


def test_slice_areas_match_reference(welded):
    got = _spherical_triangle_areas(welded.vertices, welded.triangles)
    want = _ref_spherical_triangle_areas(welded.vertices, welded.triangles)
    assert np.array_equal(got, want)
    for t in (welded.t, 1.0 - welded.t):
        copy = product_torus(t, default_resolution(welded.m))
        assert np.array_equal(copy.areas, _ref_spherical_triangle_areas(copy.vertices, copy.triangles))


def test_slice_euler_characteristic_matches_reference(welded):
    assert euler_characteristic(welded.triangles) == _ref_euler_characteristic(welded.triangles)
    assert welded.chi == 2 - 2 * (welded.m ** 2 + 1)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


_VEC4 = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda v: sum(x * x for x in v) > 1e-3)
_TINY = st.one_of(st.just(0.0), st.floats(1e-15, 1e-3))


@st.composite
def _s3_triangle(draw):
    """Three points of S^3: spread out, clustered, nearly on one great
    circle, or with an antipodal pair."""
    kind = draw(st.sampled_from(["spread", "cluster", "collinear", "antipodal"]))
    p0 = _unit(draw(_VEC4))
    u, v = np.asarray(draw(_VEC4)), np.asarray(draw(_VEC4))
    if kind == "spread":
        return [p0, _unit(u), _unit(v)]
    if kind == "antipodal":
        return [p0, -p0, _unit(v)]
    p1 = _unit(p0 + draw(_TINY) * u)
    if kind == "cluster":
        return [p0, p1, _unit(p0 + draw(_TINY) * v)]
    # a point on the chord through p0 and p1, off it by a tiny normal push
    e = draw(st.floats(0.0, 1.0))
    return [p0, p1, _unit(p0 + e * (p1 - p0) + draw(_TINY) * v)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tris=st.lists(_s3_triangle(), min_size=1, max_size=8))
def test_s3_triangle_areas_match_reference(tris):
    verts = np.array([p for tri in tris for p in tri])
    idx = np.arange(len(verts), dtype=np.int64).reshape(-1, 3)
    # every corner order, so each side takes each role
    for order in ([0, 1, 2], [1, 2, 0], [2, 1, 0]):
        got = _spherical_triangle_areas(verts, idx[:, order])
        want = _ref_spherical_triangle_areas(verts, idx[:, order])
        assert np.array_equal(got, want)


# s = 0 is the graph-neck stage, at each of its neck radii; past it the
# collapse at the largest neck, and at s = 1 no area is left
@pytest.mark.parametrize("s", [0.0, 0.5, 1.0] + [k / 7.0 for k in range(1, 7)])
@pytest.mark.parametrize("m", [2, 3])
def test_collapse_stage_matches_per_sheet_reference(m, s):
    h_eff = NeckSchedule().handoff_offset
    if s == 1.0:
        assert _sheet_area(m, 1.0, h_eff, HANDOFF_NECK_MAX).tolist() == [0.0]
        return
    necks = [k / 7.0 * HANDOFF_NECK_MAX for k in range(1, 8)] if s == 0.0 else [HANDOFF_NECK_MAX]
    for neck, area in zip(necks, _sheet_area(m, s, h_eff, necks)):
        ref = m * m * preimage_sheet_area(m, s, h_eff, neck)[0]
        assert area == pytest.approx(ref, rel=1e-9)


def _rel_err(got, want):
    return abs(got - want) / abs(want) if want != 0.0 else abs(got)


# the rows integrate one cell's band, times m^2; the preimage form sums the
# m^2 cells of the torus, each about its own center, and the grid of the
# witness mesh changes no row
@pytest.mark.parametrize("m, n", [(2, None), (3, None), (4, None), (2, 128)],
                         ids=["m2", "m3", "m4", "m2-n128"])
def test_sheet_rows_match_the_full_grid_reference(m, n):
    rep = assemble_doubled_sweepout(m, n=n)
    h_eff = rep.meta["params"]["handoff_offset"]
    rows = [r for r in rep.rows if r["stage"] in ("graph_necks", "collapse")]
    assert len(rows) == 14
    if n is not None:
        default = assemble_doubled_sweepout(m).rows
        assert [r for r in default if r["stage"] in ("graph_necks", "collapse")] == rows
    cells = [(j, k) for j in range(m) for k in range(m)]
    for row in (rows[0], rows[6], rows[10]):
        if row["stage"] == "graph_necks":
            area, removed = preimage_sheet_area(m, 0.0, h_eff, row["neck_radius"], cells, 24)
            assert _rel_err(row["removed_disk_area"], removed) <= 1e-9
        else:
            area, _ = preimage_sheet_area(m, row["collapse_s"], h_eff, HANDOFF_NECK_MAX, cells, 24)
        assert _rel_err(row["area"], area) <= 1e-9


@pytest.mark.parametrize("m", [2, 3])
def test_one_tube_area_is_the_all_tubes_sum(m):
    sl = doubled_slice(0.2, m)
    # the strips of the m^2 tubes close the slice's triangle list
    strips = sl.triangles[-m * m * 2 * TUBE_SEGMENTS * TUBE_RING_POINTS:]
    every = float(np.sum(_spherical_triangle_areas(sl.vertices, strips)))
    assert _rel_err(sl.area_parts["tubes"], every) <= 1e-13


def test_euler_characteristic_small_cases():
    # empty, one triangle, the open flat disk, and three triangles on one edge
    nonmanifold = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    cases = [
        (np.zeros((0, 3), dtype=np.int64), 0),
        (np.array([[0, 1, 2]]), 1),
        (flat_disk().triangles, 1),
        (nonmanifold, 5 - 7 + 3),
    ]
    for tris, chi in cases:
        assert euler_characteristic(tris) == _ref_euler_characteristic(tris) == chi


def _set_euler_characteristic(tris):
    # referenced vertices less distinct unordered edges plus triangles
    edges = {tuple(sorted(side)) for a, b, c in tris.tolist()
             for side in ((a, b), (b, c), (c, a))}
    return len(set(tris.ravel().tolist())) - len(edges) + len(tris)


@st.composite
def _triangle_list(draw, lo, hi):
    """Triangles on a few vertices spread over [0, base), base drawn from
    [lo, hi] and base - 1 always referenced, so the side keys reach the
    top of their type; indices in the gaps are unreferenced, and some
    triangles repeat."""
    base = draw(st.integers(lo, hi))
    k = draw(st.integers(3, min(base, 8)))
    ids = draw(st.lists(st.integers(0, base - 2), min_size=k - 1, max_size=k - 1, unique=True))
    ids = np.array(ids + [base - 1])
    corners = st.lists(st.integers(0, k - 1), min_size=3, max_size=3, unique=True)
    first = draw(st.lists(st.integers(0, k - 2), min_size=2, max_size=2, unique=True)) + [k - 1]
    tris = [first] + draw(st.lists(corners, max_size=12))
    tris += draw(st.lists(st.sampled_from(tris), max_size=4))
    return ids[np.array(tris)]


# the keys are uint8 up to base 15, uint16 up to 255, uint32 up to 65,535
# and int64 past it
@pytest.mark.parametrize("lo, hi", [(3, 15), (16, 255), (256, 65_535), (65_536, 1 << 17)],
                         ids=["uint8", "uint16", "uint32", "int64"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_euler_characteristic_matches_the_edge_set(lo, hi, data):
    tris = data.draw(_triangle_list(lo, hi))
    base = int(tris.max()) + 1
    assert lo <= base <= hi
    assert euler_characteristic(tris) == _set_euler_characteristic(tris)
    # a welded slice's int32 indices, read in place or widened
    assert euler_characteristic(tris.astype(np.int32)) == _set_euler_characteristic(tris)


@pytest.mark.parametrize("n", [3, 64, 66])
def test_torus_vertices_match_trig_over_every_vertex(n):
    t = 0.3
    a, b = math.sqrt(t), math.sqrt(1.0 - t)
    ang = 2.0 * np.pi * np.arange(n) / n
    th, ph = np.repeat(ang, n), np.tile(ang, n)
    verts = np.column_stack([a * np.cos(th), a * np.sin(th), b * np.cos(ph), b * np.sin(ph)])
    assert np.array_equal(product_torus(t, n).vertices, verts)


@pytest.mark.parametrize("n, m", [(3, 1), (5, 1), (64, 1), (66, 1)])
def test_chart_nodes_match_the_corner_reference_bytes(n, m):
    # the nodes built from their 1-D factors (reference_geometry.chart_axes)
    # against the barycenters of the chart triangles' corners, on the full
    # grid, m = 1 symmetry cells (the cells of order m > 1 were an option
    # that nothing read)
    for got, ref in zip(chart_nodes(n), corner_chart_nodes(n)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "n_theta, rings",
    [
        (64, np.linspace(1.0 / 16, 1.0, 16)),
        (3, np.array([0.5, 1.0])),
        (64, disk_mesh_rings(1e-2)),
        (64, disk_mesh_rings(1e-3)),
    ],
)
def test_flat_disk_matches_loop_reference(n_theta, rings):
    d = flat_disk(n_theta, rings)
    verts, tris, ring_of, radius_of = _ref_flat_disk(n_theta, rings)
    assert np.array_equal(d.vertices, verts)
    assert np.array_equal(d.triangles, tris)
    assert np.array_equal(d.aux["ring_of"], ring_of)
    assert np.array_equal(d.aux["radius_of"], radius_of)
    assert d.triangles.dtype == tris.dtype and d.aux["ring_of"].dtype == ring_of.dtype

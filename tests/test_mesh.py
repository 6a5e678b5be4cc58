import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catsweep.errors import DomainError
from catsweep.mesh import (
    AMBIENT_S3,
    MeshSurface,
    _unique_edges,
    cotan_stiffness,
    dirichlet_energy,
    euler_characteristic,
    geodesic_distances,
    level_set_perimeter,
    lumped_mass,
    triangle_areas,
)
from catsweep.surfaces import clifford_torus, product_torus

from reference_geometry import disk_mesh_rings, flat_disk, round_sphere

TWO_PI_SQ = 2.0 * math.pi ** 2


def _area(m):
    return float(np.sum(m.areas))


def test_clifford_triangle_area_second_order():
    rel64 = _area(clifford_torus(64)) / TWO_PI_SQ - 1.0
    rel128 = _area(clifford_torus(128)) / TWO_PI_SQ - 1.0
    assert abs(rel64) < 6e-4
    assert 3.0 < rel64 / rel128 < 5.0


def test_product_torus_areas():
    for t in (0.25, 0.5, 0.7):
        exact = 4.0 * math.pi ** 2 * math.sqrt(t * (1.0 - t))
        assert _area(product_torus(t, 64)) == pytest.approx(exact, rel=1e-3)


def test_disk_and_sphere_areas():
    assert _area(flat_disk()) == pytest.approx(math.pi, rel=2e-3)
    assert _area(round_sphere(4)) == pytest.approx(4.0 * math.pi, rel=2e-3)


def test_octant_triangle_spherical_area():
    # great-sphere octant: three mutually orthogonal unit vectors, excess pi/2
    verts = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    m = MeshSurface(
        vertices=verts,
        triangles=np.array([[0, 1, 2]]),
        ambient=AMBIENT_S3,
        a_norm2=np.zeros(3),
        ric_nn=np.zeros(3),
    )
    assert triangle_areas(m)[0] == pytest.approx(0.5 * math.pi, rel=1e-12)


def test_euler_characteristics():
    assert euler_characteristic(clifford_torus(32).triangles) == 0
    assert euler_characteristic(round_sphere(2).triangles) == 2
    assert euler_characteristic(flat_disk().triangles) == 1


def _loop_grid_triangles(n_rows, n_cols):
    # reference: the cell-by-cell loop the array mesher replaced
    tris = []
    for j in range(n_rows):
        j1 = (j + 1) % n_rows
        for k in range(n_cols):
            k1 = (k + 1) % n_cols
            v00 = j * n_cols + k
            v10 = j1 * n_cols + k
            v01 = j * n_cols + k1
            v11 = j1 * n_cols + k1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return np.array(tris, dtype=np.int64)


@pytest.mark.parametrize("n", [3, 5, 64, 66])
def test_torus_mesher_matches_loop_bytes(n):
    m = product_torus(0.3, n)
    want_tris = _loop_grid_triangles(n, n)
    assert m.triangles.dtype == want_tris.dtype
    assert m.triangles.tobytes() == want_tris.tobytes()


# triangles over a few vertex ids: some ids go unused, and a triangle may
# repeat an id
_TRIANGLE_LISTS = st.lists(
    st.tuples(*[st.integers(min_value=0, max_value=11)] * 3), min_size=1, max_size=24
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tris=_TRIANGLE_LISTS)
def test_edge_and_euler_counts_match_sets(tris):
    edges = {(min(a, b), max(a, b)) for tri in tris for a, b in zip(tri, tri[1:] + tri[:1])}
    vertices = {v for tri in tris for v in tri}
    arr = np.array(tris, dtype=np.int64)
    assert euler_characteristic(arr) == len(vertices) - len(edges) + len(tris)
    pairs = np.vstack([arr[:, [0, 1]], arr[:, [1, 2]], arr[:, [2, 0]]])
    base = int(arr.max()) + 1
    keys = np.unique(pairs.min(axis=1) * base + pairs.max(axis=1))
    want = np.column_stack([keys // base, keys % base])
    got = _unique_edges(arr)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert [tuple(e) for e in got] == sorted(edges)


def test_validation_rejects_bad_input():
    cl = clifford_torus(8)
    with pytest.raises(DomainError):
        MeshSurface(
            vertices=cl.vertices * 1.001,  # off the sphere
            triangles=cl.triangles,
            ambient=AMBIENT_S3,
            a_norm2=cl.a_norm2,
            ric_nn=cl.ric_nn,
        )
    with pytest.raises(DomainError):
        MeshSurface(
            vertices=cl.vertices,
            triangles=np.array([[0, 1, 1]]),  # zero-area triangle
            ambient=AMBIENT_S3,
            a_norm2=cl.a_norm2,
            ric_nn=cl.ric_nn,
        )


def test_cotan_energy_of_linear_field():
    # PL interpolation reproduces linear fields, so the energy is the area
    d = flat_disk()
    f = d.vertices[:, 0]
    assert dirichlet_energy(d, f) == pytest.approx(_area(d), rel=1e-12)
    s = cotan_stiffness(d)
    assert np.max(np.abs(s @ np.ones(d.n_vertices))) < 1e-12


def test_lumped_mass_totals_area():
    cl = clifford_torus(32)
    assert np.sum(lumped_mass(cl)) == pytest.approx(_area(cl), rel=1e-12)


def test_geodesic_distance_radial_disk_exact():
    dk = flat_disk(64, disk_mesh_rings(0.1))
    dist = geodesic_distances(dk, 0)
    r = dk.aux["radius_of"]
    assert np.max(np.abs(dist[1:] - r[1:])) < 1e-12


def test_geodesic_distance_on_torus():
    cl = clifford_torus(64)
    n = cl.aux["grid_n"]
    dist = geodesic_distances(cl, 0)
    # along the theta circle of radius 1/sqrt(2), eight cells away
    expect = 8 * (2.0 * math.pi / n) / math.sqrt(2.0)
    assert dist[8 * n] == pytest.approx(expect, rel=2e-2)


def test_level_set_perimeter_circle():
    dk = flat_disk(64, disk_mesh_rings(0.1))
    dist = geodesic_distances(dk, 0)
    per = level_set_perimeter(dk, dist, 0.37)
    assert isinstance(per, float)
    assert per == pytest.approx(2.0 * math.pi * 0.37, rel=2e-2)
    # the value of the triangle-by-triangle loop the array form replaced
    assert per == pytest.approx(2.323845056146516, rel=1e-14)


def test_push_matches_parallel_torus():
    # the great circles cos(s)p + sin(s)N from the Clifford torus's analytic
    # normals land on the product torus at (1 + sin 2s)/2; at p = (z, w) the
    # unit normal tangent to S^3 is (z, -w)
    cl = clifford_torus(32)
    s = 0.1
    t_new = 0.5 * (1.0 + math.sin(2.0 * s))
    normals = cl.vertices * np.array([1.0, 1.0, -1.0, -1.0])
    pushed = math.cos(s) * cl.vertices + math.sin(s) * normals
    assert np.max(np.abs(pushed - product_torus(t_new, 32).vertices)) < 1e-12

"""Built-in meshed surfaces with analytic normals and curvature.

Each builder returns a MeshSurface whose aux dictionary carries principal
curvatures and frames (for the metric jet), the ambient curvature constant,
and whatever structural extras the surface supports: ring layout on the
flat disk, chart coordinates on product tori.
"""

import math

import numpy as np

from .errors import DomainError
from .mesh import AMBIENT_R3, AMBIENT_S3, MeshSurface


def _grid_triangles(n_rows, n_cols, wrap_rows, wrap_cols):
    """Two triangles per grid cell, cells in row-major order.

    Cell (j, k) with corners v00 = (j, k), v10 = (j+1, k), v01 = (j, k+1),
    v11 = (j+1, k+1) gives (v00, v10, v11) then (v00, v11, v01); a wrapped
    axis also joins its last row (column) to its first.
    """
    j = np.arange(n_rows if wrap_rows else n_rows - 1, dtype=np.int64)
    k = np.arange(n_cols if wrap_cols else n_cols - 1, dtype=np.int64)
    r0 = (j * n_cols)[:, None]
    r1 = ((j + 1) % n_rows * n_cols)[:, None]
    k1 = (k + 1) % n_cols
    v00, v10, v01, v11 = r0 + k, r1 + k, r0 + k1, r1 + k1
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=-1)
    return cells.reshape(-1, 3)


def disk_rings_for_cutoff(t, per_decade=8):
    """Ring radii resolving the annulus [t^2, t] in log scale, out to 1.

    Includes t^2 and t exactly, plus a couple of interior rings below t^2,
    so a cutoff at outer radius t is piecewise log-linear on ring values.
    """
    if not 0.0 < t < 1.0:
        raise DomainError("cutoff radius must sit in (0, 1), got t = %s" % t)
    inner = [0.25 * t * t, 0.5 * t * t]
    n1 = max(4, int(math.ceil(per_decade * (-math.log10(t)))))
    annulus = np.geomspace(t * t, t, n1 + 1)
    n2 = max(4, int(math.ceil(per_decade * (-math.log10(t)))))
    outer = np.geomspace(t, 1.0, n2 + 1)
    rings = np.concatenate([inner, annulus, outer[1:]])
    return np.unique(rings)


def flat_disk(n_theta=64, rings=None):
    """Unit disk in the z = 0 plane, center vertex plus concentric rings."""
    if rings is None:
        rings = np.linspace(1.0 / 16, 1.0, 16)
    rings = np.asarray(rings, dtype=float)
    if rings.ndim != 1 or rings.size < 2 or np.any(np.diff(rings) <= 0) or rings[0] <= 0:
        raise DomainError("ring radii must be positive and increasing")
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    verts = [np.zeros(3)]
    ring_of = [-1]
    radius_of = [0.0]
    for ri, r in enumerate(rings):
        for th in theta:
            verts.append(np.array([r * math.cos(th), r * math.sin(th), 0.0]))
            ring_of.append(ri)
            radius_of.append(r)
    verts = np.array(verts)
    tris = []
    for k in range(n_theta):
        k1 = (k + 1) % n_theta
        tris.append((0, 1 + k, 1 + k1))
    for ri in range(len(rings) - 1):
        base0 = 1 + ri * n_theta
        base1 = 1 + (ri + 1) * n_theta
        for k in range(n_theta):
            k1 = (k + 1) % n_theta
            tris.append((base0 + k, base1 + k, base1 + k1))
            tris.append((base0 + k, base1 + k1, base0 + k1))
    tris = np.array(tris, dtype=np.int64)
    n = len(verts)
    normals = np.tile([0.0, 0.0, 1.0], (n, 1))
    mesh = MeshSurface(
        vertices=verts,
        triangles=tris,
        ambient=AMBIENT_R3,
        vertex_normals=normals,
        a_norm2=np.zeros(n),
        ric_nn=np.zeros(n),
    )
    frames = np.zeros((n, 2, 3))
    frames[:, 0, 0] = 1.0
    frames[:, 1, 1] = 1.0
    mesh.aux.update(
        radial=True,
        rings=rings,
        ring_of=np.array(ring_of),
        radius_of=np.array(radius_of),
        center_vertex=0,
        n_theta=n_theta,
        shape_kappa=np.zeros((n, 2)),
        shape_frames=frames,
        ambient_curvature=0.0,
        disk_radius_bound=float(rings[-1]),
        name="flat_disk",
    )
    return mesh


def product_torus(t, n=64):
    """The torus {|z|^2 = t} in the round S^3 on an n-by-n chart grid."""
    if not 0.0 < t < 1.0:
        raise DomainError("torus parameter must sit strictly inside (0, 1)")
    if n < 3:
        raise DomainError("torus grid size n must be at least 3, got n = %d" % n)
    a = math.sqrt(t)
    b = math.sqrt(1.0 - t)
    ang = 2.0 * np.pi * np.arange(n) / n
    th = np.repeat(ang, n)
    ph = np.tile(ang, n)
    verts = np.column_stack(
        [a * np.cos(th), a * np.sin(th), b * np.cos(ph), b * np.sin(ph)]
    )
    normals = np.column_stack(
        [b * np.cos(th), b * np.sin(th), -a * np.cos(ph), -a * np.sin(ph)]
    )
    tris = _grid_triangles(n, n, True, True)
    n_v = n * n
    k1 = -b / a  # curvature of the theta circles toward the chosen normal
    k2 = a / b
    a2 = k1 * k1 + k2 * k2
    mesh = MeshSurface(
        vertices=verts,
        triangles=tris,
        ambient=AMBIENT_S3,
        vertex_normals=normals,
        a_norm2=np.full(n_v, a2),
        ric_nn=np.full(n_v, 2.0),
    )
    # chart corners per triangle, unwrapped across the periodic seam, in
    # the cell order of _grid_triangles
    d = 2.0 * np.pi / n
    lo = np.arange(n) * d
    hi = np.arange(1, n + 1) * d
    u0, u1 = np.repeat(lo, n), np.repeat(hi, n)
    v0, v1 = np.tile(lo, n), np.tile(hi, n)
    uv_corners = np.stack([u0, v0, u1, v0, u1, v1, u0, v0, u1, v1, u0, v1], axis=-1)
    uv_corners = uv_corners.reshape(-1, 3, 2)
    mesh.chart_uv_corners = uv_corners
    mesh.chart_sqrtg = np.full(n_v, a * b)
    omega = math.asin(2.0 * t - 1.0)
    mesh.normal_validity = 0.5 * (0.5 * math.pi - abs(omega))
    frames = np.zeros((n_v, 2, 4))
    frames[:, 0, 0] = -np.sin(th)
    frames[:, 0, 1] = np.cos(th)
    frames[:, 1, 2] = -np.sin(ph)
    frames[:, 1, 3] = np.cos(ph)
    kappa = np.tile([k1, k2], (n_v, 1))
    mesh.aux.update(
        shape_kappa=kappa,
        shape_frames=frames,
        ambient_curvature=1.0,
        chart_theta=th,
        chart_phi=ph,
        grid_n=n,
        torus_t=t,
        disk_radius_bound=0.5 * math.pi * min(a, b),
        name="product_torus",
    )
    return mesh


def flat_torus_gap(t, dtheta, dphi, period):
    """Flat distance on the torus {|z|^2 = t} between chart points.

    The torus is isometric to the plane with metric t dtheta^2 +
    (1 - t) dphi^2 modulo a lattice; each angle offset is wrapped to its
    nearest copy modulo period (2 pi for the torus itself).
    """
    a = np.remainder(dtheta, period)
    a = np.minimum(a, period - a)
    b = np.remainder(dphi, period)
    b = np.minimum(b, period - b)
    return np.sqrt(t * a * a + (1.0 - t) * b * b)


def torus_distances(m, source):
    """Exact intrinsic distance from one vertex of a product_torus mesh."""
    if "torus_t" not in m.aux:
        raise DomainError(
            "exact distances need a product torus, got mesh %r" % m.aux.get("name", "mesh")
        )
    th = m.aux["chart_theta"]
    ph = m.aux["chart_phi"]
    return flat_torus_gap(m.aux["torus_t"], th - th[source], ph - ph[source], 2.0 * math.pi)


def clifford_torus(n=64):
    mesh = product_torus(0.5, n)
    mesh.aux["name"] = "clifford_torus"
    return mesh


def catenoid_patch(c=1.0, half_span=1.0, n_x=96, n_theta=96):
    """Catenoid f(x) = c*cosh(x/c) for |x| <= half_span, full revolution."""
    if c <= 0 or half_span <= 0:
        raise DomainError("catenoid patch needs positive scale and span")
    xs = np.linspace(-half_span, half_span, n_x + 1)
    ang = 2.0 * np.pi * np.arange(n_theta) / n_theta
    x = np.repeat(xs, n_theta)
    th = np.tile(ang, n_x + 1)
    f = c * np.cosh(x / c)
    fp = np.sinh(x / c)
    verts = np.column_stack([x, f * np.cos(th), f * np.sin(th)])
    root = np.sqrt(1.0 + fp * fp)
    normals = np.column_stack([fp / root, -np.cos(th) / root, -np.sin(th) / root])
    tris = _grid_triangles(n_x + 1, n_theta, False, True)
    n_v = len(verts)
    sech2 = 1.0 / np.cosh(x / c) ** 2
    kap = sech2 / c
    mesh = MeshSurface(
        vertices=verts,
        triangles=tris,
        ambient=AMBIENT_R3,
        vertex_normals=normals,
        a_norm2=2.0 * kap * kap,
        ric_nn=np.zeros(n_v),
    )
    frames = np.zeros((n_v, 2, 3))
    # meridian direction
    frames[:, 0, 0] = 1.0 / root
    frames[:, 0, 1] = fp * np.cos(th) / root
    frames[:, 0, 2] = fp * np.sin(th) / root
    # circle direction
    frames[:, 1, 1] = -np.sin(th)
    frames[:, 1, 2] = np.cos(th)
    kappa = np.column_stack([-kap, kap])
    mesh.normal_validity = float(c)
    mesh.aux.update(
        shape_kappa=kappa,
        shape_frames=frames,
        ambient_curvature=0.0,
        disk_radius_bound=float(half_span),
        name="catenoid_patch",
    )
    return mesh


def round_sphere(subdiv=4, radius=1.0):
    """Unit-style sphere in R^3 from a subdivided icosahedron."""
    if radius <= 0:
        raise DomainError("sphere radius must be positive")
    g = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, g, 0), (1, g, 0), (-1, -g, 0), (1, -g, 0),
            (0, -1, g), (0, 1, g), (0, -1, -g), (0, 1, -g),
            (g, 0, -1), (g, 0, 1), (-g, 0, -1), (-g, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    tris = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    for _ in range(subdiv):
        cache = {}
        new_tris = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                v = np.array(verts[i]) + np.array(verts[j])
                v /= np.linalg.norm(v)
                verts.append(tuple(v))
                cache[key] = len(verts) - 1
            return cache[key]

        for (i, j, k) in tris:
            a = midpoint(i, j)
            b = midpoint(j, k)
            c = midpoint(k, i)
            new_tris.extend([(i, a, c), (j, b, a), (k, c, b), (a, b, c)])
        tris = new_tris
    verts = np.array(verts) * radius
    tris = np.array(tris, dtype=np.int64)
    n_v = len(verts)
    normals = verts / radius
    mesh = MeshSurface(
        vertices=verts,
        triangles=tris,
        ambient=AMBIENT_R3,
        vertex_normals=normals,
        a_norm2=np.full(n_v, 2.0 / radius ** 2),
        ric_nn=np.zeros(n_v),
    )
    # arbitrary orthonormal tangent frames; curvature is isotropic anyway
    ref = np.tile([1.0, 0.0, 0.0], (n_v, 1))
    flip = np.abs(normals[:, 0]) > 0.9
    ref[flip] = [0.0, 1.0, 0.0]
    e1 = ref - np.sum(ref * normals, axis=1)[:, None] * normals
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(normals, e1)
    frames = np.stack([e1, e2], axis=1)
    kappa = np.full((n_v, 2), -1.0 / radius)
    mesh.normal_validity = float(radius)
    mesh.aux.update(
        shape_kappa=kappa,
        shape_frames=frames,
        ambient_curvature=0.0,
        disk_radius_bound=0.5 * math.pi * radius,
        name="round_sphere",
    )
    return mesh

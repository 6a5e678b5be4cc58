"""Built-in meshed surfaces with analytic normals and curvature.

Each builder returns a MeshSurface with the analytic |A|^2 and Ric(N, N)
per vertex; its aux dictionary carries the radius of the largest embedded
disk and whatever structural extras the surface supports: ring layout on
the flat disk, chart coordinates and exact distances on product tori.
"""

import math
import sys

import numpy as np

from .errors import DomainError
from .mesh import AMBIENT_R3, AMBIENT_S3, MeshSurface


def _grid_triangles(n_rows, n_cols):
    """Two triangles per cell of a grid wrapped along both axes, cells in
    row-major order.

    Cell (j, k) with corners v00 = (j, k), v10 = (j+1, k), v01 = (j, k+1),
    v11 = (j+1, k+1) gives (v00, v10, v11) then (v00, v11, v01); the last
    row (column) joins the first.
    """
    j = np.arange(n_rows, dtype=np.int64)
    k = np.arange(n_cols, dtype=np.int64)
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
    if (0.25 * t * t) ** 4 < sys.float_info.min:
        # triangle areas multiply four coordinates of the innermost ring
        raise DomainError(
            "cutoff radius too small for the disk mesh (the innermost ring"
            " 0.25*t^2 needs a normal 4th power), got t = %s" % t
        )
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
    # math.cos/math.sin once per angle, broadcast over the rings
    cos_t = np.array([math.cos(th) for th in theta])
    sin_t = np.array([math.sin(th) for th in theta])
    n_rings = len(rings)
    verts = np.zeros((1 + n_rings * n_theta, 3))
    verts[1:, 0] = (rings[:, None] * cos_t).ravel()
    verts[1:, 1] = (rings[:, None] * sin_t).ravel()
    ring_of = np.concatenate([[-1], np.repeat(np.arange(n_rings), n_theta)])
    radius_of = np.concatenate([[0.0], np.repeat(rings, n_theta)])
    # the center fan, then two triangles per cell between rings ri and ri + 1
    k = np.arange(n_theta, dtype=np.int64)
    k1 = (k + 1) % n_theta
    fan = np.column_stack([np.zeros(n_theta, dtype=np.int64), 1 + k, 1 + k1])
    base0 = (1 + np.arange(n_rings - 1, dtype=np.int64) * n_theta)[:, None]
    base1 = base0 + n_theta
    cells = np.stack(
        [base0 + k, base1 + k, base1 + k1, base0 + k, base1 + k1, base0 + k1], axis=-1
    )
    tris = np.concatenate([fan, cells.reshape(-1, 3)])
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
    mesh.aux.update(
        radial=True,
        rings=rings,
        ring_of=ring_of,
        radius_of=radius_of,
        center_vertex=0,
        n_theta=n_theta,
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
    # trig of the n grid angles, spread over the n^2 vertices
    cos_a, sin_a = np.cos(ang), np.sin(ang)
    verts = np.column_stack(
        [np.repeat(a * cos_a, n), np.repeat(a * sin_a, n),
         np.tile(b * cos_a, n), np.tile(b * sin_a, n)]
    )
    normals = np.column_stack(
        [np.repeat(b * cos_a, n), np.repeat(b * sin_a, n),
         np.tile(-a * cos_a, n), np.tile(-a * sin_a, n)]
    )
    tris = _grid_triangles(n, n)
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
    mesh.aux.update(
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

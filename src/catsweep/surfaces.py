"""Built-in meshed surfaces with analytic curvature, and the ring radii of
the flat disk's cutoff band.

Each builder returns a MeshSurface of a product torus in the round S^3,
with the analytic |A|^2 and Ric(N, N) per vertex; its aux dictionary
carries the radius of the largest embedded disk and the chart coordinates
the exact distances read; the doubled witness slice reads the points
alone, from `_torus_vertices`, at every grid index or only at the
corners its areas read.  The flat disk is not meshed: criterion 7
sums its cutoff energy over `disk_rings_for_cutoff`.
"""

import math
import sys

import numpy as np

from .errors import DomainError
from .mesh import AMBIENT_S3, MeshSurface


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


def _grid_star(n, i, j):
    """The six `_grid_triangles(n, n)` indices around vertex (i, j), in
    ascending order along the last axis; i and j broadcast.

    The vertex is v00 of both triangles of cell (i, j), v10 of the first
    of cell (i-1, j), v01 of the second of cell (i, j-1) and v11 of both
    of cell (i-1, j-1), indices taken mod n.
    """
    i = np.asarray(i, dtype=np.int64)[..., None]
    j = np.asarray(j, dtype=np.int64)[..., None]
    up, left = (i - 1) % n, (j - 1) % n
    cells = np.concatenate([i * n + j, up * n + j, i * n + left, up * n + left], axis=-1)
    star = 2 * cells[..., [0, 0, 1, 2, 3, 3]] + np.array([0, 1, 0, 1, 0, 1])
    return np.sort(star, axis=-1)


def check_cutoff_radius(t):
    """Refuse a cutoff radius outside (0, 1), or whose band's inner radius
    t^2 is no normal double."""
    if not 0.0 < t < 1.0:
        raise DomainError("cutoff radius must sit in (0, 1), got t = %s" % t)
    if t * t < sys.float_info.min:
        raise DomainError("cutoff radius too small: t^2 is no normal double, got t = %s" % t)


def disk_rings_for_cutoff(t):
    """Ring radii of the cutoff band [t^2, t] of the flat disk, t^2 and t
    included: log-spaced, 8 a decade and at least 4 intervals.

    A log cutoff is linear in log r between them, so its Dirichlet energy
    is a ring sum over them (`acceptance.cutoff_disk`).
    """
    check_cutoff_radius(t)
    return np.geomspace(t * t, t, max(4, math.ceil(8 * (-math.log10(t)))) + 1)


# the finest chart grid: a command holds a few dozen n^2-node float arrays
# at once, about 750 bytes a grid vertex at the peak of `doubling sweep`
# (51 MB at n = 128, 87 MB at 256), so about 0.25 GB here
MAX_GRID_N = 512


def check_grid(n):
    """Refuse a chart grid too coarse to triangulate the torus, or finer
    than MAX_GRID_N, before any n^2-node array is built."""
    if n < 3:
        raise DomainError("torus grid size n must be at least 3, got n = %d" % n)
    if n > MAX_GRID_N:
        raise DomainError("torus grid size n must be at most %d, got n = %d" % (MAX_GRID_N, n))


def _torus_vertices(t, ang, i=None, j=None):
    """The points of the torus {|z|^2 = t} at the chart angles (ang[i],
    ang[j]), the index arrays i and j broadcast against each other and the
    points flattened in their order.  By default i runs over the rows and
    j over the columns of the grid, theta the slow index: vertex i * n + j
    sits at (ang[i], ang[j]), the layout of `_grid_triangles(n, n)`."""
    a = math.sqrt(t)
    b = math.sqrt(1.0 - t)
    if i is None:
        i, j = np.ogrid[:len(ang), :len(ang)]
    # trig of the n grid angles, gathered at the given indices
    cos_a, sin_a = np.cos(ang), np.sin(ang)
    pts = np.empty(np.broadcast_shapes(np.shape(i), np.shape(j)) + (4,))
    pts[..., 0] = a * cos_a[i]
    pts[..., 1] = a * sin_a[i]
    pts[..., 2] = b * cos_a[j]
    pts[..., 3] = b * sin_a[j]
    return pts.reshape(-1, 4)


def product_torus(t, n=64):
    """The torus {|z|^2 = t} in the round S^3 on an n-by-n chart grid."""
    if not 0.0 < t < 1.0:
        raise DomainError("torus parameter must sit strictly inside (0, 1)")
    check_grid(n)
    a = math.sqrt(t)
    b = math.sqrt(1.0 - t)
    ang = 2.0 * np.pi * np.arange(n) / n
    th = np.repeat(ang, n)
    ph = np.tile(ang, n)
    verts = _torus_vertices(t, ang)
    tris = _grid_triangles(n, n)
    n_v = n * n
    k1 = -b / a  # curvature of the theta circles toward the chosen normal
    k2 = a / b
    a2 = k1 * k1 + k2 * k2
    mesh = MeshSurface(
        vertices=verts,
        triangles=tris,
        ambient=AMBIENT_S3,
        a_norm2=np.full(n_v, a2),
        ric_nn=np.full(n_v, 2.0),
    )
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

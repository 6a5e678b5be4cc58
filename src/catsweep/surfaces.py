"""Built-in meshed surfaces with analytic curvature, and the ring radii of
the flat disk's cutoff band.

Each builder returns a MeshSurface of a product torus in the round S^3,
with the analytic |A|^2 and Ric(N, N) per vertex; its aux dictionary
carries the radius of the largest embedded disk and the chart coordinates
the exact distances read.  The flat disk is not meshed: criterion 7 sums
its cutoff energy over `disk_rings_for_cutoff`.
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


def disk_rings_for_cutoff(t):
    """Ring radii of the cutoff band [t^2, t] of the flat disk, t^2 and t
    included: log-spaced, 8 a decade and at least 4 intervals.

    A log cutoff is linear in log r between them, so its Dirichlet energy
    is a ring sum over them (`acceptance.cutoff_disk`).
    """
    if not 0.0 < t < 1.0:
        raise DomainError("cutoff radius must sit in (0, 1), got t = %s" % t)
    if t * t < sys.float_info.min:
        raise DomainError("cutoff radius too small: t^2 is no normal double, got t = %s" % t)
    return np.geomspace(t * t, t, max(4, math.ceil(8 * (-math.log10(t)))) + 1)


def check_grid(n):
    """Refuse a chart grid too coarse to triangulate the torus."""
    if n < 3:
        raise DomainError("torus grid size n must be at least 3, got n = %d" % n)


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
    # trig of the n grid angles, spread over the n^2 vertices
    cos_a, sin_a = np.cos(ang), np.sin(ang)
    verts = np.column_stack(
        [np.repeat(a * cos_a, n), np.repeat(a * sin_a, n),
         np.tile(b * cos_a, n), np.tile(b * sin_a, n)]
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

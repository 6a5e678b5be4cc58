"""Test-only references no package code calls.

The flat disk and the round sphere give meshes with known area, Euler
characteristic, distances and (the sphere) Jacobi spectrum; the cotangent
quadratic form of the second variation is what the chart quadrature of
the offset area is checked against; the chart triangles' corners, cell by
cell, are what the chart quadrature's nodes were first read off; the
full-grid sheet quadrature is what the doubled family's one-cell
quadrature replaced.
"""

import math

import numpy as np

from catsweep.doubling import _chart_center_gap, _retract_uv
from catsweep.fermi import chart_nodes, log_cutoff, sheet_elements
from catsweep.mesh import AMBIENT_R3, MeshSurface, dirichlet_energy, lumped_mass
from catsweep.surfaces import disk_rings_for_cutoff


def quadratic_form(m, phi):
    """Q(phi) = integral of |grad phi|^2 - phi^2 (|A|^2 + Ric(N,N))."""
    phi = np.asarray(phi, dtype=float)
    q = m.a_norm2 + m.ric_nn
    return dirichlet_energy(m, phi) - float(np.sum(lumped_mass(m) * phi * phi * q))


def disk_mesh_rings(t):
    """Rings of a flat disk mesh about a cutoff at t: two inside t^2, the
    band disk_rings_for_cutoff(t), and as many log-spaced from t out to 1."""
    band = disk_rings_for_cutoff(t)
    outer = np.geomspace(t, 1.0, len(band))
    return np.unique(np.concatenate([[0.25 * t * t, 0.5 * t * t], band, outer[1:]]))


def flat_disk(n_theta=64, rings=None):
    """Unit disk in the z = 0 plane, center vertex plus concentric rings."""
    if rings is None:
        rings = np.linspace(1.0 / 16, 1.0, 16)
    rings = np.asarray(rings, dtype=float)
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
    mesh = MeshSurface(
        vertices=verts,
        triangles=tris,
        ambient=AMBIENT_R3,
        a_norm2=np.zeros(n),
        ric_nn=np.zeros(n),
    )
    mesh.aux.update(ring_of=ring_of, radius_of=radius_of, name="flat_disk")
    return mesh


def round_sphere(subdiv=4):
    """Unit sphere in R^3 from a subdivided icosahedron."""
    g = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, g, 0), (1, g, 0), (-1, -g, 0), (1, -g, 0),
        (0, -1, g), (0, 1, g), (0, -1, -g), (0, 1, -g),
        (g, 0, -1), (g, 0, 1), (-g, 0, -1), (-g, 0, 1),
    ]
    verts = [np.array(v, dtype=float) / math.sqrt(1.0 + g * g) for v in verts]
    tris = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdiv):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                v = verts[i] + verts[j]
                verts.append(v / np.linalg.norm(v))
                cache[key] = len(verts) - 1
            return cache[key]

        new_tris = []
        for i, j, k in tris:
            a, b, c = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_tris.extend([(i, a, c), (j, b, a), (k, c, b), (a, b, c)])
        tris = new_tris
    verts = np.array(verts)
    n_v = len(verts)
    mesh = MeshSurface(
        vertices=verts,
        triangles=np.array(tris, dtype=np.int64),
        ambient=AMBIENT_R3,
        a_norm2=np.full(n_v, 2.0),
        ric_nn=np.zeros(n_v),
    )
    mesh.aux.update(disk_radius_bound=0.5 * math.pi, name="round_sphere")
    return mesh


def chart_corners(n):
    """Chart corners (theta, phi) of the 2 n^2 triangles of the n-by-n torus
    grid, unwrapped across the periodic seam: per cell, in row-major order,
    (u0, v0) (u1, v0) (u1, v1) then (u0, v0) (u1, v1) (u0, v1)."""
    d = 2.0 * np.pi / n
    uv_corners = np.zeros((2 * n * n, 3, 2))
    idx = 0
    for j in range(n):
        for k in range(n):
            u0, u1 = j * d, (j + 1) * d
            v0, v1 = k * d, (k + 1) * d
            uv_corners[idx] = [[u0, v0], [u1, v0], [u1, v1]]
            uv_corners[idx + 1] = [[u0, v0], [u1, v1], [u0, v1]]
            idx += 2
    return uv_corners


def corner_chart_nodes(n):
    """The barycenters and chart areas of the chart_corners triangles."""
    uv = chart_corners(n)
    du = uv[:, 1, :] - uv[:, 0, :]
    dv = uv[:, 2, :] - uv[:, 0, :]
    return (
        uv[:, :, 0].mean(axis=1),
        uv[:, :, 1].mean(axis=1),
        0.5 * np.abs(du[:, 0] * dv[:, 1] - du[:, 1] * dv[:, 0]),
    )


def full_grid_sheet_area(n, m, s, h_eff, t_neck):
    """doubling._sheet_area over every chart node of the n-grid, not one cell.

    Same integrand and excision; nodes are the barycenters of all 2 n^2
    chart triangles, and every row recomputes them.  Returns the area of
    both sheets and the flat area of the nodes one sheet excises.
    """
    th, ph, uv_area = chart_nodes(n)
    keep = _chart_center_gap(m, th, ph) > t_neck * t_neck
    th, ph, w = th[keep], ph[keep], uv_area[keep]
    th2, ph2 = _retract_uv(m, s, th, ph)
    half = math.pi / m
    cell = 2.0 * half
    rho = np.maximum(np.abs(th % cell - half), np.abs(ph % cell - half)) / half
    jac = (1.0 - s) * ((1.0 - s) + s / rho)
    gap = _chart_center_gap(m, th2, ph2)
    scale = (1.0 - s) * h_eff
    f = scale * log_cutoff(gap, t_neck)
    band = (gap > t_neck * t_neck) & (gap < t_neck)
    k = np.where(band, (scale / math.log(t_neck)) ** 2 / (4.0 * gap ** 4), 0.0)
    a = th2 % cell - half
    b = ph2 % cell - half
    plus, minus = sheet_elements(f, k * a * a, k * b * b)
    return float(np.sum(w * jac * (plus + minus))), 0.5 * float(np.sum(uv_area[~keep]))

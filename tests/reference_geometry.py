"""Test-only references no package code calls.

The round sphere gives meshes with known area, Euler characteristic and
Jacobi spectrum; the cotangent quadratic form of the second variation is
what the chart quadrature of the offset area is checked against; the
full-grid sheet quadrature is what the doubled family's one-cell
quadrature replaced.
"""

import math

import numpy as np

from catsweep.doubling import _chart_center_gap, _retract_uv
from catsweep.fermi import chart_nodes, log_cutoff, sheet_elements
from catsweep.mesh import AMBIENT_R3, MeshSurface, dirichlet_energy, lumped_mass


def quadratic_form(m, phi):
    """Q(phi) = integral of |grad phi|^2 - phi^2 (|A|^2 + Ric(N,N))."""
    phi = np.asarray(phi, dtype=float)
    q = m.a_norm2 + m.ric_nn
    return dirichlet_energy(m, phi) - float(np.sum(lumped_mass(m) * phi * phi * q))


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
        vertex_normals=verts.copy(),
        a_norm2=np.full(n_v, 2.0),
        ric_nn=np.zeros(n_v),
    )
    mesh.aux.update(disk_radius_bound=0.5 * math.pi, name="round_sphere")
    return mesh


def full_grid_sheet_area(cl, m, s, h_eff, t_neck):
    """doubling._sheet_area over every chart node of cl, not one cell.

    Same integrand and excision; nodes are the barycenters of all 2 n^2
    chart triangles, and every row recomputes them.  Returns the area of
    both sheets and the flat area of the nodes one sheet excises.
    """
    th, ph, uv_area = chart_nodes(cl)
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

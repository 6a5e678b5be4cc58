"""Test-only references no package code calls.

The flat disk and the round sphere give meshes with known area, Euler
characteristic, distances and (the sphere) Jacobi spectrum; the cotangent
quadratic form of the second variation is what the chart quadrature of
the offset area is checked against; the chart triangles' corners, cell by
cell, are what the chart quadrature's nodes (chart_nodes, built from its
1-D factors chart_axes) were first read off; the contraction over every
chart node is the grid form of the second variation that its per-mode
diagonal replaced.
The doubled family's sheet rows are checked against their preimage form:
the embedded sheets over the retraction of each symmetry cell
(retract_uv), measured by the metric of the embedding with
central-difference partials, over the cells less their excised disks.
The catenoid's roots are checked against the closure-based bisection
(bisect_root, catenoid_roots) that the solver's one inline loop replaced.
The welded witness slice's area parts, summed once per congruence class,
are checked against the sum over every triangle (per_triangle_area_parts),
its collar zip against the merge walk it replaced (bridge_cycles_walk),
and the doubled family's symmetries against their action on R^4
(group_matrix).
"""

import math

import numpy as np

from catsweep.catenoid import _log_cosh
from catsweep.doubling import TUBE_RING_POINTS, TUBE_SEGMENTS
from catsweep.errors import DomainError
from catsweep.fermi import (
    SECOND_VARIATION_EPS,
    log_cutoff,
    sheet_elements,
)
from catsweep.mesh import (
    AMBIENT_R3,
    MeshSurface,
    _spherical_triangle_areas,
    dirichlet_energy,
    lumped_mass,
)
from catsweep.surfaces import check_grid, disk_rings_for_cutoff, flat_torus_gap


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


def chart_axes(n):
    """The 1-D factors of the midpoint nodes of the n-by-n chart grid: the
    thirds of the grid intervals [j d, (j+1) d), d = 2 pi/n, and their
    lengths.

    Each cell of the grid holds two triangles, (u0, v0) (u1, v0) (u1, v1)
    then (u0, v0) (u1, v1) (u0, v1).  Returns (theta, phi) of the first
    triangles' barycenters, (u0+2u1)/3 and (2v0+v1)/3, then those of the
    second, (2u0+u1)/3 and (v0+2v1)/3, each summed in the order of the
    triangle's corners, and the lengths.  Each triangle's chart area is
    half the product of its cell's lengths.
    """
    d = 2.0 * np.pi / n
    lo = np.arange(n) * d
    hi = np.arange(1, n + 1) * d
    return (((lo + hi + hi) / 3.0, (lo + lo + hi) / 3.0),
            ((lo + hi + lo) / 3.0, (lo + hi + hi) / 3.0), hi - lo)


def chart_nodes(n):
    """Midpoint nodes of the n-by-n chart grid of the middle torus: the
    barycenters (theta, phi) of its triangles and their chart areas.

    Each cell [j d, (j+1) d) x [k d, (k+1) d), d = 2 pi/n, in row-major
    order holds two triangles, (u0, v0) (u1, v0) (u1, v1) then (u0, v0)
    (u1, v1) (u0, v1), the triangles of the product torus mesh.  The
    first triangles' nodes form one tensor grid and the second triangles'
    another (chart_axes).
    """
    check_grid(n)
    (th0, ph0), (th1, ph1), du = chart_axes(n)
    return (
        np.stack([np.repeat(th0, n), np.repeat(th1, n)], axis=-1).ravel(),
        np.stack([np.tile(ph0, n), np.tile(ph1, n)], axis=-1).ravel(),
        np.repeat(np.outer(0.5 * du, du).ravel(), 2),
    )


def bisect_root(g, lo, hi, sign_lo):
    """The midpoint of [lo, hi] once it rounds to an end, halving the
    bracket on which g changes sign, g having the sign sign_lo at lo."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if g(mid) * sign_lo > 0.0:
            lo = mid
        else:
            hi = mid


def catenoid_roots(r, h):
    """The roots (x_small, x_large) in x = h/c of cosh(x) = (r/h) x, by
    bisect_root on a closure of the residual log cosh(x) - log(lam x), on
    the brackets catenoid.solve_parameters takes, for h/r below the
    critical ratio."""
    lam = r / h
    log_lam = math.log(lam)

    def g(x):
        return _log_cosh(x) - log_lam - math.log(x)

    x_split = math.asinh(lam)
    if g(x_split) >= 0.0:
        return x_split, x_split
    hi = 2.0 * x_split
    while g(hi) < 0.0:
        hi *= 2.0
    return bisect_root(g, 1.0 / lam, x_split, 1.0), bisect_root(g, x_split, hi, -1.0)


def retract_uv(m, s, theta, phi):
    """Grid retraction of the punctured middle torus, in the chart: push
    each cell radially outward.

    In the sup-norm gauge of a cell centered at a puncture, a point at
    fractional radius rho moves to the convex combination (1-s) id + s
    (boundary projection); cell boundaries (the grid) stay fixed and the
    map is one to one for s < 1.
    """
    cell = 2.0 * math.pi / m
    half = math.pi / m
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    tc = cell * np.floor(th / cell) + half
    pc = cell * np.floor(ph / cell) + half
    u1 = th - tc
    u2 = ph - pc
    rho = np.maximum(np.abs(u1), np.abs(u2)) / half
    if np.any(rho < 1e-12):
        raise DomainError("the retraction is undefined at a removed center")
    f = (1.0 - s) + s / rho
    return tc + u1 * f, pc + u2 * f


def _embedded_sheet(m, s, scale, t, theta, phi, sigma):
    # the sheet sigma f over the retracted chart point, as points of R^4;
    # f is the log cutoff about the nearest cell center, at the image
    th2, ph2 = retract_uv(m, s, theta, phi)
    half = math.pi / m
    gap = flat_torus_gap(0.5, th2 - half, ph2 - half, 2.0 * half)
    f = sigma * scale * log_cutoff(gap, t)
    rt = 1.0 / math.sqrt(2.0)
    p = rt * np.stack([np.cos(th2), np.sin(th2), np.cos(ph2), np.sin(ph2)], axis=-1)
    nu = rt * np.stack([np.cos(th2), np.sin(th2), -np.cos(ph2), -np.sin(ph2)], axis=-1)
    return np.cos(f)[..., None] * p + np.sin(f)[..., None] * nu


def preimage_sheet_area(m, s, h_eff, t, cells=((0, 0),), nodes=32):
    """A doubled-family sheet row in the preimage chart, over the given
    symmetry cells (j, k), the cell centered at pi/m (2j + 1, 2k + 1).

    The sheets are the embedded points of _embedded_sheet, f = (1 - s)
    h_eff log_cutoff, over the retraction at step s of each cell less its
    excised disk g <= t^2; s = 0 is the graph-neck row with neck t.  Their
    area is the integral of sqrt(det) of the embedding's metric, its chart
    partials central differences of step 1e-5 g, so neither the area
    element, the band's lower limit in the image nor the retraction's
    Jacobian enters.  The domain is taken in flat polar coordinates (g,
    psi) about each center, g from t^2 to the cell boundary, with tensor
    Gauss-Legendre nodes on the pieces between the kinks: in psi the
    diagonals, where the retraction's sup norm switches, and the angles
    where the band's preimage closes; in g the preimage of the band's
    outer circle, g = (t - s R(psi))/(1 - s), R the boundary's radius.

    Returns the area of both sheets and the flat area of the cells the
    domain leaves out, the excised disks.
    """
    half = math.pi / m
    c = half / math.sqrt(2.0)
    scale = (1.0 - s) * h_eff
    edges = {k * 0.25 * math.pi for k in range(9)}
    x = s * c / (t - (1.0 - s) * t * t)
    if math.sqrt(0.5) < x < 1.0:
        a = math.acos(x)
        edges |= {k * 0.5 * math.pi + sign * a for k in range(5) for sign in (-1.0, 1.0)}
    edges = sorted(e for e in edges if 0.0 <= e <= 2.0 * math.pi)
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    xg, wg = 0.5 * (xg + 1.0), 0.5 * wg

    def gauss(lo, hi):
        # nodes and weights on [lo, hi], broadcast over the leading axes
        lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
        return lo + (hi - lo) * xg, (hi - lo) * wg

    psi, w_psi = (np.concatenate(v) for v in zip(*[gauss(lo, hi) for lo, hi in
                                                    zip(edges[:-1], edges[1:])]))
    bound = c / np.maximum(np.abs(np.cos(psi)), np.abs(np.sin(psi)))
    knee = np.clip((t - s * bound) / (1.0 - s), t * t, bound)
    area = domain = 0.0
    for j, k in cells:
        tc, pc = half * (2 * j + 1), half * (2 * k + 1)
        for lo, hi in ((t * t, knee), (knee, bound)):
            g, w_g = gauss(lo, hi)
            w = w_psi[:, None] * w_g * 2.0 * g       # the chart area 2 g dg dpsi
            theta = tc + math.sqrt(2.0) * g * np.cos(psi)[:, None]
            phi = pc + math.sqrt(2.0) * g * np.sin(psi)[:, None]
            eps = 1e-5 * g
            for sigma in (1.0, -1.0):
                def at(dth, dph):
                    return _embedded_sheet(m, s, scale, t, theta + dth, phi + dph, sigma)

                d1 = (at(eps, 0.0) - at(-eps, 0.0)) / (2.0 * eps[..., None])
                d2 = (at(0.0, eps) - at(0.0, -eps)) / (2.0 * eps[..., None])
                g11, g22 = np.sum(d1 * d1, axis=-1), np.sum(d2 * d2, axis=-1)
                g12 = np.sum(d1 * d2, axis=-1)
                area += float(np.sum(w * np.sqrt(np.maximum(g11 * g22 - g12 * g12, 0.0))))
            domain += float(np.sum(w))
    return area, 0.5 * (len(cells) * (2.0 * half) ** 2 - domain)


def node_sum_second_variation(n, degree):
    """The second variation Q and the mass M of fermi.second_variation(degree)
    as full matrices of the midpoint quadrature on the n-by-n chart grid:
    three dense contractions Phi diag(w c) Phi^T over every chart node,
    and M as one.  The quadrature integrates the modes' products, of
    frequencies up to 2 degree, exactly when n exceeds 2 degree, and
    there both matrices are diagonal.

    Phi holds the real Fourier modes a_p(theta) a_q(phi), row-major in
    (p, q), or one of their chart partials, at the chart_nodes; c is the
    element's Hessian coefficient of that term, read by the same complex
    step, and the mass weight the element at f = 0.
    """
    th, ph, w = chart_nodes(n)
    freq = np.concatenate([[0], np.repeat(np.arange(1, degree + 1), 2)])
    lag = np.concatenate([[0.0], np.tile([0.0, 0.5 * math.pi], degree)])
    arg_th, arg_ph = np.outer(freq, th) - lag[:, None], np.outer(freq, ph) - lag[:, None]
    a, b = np.cos(arg_th), np.cos(arg_ph)

    def prod(u, v):
        return (u[:, None, :] * v[None, :, :]).reshape(-1, th.size)

    phi = prod(a, b)
    phi_theta = prod(-freq[:, None] * np.sin(arg_th), b)
    phi_phi = prod(a, -freq[:, None] * np.sin(arg_ph))
    s = SECOND_VARIATION_EPS * np.exp(0.25j * math.pi)
    steps = np.array([[0.0, 0.0, 0.0], [s, 0.0, 0.0], [0.0, s * s, 0.0], [0.0, 0.0, s * s]])
    plus, minus = sheet_elements(*steps.T)
    c_f, c_theta, c_phi = (plus[1:] + minus[1:]).imag / SECOND_VARIATION_EPS ** 2
    q = sum((x * (c * w)) @ x.T for x, c in ((phi, c_f), (phi_theta, c_theta), (phi_phi, c_phi)))
    return q, (phi * (w * plus[0].real)) @ phi.T


def per_triangle_area_parts(sl, n):
    """A welded slice's area_parts summed over every triangle of each part:
    the kept triangles of the lower torus, then of the upper (each torus's
    2 n^2 lose the 6 of each of its m^2 weld stars), every collar, and
    every tube's strips."""
    n_kept = 2 * n * n - 6 * sl.m * sl.m
    n_tubes = sl.m * sl.m * 2 * TUBE_SEGMENTS * TUBE_RING_POINTS
    areas = _spherical_triangle_areas(sl.vertices, sl.triangles)
    return {
        "tori": float(areas[:n_kept].sum() + areas[n_kept:2 * n_kept].sum()),
        "collars": float(areas[2 * n_kept:-n_tubes].sum()),
        "tubes": float(areas[-n_tubes:].sum()),
    }


def group_matrix(m, k, l, swap):
    """The action of the doubled family's group element (k, l, swap) on R^4,
    in doubling.group_elements' convention."""
    rot = np.zeros((4, 4))
    for i, a in ((0, k), (2, l)):
        c, s = math.cos(2.0 * math.pi * a / m), math.sin(2.0 * math.pi * a / m)
        rot[i:i + 2, i:i + 2] = [[c, -s], [s, c]]
    # the swap exchanges the coordinate pairs (0, 1) and (2, 3)
    return rot[:, [2, 3, 0, 1]] if swap else rot


def bridge_cycles_walk(outer_idx, outer_ang, inner_idx, inner_ang):
    """doubling._bridge_cycles as a merge walk around the circle: at each
    step the cycle whose next angle comes first (the outer cycle on ties)
    emits its edge's triangle with the other cycle's current vertex."""
    no, ni = len(outer_idx), len(inner_idx)
    o_prog = np.append(outer_ang, 2.0 * math.pi)
    i_prog = np.append(inner_ang, 2.0 * math.pi)
    tris = []
    oi = ij = 0
    while oi < no or ij < ni:
        if oi < no and (ij >= ni or o_prog[oi + 1] <= i_prog[ij + 1]):
            tris.append((outer_idx[oi], outer_idx[(oi + 1) % no], inner_idx[ij % ni]))
            oi += 1
        else:
            tris.append((inner_idx[ij], inner_idx[(ij + 1) % ni], outer_idx[oi % no]))
            ij += 1
    return np.array(tris, dtype=np.int64)

"""Doubled-torus sweepouts of the round 3-sphere.

The 3-sphere is foliated by flat product tori between two orthogonal core
circles.  A doubled sweepout drives a mirror pair of these tori toward the
middle torus while thin geodesic tubes keep each slice a single connected
surface of higher genus.  Past a closing parameter the pair turns into a
two-sided normal-graph family over the middle torus with small necks at a
lattice of punctures, and finally the punctured double sheet collapses
onto the coordinate grid.  Every slice stays strictly below twice the
middle torus area, and the whole family is symmetric under the order-2m^2
group generated by discrete rotations of the two circle factors and the
swap of the factors.

The paired slices are reported by their continuum areas, in closed form;
one welded mesh per family is built as the witness of its genus.  The
graph-neck and collapse stages are one surface, the two-sided offset of
the punctured middle torus, and both are measured by the chart
quadrature of its exact area element: `fermi.punctured_sheets`, the
field and element criterion 8 checks, on `fermi.chart_nodes`, the nodes
criterion 5 checks.  Every slice is invariant under the group, so the
quadrature runs over the nodes of one symmetry cell of the chart grid,
built without a mesh, and the witness measures one of its congruent
tubes, each times m^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetViolated, DomainError, RadiusTooLarge
from .fermi import chart_nodes, punctured_sheets
from .mesh import _spherical_triangle_areas, euler_characteristic
from .report import make_report
from .surfaces import flat_torus_gap, product_torus

# largest neck radius the graph-pair stage opens before the grid collapse;
# the cutoff area around the punctures grows with the neck, so this cap
# sets the peak of the whole family
HANDOFF_NECK_MAX = 0.25

# tube radii past this are refused outright (well under the normal
# injectivity radius pi/2 of the joining geodesic, and under the spacing
# of neighbouring orbit arcs for every supported symmetry order)
TUBE_RADIUS_BOUND = 0.2

# resolution of every tube mesh: rings along the full joining arc, points
# per ring; the factor swap turns weld rings by a quarter, so the ring
# resolution must be a multiple of 4
TUBE_SEGMENTS = 48
TUBE_RING_POINTS = 64


@dataclass(frozen=True)
class GroupElement:
    """One symmetry of the doubled family: swap the factors, then rotate.

    The element acts as (z, w) -> (e^{2 pi i k/m} z', e^{2 pi i l/m} w')
    where (z', w') is (w, z) when swap is set and (z, w) otherwise; the
    2 m^2 elements form a group, and matrix() is the action on R^4.
    """

    m: int
    k: int
    l: int
    swap: bool = False

    def __post_init__(self):
        if self.m < 2:
            raise DomainError("symmetry order must be at least 2, got m = %s" % self.m)
        object.__setattr__(self, "k", int(self.k) % self.m)
        object.__setattr__(self, "l", int(self.l) % self.m)

    def matrix(self):
        ak = 2.0 * math.pi * self.k / self.m
        al = 2.0 * math.pi * self.l / self.m
        rot = np.zeros((4, 4))
        rot[0, 0] = rot[1, 1] = math.cos(ak)
        rot[0, 1] = -math.sin(ak)
        rot[1, 0] = math.sin(ak)
        rot[2, 2] = rot[3, 3] = math.cos(al)
        rot[2, 3] = -math.sin(al)
        rot[3, 2] = math.sin(al)
        if not self.swap:
            return rot
        sw = np.zeros((4, 4))
        sw[0, 2] = sw[1, 3] = sw[2, 0] = sw[3, 1] = 1.0
        return rot @ sw


def group_elements(m):
    """All 2 m^2 symmetries, in a fixed deterministic order."""
    if m < 2:
        raise DomainError("symmetry order must be at least 2, got m = %s" % m)
    return [
        GroupElement(m, k, l, s)
        for s in (False, True)
        for k in range(m)
        for l in range(m)
    ]


def cmc_area(t):
    """Closed-form area of the torus at foliation parameter t."""
    if not 0.0 <= t <= 1.0:
        raise DomainError("foliation parameter must sit in [0, 1]")
    return 4.0 * math.pi ** 2 * math.sqrt(t * (1.0 - t))


def neck_arc_length(t):
    """Length of the joining curve from parameter t to the middle torus.

    The joining curve is the great-circle arc (z, w) = (sqrt(1 - t),
    sqrt(t)) * e^{i pi/m}, from a point of a core circle at t = 0 to a weld
    center of the middle torus at t = 1/2.
    """
    if not 0.0 <= t <= 0.5:
        raise DomainError("curve parameter must sit in [0, 1/2]")
    return 0.25 * math.pi - math.asin(math.sqrt(t))


@dataclass(frozen=True)
class NeckSchedule:
    """Tube radius profile for the paired stage.

    eta gives the radius as a function of the foliation parameter; it must
    vanish at 0, stay positive up to the closing parameter 1/2 - delta,
    vanish beyond it, and never exceed epsilon.
    """

    eta: object
    delta: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise DomainError("closing parameter must sit in (0, 1/2), got delta = %s" % self.delta)
        if self.epsilon <= 0.0:
            raise DomainError("maximum tube radius must be positive, got epsilon = %s" % self.epsilon)
        close = 0.5 - self.delta
        if abs(self.eta(0.0)) > 1e-12:
            raise DomainError("tube radius must vanish at t = 0")
        for t in (close, 0.5 * (close + 0.5), 0.5):
            if self.eta(t) != 0.0:
                raise DomainError("tube radius must vanish at and past the closing parameter")
        probe = self.eta(0.5 * close)
        if not 0.0 < probe <= self.epsilon + 1e-12:
            raise DomainError("tube radius must be positive and bounded by epsilon before closing")


def default_schedule(epsilon=0.015, delta=0.22):
    """Sine-bump radius profile.

    The defaults are tuned jointly: the closing parameter is large
    enough that the puncture cutoffs of the graph-pair stage still leave
    better than five percent of the doubled budget unused, and the radius
    cap stays clear of the weld collar capacity at every paired slice.
    """
    close = 0.5 - delta

    def eta(t):
        if t <= 0.0 or t >= close:
            return 0.0
        return epsilon * math.sin(math.pi * t / close)

    return NeckSchedule(eta=eta, delta=delta, epsilon=epsilon)


def handoff_offset(delta):
    """Normal offset at which the paired tori become graphs over the middle torus.

    The torus pair at the closing parameter coincides with the two-sided
    normal offset of the middle torus at exactly this distance, so the
    stage handoff is continuous by construction.
    """
    if not 0.0 < delta < 0.5:
        raise DomainError("closing parameter must sit in (0, 1/2), got delta = %s" % delta)
    return 0.5 * math.asin(2.0 * delta)


def default_resolution(m):
    """Grid size divisible by 2m, so weld centers land on grid vertices."""
    return 2 * m * max(4, int(round(32.0 / m)))


def _family_args(m, schedule, n):
    """Check the symmetry order and fill in the default schedule and grid."""
    if int(m) != m or m < 2:
        raise DomainError("symmetry order must be an integer >= 2, got m = %s" % m)
    m = int(m)
    if schedule is None:
        schedule = default_schedule()
    if n is None:
        n = default_resolution(m)
    if n % (2 * m) != 0:
        raise DomainError(
            "grid size must be divisible by 2m to place weld centers on vertices,"
            " got n = %d, m = %d" % (n, m)
        )
    return m, schedule, n


def _cross4(a, b, c):
    """Vector orthogonal to three others in R^4 (generalized cross product)."""
    m = np.array([a, b, c], dtype=float)
    return np.array(
        [
            +np.linalg.det(m[:, [1, 2, 3]]),
            -np.linalg.det(m[:, [0, 2, 3]]),
            +np.linalg.det(m[:, [0, 1, 3]]),
            -np.linalg.det(m[:, [0, 1, 2]]),
        ]
    )


def _tube_strips(ids):
    """Triangles joining consecutive rings of a (..., rings, points) index grid.

    Leading axes are tubes, emitted one after another; within a tube each
    pair of rings gives its two fans of triangles in ring-point order.
    """
    a, b = ids[..., :-1, :], ids[..., 1:, :]
    a1, b1 = np.roll(a, -1, axis=-1), np.roll(b, -1, axis=-1)
    fans = [np.stack([a, b, b1], axis=-1), np.stack([a, b1, a1], axis=-1)]
    return np.stack(fans, axis=-3).reshape(-1, 3)


def tube_area(t, radius):
    """Lateral area of the tube of the given radius about the joining curve.

    The curve from parameter t to the middle torus is a great-circle arc of
    length L = neck_arc_length(t), and half of the full joining arc between
    the tori at t and 1 - t that each welded tube runs along.  The tube
    point cos(r) c(s) + sin(r) u(psi) has area element cos(r) sin(r) ds
    dpsi, so the area is exactly pi sin(2r) L; end caps are not included
    (in the assembled family the ends are welded open).
    """
    arc = neck_arc_length(t)
    if radius <= 0.0:
        raise DomainError("tube radius must be positive")
    if radius >= TUBE_RADIUS_BOUND:
        raise RadiusTooLarge("tube radius %.3g exceeds the supported bound %.3g"
                             % (radius, TUBE_RADIUS_BOUND))
    if arc < 1e-15:
        return 0.0
    return math.pi * math.sin(2.0 * radius) * arc


def _composite_tube_base(t, m, radius):
    """Rings around the full joining geodesic between the paired tori.

    The arc runs from the torus at 1 - t through the middle torus to the
    torus at t.  Its normal plane is spanned by two constant vectors (the
    arc is a great-circle segment), chosen as the symmetric/antisymmetric
    directions of the factor swap so the ring set mirrors onto itself.
    """
    chi_lo = math.asin(math.sqrt(t))
    chi_hi = 0.5 * math.pi - chi_lo
    c = math.cos(math.pi / m)
    s = math.sin(math.pi / m)
    a_vec = np.array([c, s, 0.0, 0.0])
    b_vec = np.array([0.0, 0.0, c, s])
    ia = np.array([-s, c, 0.0, 0.0])
    ib = np.array([0.0, 0.0, -s, c])
    rt2 = math.sqrt(2.0)
    u1 = (ia + ib) / rt2
    u2 = (ia - ib) / rt2
    chis = np.linspace(chi_lo, chi_hi, TUBE_SEGMENTS + 1)
    centers = np.outer(np.cos(chis), a_vec) + np.outer(np.sin(chis), b_vec)
    tangents = -np.outer(np.sin(chis), a_vec) + np.outer(np.cos(chis), b_vec)
    psi = 2.0 * np.pi * np.arange(TUBE_RING_POINTS) / TUBE_RING_POINTS
    dirs = np.outer(np.cos(psi), u1) + np.outer(np.sin(psi), u2)
    rings = math.cos(radius) * centers[:, None, :] + math.sin(radius) * dirs[None, :, :]
    return centers, tangents, rings


def _weld_ring_coords(s_par, theta_c, phi_c, radius):
    """Intrinsic circle of the given radius on a product torus, as chart offsets."""
    a = math.sqrt(s_par)
    b = math.sqrt(1.0 - s_par)
    psi = 2.0 * np.pi * np.arange(TUBE_RING_POINTS) / TUBE_RING_POINTS
    th = theta_c + radius * np.cos(psi) / a
    ph = phi_c + radius * np.sin(psi) / b
    return np.column_stack([a * np.cos(th), a * np.sin(th), b * np.cos(ph), b * np.sin(ph)])


def _weld_capacity(t, n):
    # closest approach of a grid vertex's link hexagon, in metric units
    dx = math.sqrt(t) * 2.0 * math.pi / n
    dy = math.sqrt(1.0 - t) * 2.0 * math.pi / n
    return dx * dy / math.hypot(dx, dy)


def _bridge_cycles(outer_idx, outer_ang, inner_idx, inner_ang):
    """Triangulate the annulus between two nested vertex cycles.

    Both cycles come with angles about a shared center.  A single merge
    walk around the circle emits one triangle per cycle edge, so the band
    closes up watertight for any pair of resolutions.
    """
    two_pi = 2.0 * math.pi
    oo = np.argsort(outer_ang, kind="stable")
    o_idx = np.asarray(outer_idx)[oo]
    o_ang = np.asarray(outer_ang, dtype=float)[oo]
    ii = np.argsort(inner_ang, kind="stable")
    i_idx = np.asarray(inner_idx)[ii]
    i_ang = np.asarray(inner_ang, dtype=float)[ii]
    no, ni = len(o_idx), len(i_idx)
    start = o_ang[0]
    j0 = int(np.argmin((i_ang - start) % two_pi))
    o_prog = np.append((o_ang - start) % two_pi, two_pi)
    o_prog[0] = 0.0
    i_rot = i_ang[(j0 + np.arange(ni)) % ni]
    i_prog = (i_rot - start) % two_pi
    i_prog = np.append(i_prog, i_prog[0] + two_pi)
    tris = []
    oi = 0
    ij = 0
    while oi < no or ij < ni:
        take_outer = oi < no and (ij >= ni or o_prog[oi + 1] <= i_prog[ij + 1])
        if take_outer:
            tris.append(
                (o_idx[oi % no], o_idx[(oi + 1) % no], i_idx[(j0 + ij) % ni])
            )
            oi += 1
        else:
            tris.append(
                (i_idx[(j0 + ij) % ni], i_idx[(j0 + ij + 1) % ni], o_idx[oi % no])
            )
            ij += 1
    return np.array(tris, dtype=np.int64)


def _slice_index_map(m, n, g, vid):
    """Action of a group element on an array of the assembled slice's vertex indices.

    Vertex ranges: the two torus copies first, then per joining arc one
    block of tube rings followed by the two weld rings (upper-torus end,
    then lower-torus end).  Each index is mapped under g = (k, l, swap),
    matching the geometric action at roundoff level.
    """
    n2 = n * n
    step = n // m
    seg, rr = TUBE_SEGMENTS, TUBE_RING_POINTS
    block = (seg + 1) * rr + 2 * rr
    vid = np.asarray(vid, dtype=np.int64)
    out = np.empty_like(vid)
    on_tori = vid < 2 * n2
    copy, rem = np.divmod(vid[on_tori], n2)
    i, j = np.divmod(rem, n)
    if g.swap:
        copy, i, j = 1 - copy, j, i
    out[on_tori] = copy * n2 + (i + g.k * step) % n * n + (j + g.l * step) % n
    a, rem = np.divmod(vid[~on_tori] - 2 * n2, block)
    ka, la = np.divmod(a, m)
    # rows 0..seg are tube rings, rows seg+1 and seg+2 the two weld rings
    row, j = np.divmod(rem, rr)
    if g.swap:
        ka, la = la, ka
        weld = row > seg
        row = np.where(weld, 2 * seg + 3 - row, seg - row)
        j = (np.where(weld, rr // 4, 0) - j) % rr
    out[~on_tori] = 2 * n2 + ((ka + g.k) % m * m + (la + g.l) % m) * block + row * rr + j
    return out


def _wrap_angle(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


@dataclass
class DoubledSlice:
    """One slice of the paired stage: two tori welded by orbit tubes."""

    t: float
    m: int
    stage: str
    vertices: np.ndarray
    triangles: np.ndarray
    area: float
    area_parts: dict
    chi: int
    removed_disk_area: float
    n_tubes: int


def doubled_slice(t, m, schedule=None, n=None):
    """Build the welded slice at foliation parameter t.

    The slice is the torus pair at parameters t and 1 - t, with the star
    of each weld center removed, an annular collar zipped from the hole
    boundary down to a matched polygonal weld ring, and a geodesic tube
    joining each pair of rings along the orbit of the joining curve.  The
    collar triangulation is built once and transported by the index-level
    group action, so the triangle set is symmetric to roundoff.
    """
    m, schedule, n = _family_args(m, schedule, n)
    close = 0.5 - schedule.delta
    if not 0.0 < t <= close + 1e-15:
        raise DomainError("paired slices live at parameters in (0, 1/2 - delta]")
    t = float(min(t, close))
    low = product_torus(t, n)
    high = product_torus(1.0 - t, n)
    n2 = n * n
    radius = float(schedule.eta(t))
    if radius <= 0.0:
        verts = np.vstack([low.vertices, high.vertices])
        tris = np.vstack([low.triangles, high.triangles + n2])
        total = float(np.sum(np.concatenate([low.areas, high.areas])))
        return DoubledSlice(
            t=t, m=m, stage="pair", vertices=verts, triangles=tris, area=total,
            area_parts={"tori": total, "collars": 0.0, "tubes": 0.0},
            chi=euler_characteristic(tris), removed_disk_area=0.0, n_tubes=0,
        )
    cap = 0.6 * min(_weld_capacity(t, n), _weld_capacity(1.0 - t, n))
    if radius >= cap:
        raise RadiusTooLarge(
            "tube radius %.3g exceeds the weld collar capacity %.3g" % (radius, cap)
        )
    seg, rr = TUBE_SEGMENTS, TUBE_RING_POINTS
    ang = 2.0 * np.pi * np.arange(n) / n
    centers_b, tangents_b, rings_b = _composite_tube_base(t, m, radius)
    block = (seg + 1) * rr + 2 * rr
    verts = np.empty((2 * n2 + m * m * block, 4))
    verts[:n2] = low.vertices
    verts[n2:2 * n2] = high.vertices
    keep_low = np.ones(len(low.triangles), dtype=bool)
    keep_high = np.ones(len(high.triangles), dtype=bool)
    removed = 0.0
    weld_centers = _grid_center_vertices(m, n)
    for a, c_id in enumerate(weld_centers):
        ka, la = divmod(a, m)
        ic, jc = divmod(c_id, n)
        mat = GroupElement(m, ka, la, False).matrix()
        base_id = 2 * n2 + a * block
        verts[base_id:base_id + (seg + 1) * rr] = (rings_b @ mat.T).reshape(-1, 4)
        verts[base_id + (seg + 1) * rr:base_id + (seg + 1) * rr + rr] = _weld_ring_coords(
            1.0 - t, ang[ic], ang[jc], radius
        )
        verts[base_id + (seg + 1) * rr + rr:base_id + block] = _weld_ring_coords(
            t, ang[ic], ang[jc], radius
        )
        star = np.flatnonzero(np.any(low.triangles == c_id, axis=1))
        if a == 0:
            star0 = star
        keep_low[star] = False
        keep_high[star] = False
        removed += float(low.areas[star].sum() + high.areas[star].sum())
    # canonical collar at the lower-torus end of the first arc
    th_v = low.aux["chart_theta"]
    ph_v = low.aux["chart_phi"]
    c0 = weld_centers[0]
    i_c0 = c0 // n
    link = np.setdiff1d(np.unique(low.triangles[star0]), [c0])
    hx = math.sqrt(t) * _wrap_angle(th_v[link] - ang[i_c0])
    hy = math.sqrt(1.0 - t) * _wrap_angle(ph_v[link] - ang[i_c0])
    hex_ang = np.arctan2(hy, hx) % (2.0 * math.pi)
    wr_low0 = 2 * n2 + (seg + 1) * rr + rr + np.arange(rr)
    psi = 2.0 * np.pi * np.arange(rr) / rr
    zip0 = _bridge_cycles(link, hex_ang, wr_low0, psi)
    p_end = centers_b[seg]
    t_end = tangents_b[seg]
    a1 = verts[wr_low0[0]] - p_end
    a1 = a1 - (a1 @ p_end) * p_end - (a1 @ t_end) * t_end
    a1 /= np.linalg.norm(a1)
    a2 = _cross4(p_end, t_end, a1)

    def _angles_about(ids):
        q = verts[ids] - p_end
        return np.arctan2(q @ a2, q @ a1) % (2.0 * math.pi)

    row_last = 2 * n2 + seg * rr + np.arange(rr)
    band0 = _bridge_cycles(row_last, _angles_about(row_last), wr_low0, _angles_about(wr_low0))
    collar0 = np.vstack([zip0, band0])
    collar_tris = np.vstack([_slice_index_map(m, n, g, collar0) for g in group_elements(m)])
    tube_ids = 2 * n2 + block * np.arange(m * m)[:, None, None] + np.arange(
        (seg + 1) * rr
    ).reshape(seg + 1, rr)
    strip_tris = _tube_strips(tube_ids)
    tris = np.vstack(
        [low.triangles[keep_low], high.triangles[keep_high] + n2, collar_tris, strip_tris]
    )
    area_tori = float(low.areas[keep_low].sum() + high.areas[keep_high].sum())
    area_collars = float(np.sum(_spherical_triangle_areas(verts, collar_tris)))
    # every tube's rings are tube 0's under a rotation of the group, so
    # the m^2 tubes have one area
    tube0 = strip_tris[:len(strip_tris) // (m * m)]
    area_tubes = m * m * float(np.sum(_spherical_triangle_areas(verts, tube0)))
    return DoubledSlice(
        t=t, m=m, stage="pair_tubes", vertices=verts, triangles=tris,
        area=area_tori + area_collars + area_tubes,
        area_parts={"tori": area_tori, "collars": area_collars, "tubes": area_tubes},
        chi=euler_characteristic(tris), removed_disk_area=removed, n_tubes=m * m,
    )


def _retract_uv(m, s, theta, phi):
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


def _chart_center_gap(m, theta, phi):
    """Flat-metric distance to the nearest puncture center, in the chart."""
    half = math.pi / m
    return flat_torus_gap(
        0.5, np.asarray(theta, dtype=float) - half, np.asarray(phi, dtype=float) - half,
        2.0 * math.pi / m,
    )


@dataclass(frozen=True)
class _CellNodes:
    """Midpoint nodes of the symmetry cell [0, 2 pi/m)^2 of the chart.

    theta, phi are the chart barycenters of the triangles in the cell,
    weight their chart areas, gap their unretracted flat distance to the
    cell's puncture center and rho their sup radius about it over pi/m.
    """

    m: int
    theta: np.ndarray
    phi: np.ndarray
    weight: np.ndarray
    gap: np.ndarray
    rho: np.ndarray


def _cell_nodes(n, m):
    """The quadrature nodes of one cell of the middle torus's n-by-n grid.

    With 2m | n no chart triangle straddles two cells, so the cell holds
    the 2 (n/m)^2 chart_nodes of its n/m-by-n/m cells, and every other
    cell is its translate under a rotation of the symmetry group.
    """
    th, ph, weight = chart_nodes(n, n // m)
    half = math.pi / m
    return _CellNodes(
        m=m, theta=th, phi=ph, weight=weight,
        gap=_chart_center_gap(m, th, ph),
        rho=np.maximum(np.abs(th - half), np.abs(ph - half)) / half,
    )


def _sheet_area(cell, s, h_eff, t_neck):
    """Continuum area of the punctured double sheet, by midpoint quadrature.

    The sheets are the offsets +-f of the middle torus, f = (1 - s) h_eff
    log_cutoff(gap, t_neck), composed with the chart retraction; s = 0 is
    the graph-neck slice with neck t_neck and s > 0 the collapse.  Nodes
    are the _CellNodes of one symmetry cell weighted by chart area, and a
    node within t_neck^2 of the puncture center is excised.  The cutoff
    rides at the retracted point, so the transition band keeps a fixed
    width instead of being stretched along with the cells.  The sheet is
    invariant under the symmetry group, so the m^2 cells contribute alike.

    In the chart of the image point the sheets have the area elements of
    fermi.punctured_sheets, with scale (1 - s) h_eff and a, b the wrapped
    chart offsets to the nearest center.  The retraction u -> u ((1 - s) +
    s/rho), with rho the sup norm of u over pi/m, has Jacobian (1 - s)
    ((1 - s) + s/rho) by Euler's identity for the 1-homogeneous rho, so
    the area vanishes exactly at s = 1.

    Returns the area of both sheets and the flat area of the nodes one
    sheet excises, each m^2 times the cell's.
    """
    m = cell.m
    keep = cell.gap > t_neck * t_neck
    th2, ph2 = _retract_uv(m, s, cell.theta[keep], cell.phi[keep])
    jac = (1.0 - s) * ((1.0 - s) + s / cell.rho[keep])
    half = math.pi / m
    plus, minus = punctured_sheets(th2 % (2.0 * half) - half, ph2 % (2.0 * half) - half,
                                   _chart_center_gap(m, th2, ph2), (1.0 - s) * h_eff, t_neck)
    copies = m * m
    return (copies * float(np.sum(cell.weight[keep] * jac * (plus + minus))),
            0.5 * copies * float(np.sum(cell.weight[~keep])))


def _grid_center_vertices(m, n):
    step = n // m
    i_c0 = n // (2 * m)
    return [
        ((i_c0 + k * step) % n) * n + ((i_c0 + l * step) % n)
        for k in range(m)
        for l in range(m)
    ]


def _pair_row(t, m, schedule):
    """Continuum area of the paired slice at t in (0, 1/2 - delta].

    The two flat tori, less the m^2 flat weld disks of the tube radius on
    each, plus the m^2 tubes along the full joining arcs.
    """
    t_c = min(t, 0.5 - schedule.delta)
    radius = float(schedule.eta(t_c))
    pair = 2.0 * cmc_area(t_c)
    if radius <= 0.0:
        return {"t": t, "area": pair, "stage": "pair", "tube_area": 0.0,
                "removed_disk_area": 0.0}
    removed = 2.0 * m * m * math.pi * radius * radius
    tubes = 2.0 * m * m * tube_area(t_c, radius)
    return {"t": t, "area": pair - removed + tubes, "stage": "pair_tubes",
            "tube_area": tubes, "removed_disk_area": removed}


def assemble_doubled_sweepout(m, schedule=None, t_grid=None, n=None):
    """Run the full doubled family and report per-slice areas.

    Slices at parameters up to 1/2 - delta are welded torus pairs, whose
    rows carry the continuum area of _pair_row: removed_disk_area is the
    flat area of the 2 m^2 weld disks and tube_area the exact lateral area
    of the m^2 tubes.  The next quarter of the closing window opens
    punctures in the two-sided graph pair over the middle torus at the
    matching normal offset; the final quarter collapses the punctured
    double sheet onto the grid.  Both stages are one surface and take
    their areas from the same chart quadrature, _sheet_area, over the
    nodes of one symmetry cell, built once per call (the summary's
    cell_nodes counts them): a graph-neck row carries its neck_radius
    and, as removed_disk_area, the flat area of the nodes one sheet
    excises.  The budget is twice the middle torus area and must never be
    reached.

    One welded slice, at the last paired parameter with a positive tube
    radius, witnesses the topology: its Euler characteristic is the
    summary's regular_chi, witness_vertices and witness_triangles are its
    mesh sizes, and witness_mesh_rel_excess is its mesh area over the
    continuum area, minus 1 (the discretization error the rows no longer
    carry).
    """
    m, schedule, n = _family_args(m, schedule, n)
    delta = schedule.delta
    t_a = 0.5 - delta
    t_b = 0.5 - 0.5 * delta
    h_eff = handoff_offset(delta)
    if t_grid is None:
        t_grid = np.concatenate(
            [
                np.linspace(0.0, t_a, 18),
                t_a + 0.5 * delta * np.linspace(0.0, 1.0, 8)[1:],
                t_b + 0.5 * delta * np.linspace(0.0, 1.0, 8)[1:],
            ]
        )
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise DomainError("the slice grid must be a nonempty 1-d array")
    if np.any(t_grid < 0.0) or np.any(t_grid > 0.5 + 1e-12):
        raise DomainError("slice parameters must sit in [0, 1/2]")
    budget = 4.0 * math.pi ** 2
    cell = _cell_nodes(n, m)
    rows = []
    witness = None
    for t in sorted(float(t) for t in t_grid):
        if t <= t_a + 1e-15:
            if t <= 0.0:
                row = {"t": 0.0, "area": 0.0, "stage": "pair"}
            else:
                row = _pair_row(t, m, schedule)
                if row["stage"] == "pair_tubes":
                    witness = row
        elif t <= t_b + 1e-15:
            neck = (t - t_a) / (0.5 * delta) * HANDOFF_NECK_MAX
            area, removed = _sheet_area(cell, 0.0, h_eff, neck)
            row = {
                "t": t,
                "area": area,
                "stage": "graph_necks",
                "neck_radius": neck,
                "removed_disk_area": removed,
            }
        else:
            # over 1/2 - t_b so that t = 1/2 gives s = 1 exactly; the clamp
            # holds s at 1 on the grid's 1e-12 slack past 1/2
            sc = min((t - t_b) / (0.5 - t_b), 1.0)
            row = {
                "t": t,
                "area": _sheet_area(cell, sc, h_eff, HANDOFF_NECK_MAX)[0],
                "stage": "collapse",
                "collapse_s": sc,
            }
        if row["area"] >= budget:
            raise BudgetViolated(
                "slice at t = %.6g reached the doubled area budget; retune the schedule" % t
            )
        rows.append(row)
    report = make_report(
        command="doubling",
        params={
            "m": m,
            "resolution": int(n),
            "epsilon": float(schedule.epsilon),
            "delta": float(delta),
            "handoff_offset": float(h_eff),
            "neck_max": float(HANDOFF_NECK_MAX),
            "stage_bounds": [float(t_a), float(t_b)],
            "n_slices": len(rows),
        },
        rows=rows,
        budget=budget,
    )
    report.summary["cell_nodes"] = int(cell.theta.size)
    if witness is not None:
        sl = doubled_slice(witness["t"], m, schedule, n)
        report.summary["regular_chi"] = int(sl.chi)
        report.summary["witness_vertices"] = len(sl.vertices)
        report.summary["witness_triangles"] = len(sl.triangles)
        report.summary["witness_mesh_rel_excess"] = sl.area / witness["area"] - 1.0
    return report

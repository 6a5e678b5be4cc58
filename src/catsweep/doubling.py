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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetViolated, DomainError, RadiusTooLarge
from .fermi import log_cutoff, two_sided_tube_family
from .mesh import (
    AMBIENT_S3,
    MeshSurface,
    _spherical_triangle_areas,
    euler_characteristic,
)
from .report import make_report
from .surfaces import clifford_torus, flat_torus_gap, product_torus

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

_POINT_TOL = 1e-12
_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class S3Point:
    """A point of the unit 3-sphere, stored as two complex coordinates."""

    z: complex
    w: complex

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "w", complex(self.w))
        r = abs(self.z) ** 2 + abs(self.w) ** 2
        if abs(r - 1.0) > _POINT_TOL:
            raise DomainError("point misses the unit sphere by %.3g" % abs(r - 1.0))

    def as_vector(self):
        return np.array([self.z.real, self.z.imag, self.w.real, self.w.imag])

    @staticmethod
    def from_vector(v):
        return S3Point(complex(v[0], v[1]), complex(v[2], v[3]))


@dataclass(frozen=True)
class GroupElement:
    """One symmetry of the doubled family: swap the factors, then rotate.

    The element acts as (z, w) -> (e^{2 pi i k/m} z', e^{2 pi i l/m} w')
    where (z', w') is (w, z) when swap is set and (z, w) otherwise.  The
    2 m^2 elements form a group under compose().
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

    def apply(self, p):
        z, w = (p.w, p.z) if self.swap else (p.z, p.w)
        cz = complex(math.cos(2.0 * math.pi * self.k / self.m),
                     math.sin(2.0 * math.pi * self.k / self.m))
        cw = complex(math.cos(2.0 * math.pi * self.l / self.m),
                     math.sin(2.0 * math.pi * self.l / self.m))
        return S3Point(cz * z, cw * w)

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

    def compose(self, other):
        """The element acting as self after other."""
        if self.swap:
            k2, l2 = other.l, other.k
        else:
            k2, l2 = other.k, other.l
        return GroupElement(
            self.m, (self.k + k2) % self.m, (self.l + l2) % self.m,
            self.swap != other.swap,
        )


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


def group_orbit(m, x):
    """Distinct images of a point under the symmetry group.

    Points closer than the matching tolerance are identified, so orbits
    through fixed-point sets come out with their true (smaller) size.
    """
    pts = []
    for g in group_elements(m):
        q = g.apply(x)
        qv = q.as_vector()
        if all(np.linalg.norm(qv - p.as_vector()) > _MATCH_TOL for p in pts):
            pts.append(q)
    return pts


def orbit_isotropy(m, x):
    """The subgroup fixing a point, detected at the matching tolerance."""
    xv = x.as_vector()
    return [
        g for g in group_elements(m)
        if np.linalg.norm(g.apply(x).as_vector() - xv) <= _MATCH_TOL
    ]


def cmc_area(t):
    """Closed-form area of the torus at foliation parameter t."""
    if not 0.0 <= t <= 1.0:
        raise DomainError("foliation parameter must sit in [0, 1]")
    return 4.0 * math.pi ** 2 * math.sqrt(t * (1.0 - t))


def neck_curve(t, m):
    """The joining curve evaluated at parameter t.

    The curve runs from a point on one core circle at t = 0 down to a
    lattice point of the middle torus at t = 1/2; it crosses the torus of
    parameter 1 - t (second coordinate modulus sqrt(t)) on the way.
    """
    if m < 2:
        raise DomainError("symmetry order must be at least 2, got m = %s" % m)
    if not 0.0 <= t <= 0.5:
        raise DomainError("curve parameter must sit in [0, 1/2]")
    phase = complex(math.cos(math.pi / m), math.sin(math.pi / m))
    return S3Point(math.sqrt(1.0 - t) * phase, math.sqrt(t) * phase)


def neck_arc_length(t):
    """Length of the joining curve from parameter t to the middle torus."""
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
        raise DomainError("grid size must be divisible by 2m to place weld centers on vertices")
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
    """Mesh area of the lateral tube surface around the joining curve.

    The curve from parameter t to the middle torus is half of the joining
    arc between the tori at t and 1 - t, so this is half the lateral area
    of the tube that the welded slices mesh around that arc; end caps are
    not included (in the assembled family the ends are welded open).
    Vanishes linearly in the radius with slope 2 pi times the arc length.
    """
    arc = neck_arc_length(t)
    if radius <= 0.0:
        raise DomainError("tube radius must be positive")
    if radius >= TUBE_RADIUS_BOUND:
        raise RadiusTooLarge("tube radius %.3g exceeds the supported bound %.3g"
                             % (radius, TUBE_RADIUS_BOUND))
    if arc < 1e-15:
        return 0.0
    # any symmetry order gives the same arc up to a rotation of S^3
    _, _, rings = _composite_tube_base(t, 2, radius)
    ids = np.arange(rings.shape[0] * rings.shape[1]).reshape(rings.shape[:2])
    return 0.5 * float(np.sum(_spherical_triangle_areas(rings.reshape(-1, 4), _tube_strips(ids))))


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
    tube_lateral_area: float
    n_tubes: int
    ambient: str = AMBIENT_S3
    copy_low: MeshSurface = None
    copy_high: MeshSurface = None
    aux: dict = field(default_factory=dict)


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
        total = float(np.sum(_spherical_triangle_areas(verts, tris)))
        return DoubledSlice(
            t=t, m=m, stage="pair", vertices=verts, triangles=tris, area=total,
            area_parts={"tori": total, "collars": 0.0, "tubes": 0.0},
            chi=euler_characteristic(tris), removed_disk_area=0.0,
            tube_lateral_area=0.0, n_tubes=0, copy_low=low, copy_high=high,
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
    areas_low = _spherical_triangle_areas(low.vertices, low.triangles)
    areas_high = _spherical_triangle_areas(high.vertices, high.triangles)
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
        removed += float(areas_low[star].sum() + areas_high[star].sum())
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
    area_tori = float(areas_low[keep_low].sum() + areas_high[keep_high].sum())
    area_collars = float(np.sum(_spherical_triangle_areas(verts, collar_tris)))
    area_tubes = float(np.sum(_spherical_triangle_areas(verts, strip_tris)))
    return DoubledSlice(
        t=t, m=m, stage="pair_tubes", vertices=verts, triangles=tris,
        area=area_tori + area_collars + area_tubes,
        area_parts={"tori": area_tori, "collars": area_collars, "tubes": area_tubes},
        chi=euler_characteristic(tris), removed_disk_area=removed,
        tube_lateral_area=area_tubes, n_tubes=m * m,
        copy_low=low, copy_high=high,
        aux={"tube_radius": radius},
    )


def _retract_uv(m, s, theta, phi):
    """Chart form of the grid retraction: push each cell radially outward.

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


def grid_retraction(m, s, point):
    """Retraction step s applied to a point of the punctured middle torus."""
    if m < 2:
        raise DomainError("symmetry order must be at least 2, got m = %s" % m)
    if not 0.0 <= s <= 1.0:
        raise DomainError("retraction step must sit in [0, 1]")
    if abs(abs(point.z) ** 2 - 0.5) > 1e-9 or abs(abs(point.w) ** 2 - 0.5) > 1e-9:
        raise DomainError("the retraction lives on the middle torus")
    th = math.atan2(point.z.imag, point.z.real) % (2.0 * math.pi)
    ph = math.atan2(point.w.imag, point.w.real) % (2.0 * math.pi)
    th2, ph2 = _retract_uv(m, s, np.array([th]), np.array([ph]))
    rt = 1.0 / math.sqrt(2.0)
    return S3Point(
        complex(rt * math.cos(th2[0]), rt * math.sin(th2[0])),
        complex(rt * math.cos(ph2[0]), rt * math.sin(ph2[0])),
    )


def _chart_center_gap(m, theta, phi):
    """Flat-metric distance to the nearest puncture center, in the chart."""
    half = math.pi / m
    return flat_torus_gap(
        0.5, np.asarray(theta, dtype=float) - half, np.asarray(phi, dtype=float) - half,
        2.0 * math.pi / m,
    )


def _collapse_embed(m, s, h_eff, t_neck, theta, phi, sheet):
    # the cutoff rides at the image position, so the transition band keeps
    # a fixed width instead of being stretched along with the cells
    th2, ph2 = _retract_uv(m, s, theta, phi)
    f = sheet * (1.0 - s) * h_eff * log_cutoff(_chart_center_gap(m, th2, ph2), t_neck)
    rt = 1.0 / math.sqrt(2.0)
    p = rt * np.column_stack([np.cos(th2), np.sin(th2), np.cos(ph2), np.sin(ph2)])
    nu = rt * np.column_stack([np.cos(th2), np.sin(th2), -np.cos(ph2), -np.sin(ph2)])
    return np.cos(f)[:, None] * p + np.sin(f)[:, None] * nu


def _collapse_area(cl, m, s, h_eff, t_neck):
    """Continuum area of the collapsing double sheet, by midpoint quadrature.

    The map composes the chart retraction with the two-sided normal offset
    scaled down by 1 - s; the area element is the Gram determinant of a
    finite-difference Jacobian at each chart triangle barycenter, so the
    reported area genuinely vanishes as the image degenerates to the grid.
    """
    uv = cl.chart_uv_corners
    bth = uv[:, :, 0].mean(axis=1)
    bph = uv[:, :, 1].mean(axis=1)
    du = uv[:, 1, :] - uv[:, 0, :]
    dv = uv[:, 2, :] - uv[:, 0, :]
    uv_area = 0.5 * np.abs(du[:, 0] * dv[:, 1] - du[:, 1] * dv[:, 0])
    keep = _chart_center_gap(m, bth, bph) > t_neck * t_neck
    bth = bth[keep]
    bph = bph[keep]
    w = uv_area[keep]
    eps = 1e-5
    total = 0.0
    for sheet in (1.0, -1.0):
        d1 = (
            _collapse_embed(m, s, h_eff, t_neck, bth + eps, bph, sheet)
            - _collapse_embed(m, s, h_eff, t_neck, bth - eps, bph, sheet)
        ) / (2.0 * eps)
        d2 = (
            _collapse_embed(m, s, h_eff, t_neck, bth, bph + eps, sheet)
            - _collapse_embed(m, s, h_eff, t_neck, bth, bph - eps, sheet)
        ) / (2.0 * eps)
        g11 = np.sum(d1 * d1, axis=1)
        g22 = np.sum(d2 * d2, axis=1)
        g12 = np.sum(d1 * d2, axis=1)
        total += float(np.sum(w * np.sqrt(np.maximum(g11 * g22 - g12 * g12, 0.0))))
    return total


def _grid_center_vertices(m, n):
    step = n // m
    i_c0 = n // (2 * m)
    return [
        ((i_c0 + k * step) % n) * n + ((i_c0 + l * step) % n)
        for k in range(m)
        for l in range(m)
    ]


def assemble_doubled_sweepout(m, schedule=None, t_grid=None, n=None):
    """Run the full doubled family and report per-slice areas.

    Slices at parameters up to 1/2 - delta are welded torus pairs; the
    next quarter of the closing window opens punctures in the two-sided
    graph pair over the middle torus at the matching normal offset; the
    final quarter collapses the punctured double sheet onto the grid.
    The budget is twice the middle torus area and must never be reached.
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
    cl = clifford_torus(n)
    centers = _grid_center_vertices(m, n)
    ts = sorted(float(t) for t in t_grid)
    # one tube family over all neck radii, so the puncture distance fields
    # are computed once per assembly
    necks = [(t - t_a) / (0.5 * delta) * HANDOFF_NECK_MAX for t in ts
             if t_a + 1e-15 < t <= t_b + 1e-15]
    neck_rows = iter(
        two_sided_tube_family(cl, np.ones(cl.n_vertices), centers, h_eff, t_grid=necks).rows
        if necks else ()
    )
    rows = []
    chi_regular = None
    for t in ts:
        if t <= t_a + 1e-15:
            if t <= 0.0:
                row = {"t": 0.0, "area": 0.0, "stage": "pair"}
            else:
                sl = doubled_slice(t, m, schedule, n)
                row = {
                    "t": t,
                    "area": sl.area,
                    "stage": sl.stage,
                    "tube_area": sl.tube_lateral_area,
                    "removed_disk_area": sl.removed_disk_area,
                    "chi": sl.chi,
                }
                if sl.n_tubes:
                    chi_regular = sl.chi
        elif t <= t_b + 1e-15:
            r0 = next(neck_rows)
            row = {
                "t": t,
                "area": r0["area"],
                "stage": "graph_necks",
                "neck_radius": r0["t"],
                "removed_disk_area": r0["removed_base_area"],
            }
        else:
            sc = min((t - t_b) / (0.5 * delta), 1.0)
            row = {
                "t": t,
                "area": _collapse_area(cl, m, sc, h_eff, HANDOFF_NECK_MAX),
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
    if chi_regular is not None:
        report.summary["regular_chi"] = int(chi_regular)
    return report

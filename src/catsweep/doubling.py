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
one welded slice per family is the witness of its genus: its triangle
list is built in full, and its points only where its area reads them.  The
graph-neck and collapse stages are one surface, the two-sided offset of
the punctured middle torus, and both take its continuum area: each
symmetry cell holds one puncture, whose log-cutoff band is integrated in
flat polar coordinates by `fermi.band_sheets`, the band criterion 8's
tube family and criterion 7's cutoff energy read too, and outside the
band the offset is constant and its area exact.  The collapse retracts
each cell onto its boundary; the cutoff rides at the retracted point, so
its band is the same polar band in the image chart, above the image of
the excised disk.  Every slice is invariant under the group, so one cell
is integrated, times m^2, and the witness measures one triangle of each
congruence class, times the size of the class.

The witness is built by index arithmetic, with no mesh object: both
tori share one grid triangle list, the stars of the lattice of weld
centers come from the grid layout (`surfaces._grid_star`), the collar
orbit from one call of the index-level group action over the 2m^2
elements (k, l, swap), and tube k's strips are tube 0's, born int32,
shifted by k vertex blocks, all in one int32 triangle array, whose Euler
characteristic is counted in full.  The points have one layout
(`_slice_vertices`), built only when `DoubledSlice.vertices` is read; one
area call measures a triangle of each class on about 200 points from the
same point code on index subsets (`_class_corners`).  The first collar
takes no angle from the points: the grid's six neighbour offsets, at
math.atan2's angles, are zipped (`_bridge_cycles`, with no loop) to the
tube's end ring, whose point k sits at the flat angle pi/4 - psi_k, so
the ring enters from point rr/8 down (mod rr, a multiple of 8).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetViolated, DomainError, RadiusTooLarge
from .fermi import band_sheets, sheet_elements
from .mesh import _spherical_triangle_areas, euler_characteristic
from .report import make_report
from .surfaces import MAX_GRID_N, _grid_star, _grid_triangles, _torus_vertices, check_grid

# largest neck radius the graph-pair stage opens before the grid collapse;
# the cutoff area around the punctures grows with the neck, so this cap
# sets the peak of the whole family
HANDOFF_NECK_MAX = 0.25

# tube radii past this are refused outright (well under the normal
# injectivity radius pi/2 of the joining geodesic, and under the spacing
# of neighbouring orbit arcs for every supported symmetry order)
TUBE_RADIUS_BOUND = 0.2

# the six neighbours of a grid vertex in _grid_triangles' layout, as
# (row, column) offsets counterclockwise from angle 0 in the flat metric:
# the link hexagon the first collar is zipped from, about the weld center
# (n/2m, n/2m), which no offset moves off the chart
_LINK_OFFSETS = np.array([[1, 1, 0, -1, -1, 0], [0, 1, 1, 0, -1, -1]])

# resolution of every tube mesh: rings along the full joining arc, points
# per ring; tube point k sits at the flat angle pi/4 - psi_k about its weld
# center, so the ring resolution is a multiple of 8 for a ring point to
# sit at the collar zip's angle 0
TUBE_SEGMENTS = 48
TUBE_RING_POINTS = 64


def group_elements(m):
    """All 2 m^2 symmetries of the doubled family as index arrays (k, l, swap).

    Element (k, l, swap) swaps the factors, then rotates: it acts as
    (z, w) -> (e^{2 pi i k/m} z', e^{2 pi i l/m} w'), where (z', w') is
    (w, z) when swap is set and (z, w) otherwise.  The order is fixed:
    swap varies slowest, then k, then l.
    """
    if m < 2:
        raise DomainError("symmetry order must be at least 2, got m = %s" % m)
    swap, k, l = np.indices((2, m, m)).reshape(3, -1)
    return k, l, swap.astype(bool)


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
    """Sine-bump tube radius profile for the paired stage: the radius
    epsilon sin(pi t/(1/2 - delta)) is positive up to the closing
    parameter 1/2 - delta and vanishes outside, and epsilon is positive.

    The defaults are tuned jointly: the closing parameter is large
    enough that the puncture cutoffs of the graph-pair stage still leave
    better than five percent of the doubled budget unused, and the radius
    cap stays clear of the weld collar capacity at every paired slice.
    """

    epsilon: float = 0.015
    delta: float = 0.22

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise DomainError("closing parameter must sit in (0, 1/2), got delta = %s" % self.delta)
        if not self.epsilon > 0.0:
            raise DomainError("maximum tube radius --epsilon must be positive, got epsilon = %s"
                              % self.epsilon)

    @property
    def closing(self):  # the closing parameter, where the paired stage ends
        return 0.5 - self.delta

    @property
    def handoff_offset(self):
        """Normal offset at which the paired tori become graphs over the middle torus.

        The torus pair at the closing parameter coincides with the two-sided
        normal offset of the middle torus at exactly this distance, so the
        stage handoff is continuous by construction.
        """
        return 0.5 * math.asin(2.0 * self.delta)

    def eta(self, t):
        if t <= 0.0 or t >= self.closing:
            return 0.0
        return self.epsilon * math.sin(math.pi * t / self.closing)


def default_resolution(m):
    """Grid size divisible by 2m, so weld centers land on grid vertices."""
    return 2 * m * max(4, int(round(32.0 / m)))


def _family_args(m, schedule, n):
    """Check the symmetry order and fill in the default schedule and grid."""
    if int(m) != m or m < 2:
        raise DomainError("symmetry order must be an integer >= 2, got m = %s" % m)
    m = int(m)
    if schedule is None:
        schedule = NeckSchedule()
    if n is None:
        # the default grid is 8 m from m = 8 on
        if default_resolution(m) > MAX_GRID_N:
            raise DomainError(
                "symmetry order --m must be at most %d when --n is not given (its default"
                " grid 8 m must be at most %d), got m = %d" % (MAX_GRID_N // 8, MAX_GRID_N, m)
            )
        n = default_resolution(m)
    check_grid(n)
    if n % (2 * m) != 0:
        raise DomainError(
            "grid size must be divisible by 2m to place weld centers on vertices,"
            " got n = %d, m = %d" % (n, m)
        )
    return m, schedule, n


def _tube_strips(ids):
    """Triangles joining consecutive rings of a (rings, points) index grid:
    each pair of rings gives its two fans of triangles in ring-point order.
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


def _composite_tube_base(t, m, radius, k=0, l=0, rows=slice(None)):
    """Rings around tube (k, l)'s full joining geodesic between the paired
    tori, the rings given by rows (every ring, 0 to TUBE_SEGMENTS, by
    default).

    The arc runs from the torus at 1 - t through the middle torus to the
    torus at t, at the tube's weld center, the chart angles ((2k + 1) pi/m,
    (2l + 1) pi/m).  Its normal plane is spanned by two constant vectors
    (the arc is a great-circle segment), chosen as the
    symmetric/antisymmetric directions u1, u2 of the factor swap so the
    ring set mirrors onto itself; ring point j sits at the angle psi_j in
    the (u1, u2) frame.  The arc meets both tori orthogonally, so at each
    end that frame spans the torus's tangent plane at the weld center,
    where point j leaves the center at the flat angle pi/4 - psi_j from
    d/dtheta.
    """
    chi_lo = math.asin(math.sqrt(t))
    chi_hi = 0.5 * math.pi - chi_lo
    th, ph = (2 * k + 1) * math.pi / m, (2 * l + 1) * math.pi / m
    a_vec = np.array([math.cos(th), math.sin(th), 0.0, 0.0])
    b_vec = np.array([0.0, 0.0, math.cos(ph), math.sin(ph)])
    ia = np.array([-math.sin(th), math.cos(th), 0.0, 0.0])
    ib = np.array([0.0, 0.0, -math.sin(ph), math.cos(ph)])
    u1, u2 = (ia + ib) / math.sqrt(2.0), (ia - ib) / math.sqrt(2.0)
    chis = np.linspace(chi_lo, chi_hi, TUBE_SEGMENTS + 1)[rows]
    centers = np.outer(np.cos(chis), a_vec) + np.outer(np.sin(chis), b_vec)
    psi = 2.0 * np.pi * np.arange(TUBE_RING_POINTS) / TUBE_RING_POINTS
    dirs = np.outer(np.cos(psi), u1) + np.outer(np.sin(psi), u2)
    return math.cos(radius) * centers[:, None, :] + math.sin(radius) * dirs[None, :, :]


def _weld_capacity(t, n):
    # closest approach of a grid vertex's link hexagon, in metric units
    dx = math.sqrt(t) * 2.0 * math.pi / n
    dy = math.sqrt(1.0 - t) * 2.0 * math.pi / n
    return dx * dy / math.hypot(dx, dy)


def _bridge_cycles(outer_idx, outer_ang, inner_idx, inner_ang):
    """Triangulate the annulus between two nested vertex cycles.

    Both cycles come in ascending order of their angles about a shared
    center, each from angle 0.  Each cycle edge, a step to the next angle
    (2 pi past the last), gives one triangle; in order of the angle they
    reach, the outer cycle first on ties, a step sits at its own index
    plus the number of the other cycle's steps that come first.  So the
    band closes up watertight for any pair of resolutions.
    """
    no, ni = len(outer_idx), len(inner_idx)
    o_next = np.append(outer_ang[1:], 2.0 * math.pi)
    i_next = np.append(inner_ang[1:], 2.0 * math.pi)
    before_o = np.searchsorted(i_next, o_next, side="left")
    before_i = np.searchsorted(o_next, i_next, side="right")
    tris = np.empty((no + ni, 3), dtype=np.int64)
    tris[np.arange(no) + before_o] = np.column_stack(
        [outer_idx, np.roll(outer_idx, -1), inner_idx[before_o % ni]])
    tris[np.arange(ni) + before_i] = np.column_stack(
        [inner_idx, np.roll(inner_idx, -1), outer_idx[before_i % no]])
    return tris


def _slice_index_map(m, n, elements, vid):
    """Action of group elements on an array of the assembled slice's vertex indices.

    Vertex ranges: the two torus copies first, then per joining arc one
    block of tube rings, from the upper-torus end.  elements are index
    arrays (k, l, swap), as group_elements gives them; each index is
    mapped under every element, matching the geometric action at roundoff
    level; the result has one leading axis over the elements, in their
    order.  The swap exchanges the tori and the chart axes, runs each arc
    backwards and mirrors each ring (u2 -> -u2 in _composite_tube_base).
    """
    seg, rr = TUBE_SEGMENTS, TUBE_RING_POINTS
    vid = np.asarray(vid, dtype=np.int64)
    k, l, swap = (np.asarray(x)[:, None] for x in elements)
    flat = vid.ravel()
    out = np.empty((len(k), flat.size), dtype=np.int64)
    on_tori = flat < 2 * n * n
    copy, i, j = np.unravel_index(flat[on_tori], (2, n, n))
    out[:, on_tori] = np.ravel_multi_index(
        (np.where(swap, 1 - copy, copy), np.where(swap, j, i) + k * (n // m),
         np.where(swap, i, j) + l * (n // m)), (2, n, n), mode="wrap")
    ka, la, row, j = np.unravel_index(flat[~on_tori] - 2 * n * n, (m, m, seg + 1, rr))
    out[:, ~on_tori] = 2 * n * n + np.ravel_multi_index(
        (np.where(swap, la, ka) + k, np.where(swap, ka, la) + l, np.where(swap, seg - row, row),
         np.where(swap, -j, j)), (m, m, seg + 1, rr), mode="wrap")
    return out.reshape((len(k),) + vid.shape)


def _weld_centers(m, n):
    """Chart indices (ic, jc) of the m^2 weld centers: tube a = k m + l
    welds the grid vertex (lattice[k], lattice[l]) of both tori."""
    lattice = (n // (2 * m) + (n // m) * np.arange(m)) % n
    return np.repeat(lattice, m), np.tile(lattice, m)


def _slice_vertices(t, m, n, radius):
    """Every point of the welded slice, in _slice_index_map's layout: the
    two torus copies, then the rings of each joining arc, tube a = k m + l
    built at its own weld center."""
    n2 = n * n
    ang = 2.0 * np.pi * np.arange(n) / n
    verts = np.empty((2 * n2 + m * m * (TUBE_SEGMENTS + 1) * TUBE_RING_POINTS, 4))
    verts[:n2] = _torus_vertices(t, ang)
    verts[n2:2 * n2] = _torus_vertices(1.0 - t, ang)
    tubes = verts[2 * n2:].reshape(m * m, TUBE_SEGMENTS + 1, TUBE_RING_POINTS, 4)
    for a in range(m * m):
        tubes[a] = _composite_tube_base(t, m, radius, *divmod(a, m))
    return verts


def _class_corners(t, m, n, radius):
    """The corners of one triangle of each congruence class, laid out by
    the point code of _slice_vertices on index subsets, as (slice vertex
    indices, points) for each of three parts:

    - grid cell 0 of the lower torus, then of the upper: chart indices 0
      and 1 on each axis, in the layout of a 2 x 2 grid;
    - collar 0's vertex list: the link hexagon of weld center (ic[0],
      jc[0]) on the lower torus (_LINK_OFFSETS), then tube 0's last ring;
    - tube 0's first two rings, its first strip.
    """
    seg, rr = TUBE_SEGMENTS, TUBE_RING_POINTS
    n2 = n * n
    ang = 2.0 * np.pi * np.arange(n) / n
    ic, jc = _weld_centers(m, n)
    i, j = np.array([[0], [1]]), np.array([0, 1])
    cell = (np.concatenate([i * n + j, n2 + i * n + j]).ravel(),
            np.vstack([_torus_vertices(s, ang, i, j) for s in (t, 1.0 - t)]))
    di, dj = _LINK_OFFSETS
    rings = _composite_tube_base(t, m, radius, rows=[0, 1, seg])
    collar = (np.concatenate([(ic[0] + di) * n + jc[0] + dj, 2 * n2 + seg * rr + np.arange(rr)]),
              np.vstack([_torus_vertices(t, ang, ic[0] + di, jc[0] + dj), rings[2]]))
    strip = (2 * n2 + np.arange(2 * rr), rings[:2].reshape(-1, 4))
    return cell, collar, strip


@dataclass
class DoubledSlice:
    """One slice of the paired stage: two tori welded by orbit tubes,
    over a grid of size n, with tube radius radius.

    The triangle list (int32), area and chi are built with the slice.
    The areas read only one triangle of each congruence class, so the
    vertex array is laid out when vertices is first read, and
    n_vertices counts it in closed form.
    """

    t: float
    m: int
    n: int
    radius: float
    triangles: np.ndarray
    area: float
    area_parts: dict
    chi: int

    @property
    def n_vertices(self):
        return 2 * self.n * self.n + self.m * self.m * (TUBE_SEGMENTS + 1) * TUBE_RING_POINTS

    @functools.cached_property
    def vertices(self):
        return _slice_vertices(self.t, self.m, self.n, self.radius)


def doubled_slice(t, m, schedule=None, n=None):
    """Build the welded slice at foliation parameter t in (0, 1/2 - delta),
    where the schedule's tube radius is positive.

    The slice is the torus pair at parameters t and 1 - t, with the star
    of each weld center removed, a geodesic tube along the orbit of the
    joining curve from each weld center of one torus to its match on the
    other, and an annular collar zipped from each hole's boundary straight
    to the tube's end ring, which lies in the torus's tangent plane at the
    weld center.  The collar triangulation is built once, by
    _bridge_cycles, and transported by the index-level group action, so
    the triangle set is symmetric to roundoff.

    area_parts sums each part once per congruence class of triangles, an
    orbit of isometries of S^3.  A torus's grid cells are the first cell's
    images under the rotations of its two factors, so its area is the kept
    count of each of the cell's two triangle shapes times that shape's
    area; the collars are collar0's images under the group, 2 m^2 times
    its area; a tube's strips are its first strip's images under the
    rotations along the arc, m^2 TUBE_SEGMENTS times that strip's area.
    The sum over every triangle agrees to roundoff; only those triangles'
    corners are laid out (_class_corners), and measured in one call.
    """
    m, schedule, n = _family_args(m, schedule, n)
    if not 0.0 < t < schedule.closing:
        raise DomainError("welded slices live at parameters in (0, 1/2 - delta)")
    t = float(t)
    n2 = n * n
    radius = float(schedule.eta(t))
    if not radius > 0.0:
        raise DomainError("tube radius at t = %r underflows to 0 (epsilon = %r); a welded"
                          " slice needs a positive radius" % (t, schedule.epsilon))
    cap = 0.6 * min(_weld_capacity(t, n), _weld_capacity(1.0 - t, n))
    if radius >= cap:
        raise RadiusTooLarge(
            "tube radius %.3g exceeds the weld collar capacity %.3g" % (radius, cap)
        )
    seg, rr = TUBE_SEGMENTS, TUBE_RING_POINTS
    ic, jc = _weld_centers(m, n)
    # both tori have the triangle layout of _grid_triangles, so one mask
    # drops the stars of the weld centers from each
    grid = _grid_triangles(n, n)
    keep = np.ones(len(grid), dtype=bool)
    keep[_grid_star(n, ic, jc).ravel()] = False
    cell, collar, strip = _class_corners(t, m, n, radius)
    # canonical collar at the lower-torus end of the first arc, on its own
    # vertex list (_class_corners): the link hexagon counterclockwise from
    # flat angle 0 (math.atan2 per offset, so no SIMD loop reaches the zip)
    # to the tube's last ring, whose point k sits at the flat angle pi/4 -
    # psi_k (_composite_tube_base): at angle 2 pi p/rr sits point rr/8 - p
    hex_ang = np.array([math.atan2(math.sqrt(1.0 - t) * dj, math.sqrt(t) * di) % (2.0 * math.pi)
                        for di, dj in _LINK_OFFSETS.T.tolist()])
    ring = np.arange(rr)
    collar0 = _bridge_cycles(np.arange(6), hex_ang, 6 + (rr // 8 - ring) % rr,
                             2.0 * np.pi * ring / rr)
    # tube 0 on its own block of vertices; tube k is it shifted by k blocks
    block = (seg + 1) * rr
    tube0 = _tube_strips(np.arange(block, dtype=np.int32).reshape(seg + 1, rr))
    # kept triangles of each of a grid cell's two shapes (a star drops 3 of each)
    kept_a, kept_b = np.count_nonzero(keep.reshape(-1, 2), axis=0).tolist()
    n_kept, n_collar = kept_a + kept_b, 2 * m * m * len(collar0)
    tris = np.empty((2 * n_kept + n_collar + m * m * len(tube0), 3), dtype=np.int32)
    np.compress(keep, grid, axis=0, out=tris[:n_kept])
    np.add(tris[:n_kept], n2, out=tris[n_kept:2 * n_kept])
    tris[2 * n_kept:2 * n_kept + n_collar] = _slice_index_map(
        m, n, group_elements(m), collar[0][collar0]).reshape(-1, 3)
    np.add(tube0, (2 * n2 + block * np.arange(m * m, dtype=np.int32))[:, None, None],
           out=tris[2 * n_kept + n_collar:].reshape(m * m, len(tube0), 3))
    # one triangle of each class (the docstring), in one call on the parts'
    # 8, 6 + rr and 2 rr corners (grid cell 0's two are the 2 x 2 grid's
    # first two); each part is summed on its own, the tori lower first,
    # and that order fixes the last bits
    cell2 = _grid_triangles(2, 2)[:2]
    areas = _spherical_triangle_areas(
        np.vstack([cell[1], collar[1], strip[1]]),
        np.concatenate([cell2, cell2 + 4, collar0 + 8, tube0[:2 * rr] + 14 + rr]))
    del grid, keep, tube0
    cells, areas = areas[:4].tolist(), areas[4:]
    area_tori = (kept_a * cells[0] + kept_b * cells[1]) + (kept_a * cells[2] + kept_b * cells[3])
    area_collars = 2 * m * m * float(np.sum(areas[:len(collar0)]))
    area_tubes = m * m * seg * float(np.sum(areas[len(collar0):]))
    return DoubledSlice(
        t=t, m=m, n=n, radius=radius, triangles=tris,
        area=area_tori + area_collars + area_tubes,
        area_parts={"tori": area_tori, "collars": area_collars, "tubes": area_tubes},
        chi=euler_characteristic(tris),
    )


def _sheet_area(m, s, h_eff, t_neck):
    """Continuum areas of the punctured double sheet, m^2 times one
    cell's, for rows of retraction steps s and necks t_neck (arrays,
    broadcast), in one band pass.

    The sheets are the offsets +-f of the middle torus, f = (1 - s) h_eff
    log_cutoff(g, t_neck), composed with the retraction of each symmetry
    cell onto its boundary; s = 0 is the graph-neck slice with neck
    t_neck and s > 0 the collapse.  The cutoff rides at the retracted
    point, so in the image chart the sheets are the punctured offset of
    scale (1 - s) h_eff over the image of the cell less its excised disk
    g <= t_neck^2: the band of fermi.band_nodes with lower limit the
    retracted circle, and outside it the constant offset, whose area is
    exact.  At s = 1 the retraction has pushed the cell onto the grid and
    the sheets have no area.  The sheet is invariant under the symmetry
    group, so the m^2 cells contribute alike.
    """
    s, t_neck = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                      for v in (s, t_neck)))
    open_ = s != 1.0
    scale = (1.0 - s[open_]) * h_eff
    plus, minus, disk = band_sheets(scale, t_neck[open_], s[open_], math.pi / m)
    outer = sheet_elements(scale, 0.0, 0.0)[0]
    cell = (2.0 * math.pi / m) ** 2
    area = np.zeros(s.shape)
    area[open_] = m * m * (plus + minus + 2.0 * outer * (cell - disk))
    return area


def _pair_row(t, m, schedule):
    """Continuum area of the paired slice at t in (0, 1/2 - delta].

    The two flat tori, less the m^2 flat weld disks of the tube radius on
    each, plus the m^2 tubes along the full joining arcs.
    """
    t_c = min(t, schedule.closing)
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
    their continuum areas from _sheet_area, one polar band a row and all
    rows in one band pass: a graph-neck row carries its neck_radius and,
    as removed_disk_area, the flat area m^2 pi t^4 of the disks one sheet
    excises.  The budget is twice the middle torus area and must never be
    reached; the first row in t that reaches it raises.

    One welded slice, at the last paired parameter with a positive tube
    radius, witnesses the topology: its Euler characteristic is the
    summary's regular_chi, witness_vertices and witness_triangles are its
    mesh sizes (the vertex count in closed form), and
    witness_mesh_rel_excess is its mesh area over the continuum area,
    minus 1 (the discretization error the rows no longer carry); that
    mesh area is summed once per congruence class of triangles
    (doubled_slice).  The slice's vertex array is never read here, so it
    is never laid out.
    """
    m, schedule, n = _family_args(m, schedule, n)
    delta = schedule.delta
    t_a = schedule.closing
    t_b = 0.5 - 0.5 * delta
    h_eff = schedule.handoff_offset
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
    bad = t_grid[~((t_grid >= 0.0) & (t_grid <= 0.5 + 1e-12))]
    if bad.size:
        raise DomainError("slice parameters must sit in [0, 1/2], got t = %r" % float(bad[0]))
    budget = 4.0 * math.pi ** 2

    def under_budget(row):
        if row["area"] >= budget:
            raise BudgetViolated(
                "slice at t = %.6g reached the doubled area budget; retune the schedule"
                % row["t"]
            )
        return row

    rows, sheet, bands = [], [], []
    witness = None
    for t in sorted(float(t) for t in t_grid):
        if t <= t_a + 1e-15:
            if t <= 0.0:
                row = {"t": 0.0, "area": 0.0, "stage": "pair"}
            else:
                row = _pair_row(t, m, schedule)
                if row["stage"] == "pair_tubes":
                    witness = row
            rows.append(under_budget(row))
        elif t <= t_b + 1e-15:
            neck = (t - t_a) / (0.5 * delta) * HANDOFF_NECK_MAX
            sheet.append({
                "t": t,
                "area": None,
                "stage": "graph_necks",
                "neck_radius": neck,
                "removed_disk_area": m * m * math.pi * neck ** 4,
            })
            bands.append((0.0, neck))
        else:
            # over 1/2 - t_b so that t = 1/2 gives s = 1 exactly; the clamp
            # holds s at 1 on the grid's 1e-12 slack past 1/2
            sc = min((t - t_b) / (0.5 - t_b), 1.0)
            sheet.append({"t": t, "area": None, "stage": "collapse", "collapse_s": sc})
            bands.append((sc, HANDOFF_NECK_MAX))
    # the sheet rows follow the paired ones and are one band pass, up to
    # the first whose band leaves its cell (fermi.band_nodes): that row
    # raises, once the rows before it have met the budget
    steps, necks = np.reshape(bands, (-1, 2)).T
    outside = np.flatnonzero((necks >= math.pi / m / math.sqrt(2.0)) & (steps != 1.0))
    k = outside[0] if outside.size else len(sheet)
    for row, area in zip(sheet, _sheet_area(m, steps[:k], h_eff, necks[:k]).tolist()):
        row["area"] = area
        rows.append(under_budget(row))
    if k < len(sheet):
        _sheet_area(m, steps[k], h_eff, necks[k])
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
    if witness is not None:
        sl = doubled_slice(witness["t"], m, schedule, n)
        report.summary["regular_chi"] = int(sl.chi)
        report.summary["witness_vertices"] = sl.n_vertices
        report.summary["witness_triangles"] = len(sl.triangles)
        report.summary["witness_mesh_rel_excess"] = sl.area / witness["area"] - 1.0
    return report

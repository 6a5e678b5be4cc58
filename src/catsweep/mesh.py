"""Triangle meshes in flat space and in the round 3-sphere.

Vertices live in the ambient chart (R^3, or R^4 restricted to the unit
sphere), each with the two curvature terms of the Jacobi potential,
|A|^2 and Ric(N, N).  Areas, stiffness and mass matrices, level-set
lengths, and the Euler characteristic all work from the vertex/triangle
arrays alone.

Spherical triangle areas gather only the given triangles' corners and
add the squared chords coordinate by coordinate, in the order a row norm
sums them, so areas match the row-gather form bit for bit.  A welded
slice calls them on one triangle of each congruence class, never on the
whole slice, and lays out no other points.  The Euler characteristic
reads the triangle list alone: a boolean mask counts the referenced
vertices, and distinct edge keys are counted after one sort, each key
built in place in the narrowest unsigned type that holds it.  A welded
slice's int32 indices are read as uint32 keys with no copy; only when
base^2 needs 64 bits (a 512 grid) are they widened.

The package builds only product tori in S^3 (`surfaces`); flat-space
meshes, the tests' disk and sphere, check the kernels.  Distances are
measured in closed form, in the flat metric of a product torus.  The mesh
geodesic `geodesic_distances` and its `edge_lengths` serve only the tests,
as the approximation that closed form is checked against, and the
benchmark's per-layer tracer.

The cotangent weights are computed in one place, `_cotan_weights`: the
Dirichlet energy sums them over triangles and corners with no matrix,
and `cotan_stiffness` assembles the sparse matrix of the same form.
scipy is imported inside the two functions that build sparse matrices,
`cotan_stiffness` and `geodesic_distances`, so no command loads it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

AMBIENT_R3 = "euclidean_r3"
AMBIENT_S3 = "round_s3"


@dataclass
class MeshSurface:
    """Indexed triangle mesh with |A|^2 and Ric(N, N) per vertex.

    areas holds the per-triangle metric areas, measured once at
    construction; the vertex and triangle arrays are not changed after it.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    ambient: str
    a_norm2: np.ndarray
    ric_nn: np.ndarray
    aux: dict = field(default_factory=dict)
    areas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.ambient not in (AMBIENT_R3, AMBIENT_S3):
            raise DomainError("unknown ambient tag %r" % (self.ambient,))
        dim = 3 if self.ambient == AMBIENT_R3 else 4
        if self.vertices.ndim != 2 or self.vertices.shape[1] != dim:
            raise DomainError("vertex array must be (n, %d)" % dim)
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise DomainError("triangle array must be (m, 3)")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise DomainError("triangle index out of range")
        self.a_norm2 = np.asarray(self.a_norm2, dtype=float)
        self.ric_nn = np.asarray(self.ric_nn, dtype=float)
        if self.a_norm2.shape != (len(self.vertices),) or self.ric_nn.shape != (
            len(self.vertices),
        ):
            raise DomainError("curvature arrays must be per-vertex scalars")
        if self.ambient == AMBIENT_S3:
            radii = np.linalg.norm(self.vertices, axis=1)
            if np.any(np.abs(radii - 1.0) > 1e-12):
                raise DomainError("round_s3 vertices must satisfy |z|^2+|w|^2 = 1 to 1e-12")
        self.areas = triangle_areas(self)
        if self.triangles.size and np.any(self.areas <= 0.0):
            raise DomainError("every triangle needs positive metric area")

    @property
    def n_vertices(self):
        return len(self.vertices)


def _chordal_triangle_areas(verts, tris):
    u = verts[tris[:, 1]] - verts[tris[:, 0]]
    v = verts[tris[:, 2]] - verts[tris[:, 0]]
    uu = np.sum(u * u, axis=1)
    vv = np.sum(v * v, axis=1)
    uv = np.sum(u * v, axis=1)
    return 0.5 * np.sqrt(np.maximum(uu * vv - uv * uv, 0.0))


def _spherical_triangle_areas(verts, tris):
    # three points of S^3 span a great 2-sphere; the geodesic triangle area
    # is the spherical excess there, computed from side arcs (l'Huilier).
    # Only the given triangles' corners are gathered; the squared chords
    # add up over the coordinates left to right, and that order fixes the
    # last bit of every area
    corners = np.take(verts, tris.T, axis=0)
    sq = np.zeros((3, len(tris)))
    for k, (p, q) in enumerate(((1, 2), (0, 2), (0, 1))):
        d = corners[p] - corners[q]
        d *= d
        for x in d.T:
            sq[k] += x
    a, b, c = 2.0 * np.arcsin(np.clip(0.5 * np.sqrt(sq), 0.0, 1.0))
    s = 0.5 * (a + b + c)
    prod = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - a))
        * np.tan(0.5 * (s - b))
        * np.tan(0.5 * (s - c))
    )
    return 4.0 * np.arctan(np.sqrt(np.maximum(prod, 0.0)))


def triangle_areas(m):
    """Per-triangle metric areas through the piecewise-geodesic geometry."""
    if m.triangles.size == 0:
        return np.zeros(0)
    if m.ambient == AMBIENT_S3:
        return _spherical_triangle_areas(m.vertices, m.triangles)
    return _chordal_triangle_areas(m.vertices, m.triangles)


def _unique_edges(tris):
    """Undirected edges of a triangle list as (lo, hi) rows in lexicographic order.

    Each edge is keyed as the single integer lo * base + hi, which sorts
    exactly like the pair because hi < base; a sort and a mask on equal
    neighbours keep one key per edge.
    """
    pairs = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    base = int(tris.max(initial=0)) + 1
    keys = np.sort(pairs.min(axis=1) * base + pairs.max(axis=1))
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return np.column_stack([keys // base, keys % base])


def edge_lengths(m):
    """Unique undirected edges and their metric lengths (arcs in S^3)."""
    pairs = _unique_edges(m.triangles)
    chord = np.linalg.norm(m.vertices[pairs[:, 0]] - m.vertices[pairs[:, 1]], axis=1)
    if m.ambient == AMBIENT_S3:
        lengths = 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))
    else:
        lengths = chord
    return pairs, lengths


def _metric_side(m, i, j):
    chord = np.linalg.norm(m.vertices[i] - m.vertices[j], axis=-1)
    if m.ambient == AMBIENT_S3:
        return 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))
    return chord


def _cotan_weights(m):
    """Cotangent weights of every triangle: for each corner k, half the
    cotangent of its angle and the two other corners (i, j), whose edge it
    faces, as three (3, triangles) arrays.

    Angles come from metric edge lengths, so the weights are intrinsic.
    """
    tris = m.triangles
    # side lengths opposite each corner
    a = _metric_side(m, tris[:, 1], tris[:, 2])
    b = _metric_side(m, tris[:, 0], tris[:, 2])
    c = _metric_side(m, tris[:, 0], tris[:, 1])
    la, lb, lc = np.stack([a, b, c]), np.stack([b, c, a]), np.stack([c, a, b])
    # cos of the angle at corner k, opposite side la
    cos_k = np.clip((lb * lb + lc * lc - la * la) / (2.0 * lb * lc), -1.0, 1.0)
    sin_k = np.sqrt(np.maximum(1.0 - cos_k * cos_k, 1e-300))
    return 0.5 * cos_k / sin_k, tris.T[[1, 2, 0]], tris.T[[2, 0, 1]]


def cotan_stiffness(m):
    """Cotangent-weight Laplacian as a sparse symmetric PSD matrix, the
    matrix of dirichlet_energy."""
    from scipy.sparse import coo_matrix

    w, i, j = _cotan_weights(m)
    rows = np.stack([i, j, i, j], axis=1).ravel()
    cols = np.stack([j, i, i, j], axis=1).ravel()
    vals = np.stack([-w, -w, w, w], axis=1).ravel()
    n = m.n_vertices
    return coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def lumped_mass(m):
    """Diagonal mass vector: one third of each incident triangle area."""
    areas = triangle_areas(m)
    mass = np.zeros(m.n_vertices)
    for k in range(3):
        np.add.at(mass, m.triangles[:, k], areas / 3.0)
    return mass


def dirichlet_energy(m, values):
    """Dirichlet energy of the linear interpolant of a vertex field: the
    sum over triangles and corners of w (v_i - v_j)^2, with the cotangent
    weight w of the corner facing edge (i, j); no matrix is built."""
    v = np.asarray(values, dtype=float)
    w, i, j = _cotan_weights(m)
    d = v[i] - v[j]
    return float(np.sum(w * d * d))


def geodesic_distances(m, source):
    """Mesh geodesic distance from one vertex.

    Dijkstra over edge-length weights, then a single triangle-unfolding
    sweep in breadth order, which removes most of the metrication bias of
    pure edge paths.  On the 64^2 product tori it is within 4e-4 relative
    of the exact flat distance out to distance 1, but up to 27% off near
    the cut locus; no package code calls it.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    pairs, lengths = edge_lengths(m)
    n = m.n_vertices
    graph = csr_matrix(
        (
            np.concatenate([lengths, lengths]),
            (
                np.concatenate([pairs[:, 0], pairs[:, 1]]),
                np.concatenate([pairs[:, 1], pairs[:, 0]]),
            ),
        ),
        shape=(n, n),
    )
    dist = dijkstra(graph, indices=source)
    dist = np.asarray(dist, dtype=float)

    tris = m.triangles
    la = _metric_side(m, tris[:, 1], tris[:, 2])
    lb = _metric_side(m, tris[:, 0], tris[:, 2])
    lc = _metric_side(m, tris[:, 0], tris[:, 1])
    order = np.argsort(np.min(dist[tris], axis=1))
    for ti in order:
        i, j, k = tris[ti]
        sides = {
            (i, j, k): (lc[ti], lb[ti], la[ti]),
            (j, k, i): (la[ti], lc[ti], lb[ti]),
            (k, i, j): (lb[ti], la[ti], lc[ti]),
        }
        for (p, q, r), (c_pq, b_pr, a_qr) in sides.items():
            # unfold: p at origin, q at (c,0), source mirrored below the axis
            dp, dq = dist[p], dist[q]
            if not (np.isfinite(dp) and np.isfinite(dq)) or c_pq <= 0.0:
                continue
            xs = (dp * dp - dq * dq + c_pq * c_pq) / (2.0 * c_pq)
            ys2 = dp * dp - xs * xs
            if ys2 < 0.0:
                continue
            ys = -math.sqrt(ys2)
            xk = (b_pr * b_pr - a_qr * a_qr + c_pq * c_pq) / (2.0 * c_pq)
            yk2 = b_pr * b_pr - xk * xk
            if yk2 <= 0.0:
                continue
            yk = math.sqrt(yk2)
            # the straight segment source->r must cross the shared edge
            denom = yk - ys
            if denom <= 0.0:
                continue
            x_cross = xs + (xk - xs) * (-ys) / denom
            if x_cross <= 0.0 or x_cross >= c_pq:
                continue
            cand = math.hypot(xk - xs, yk - ys)
            if cand < dist[r]:
                dist[r] = cand
    return dist


def level_set_perimeter(m, values, level):
    """Length of the piecewise-linear level set of a vertex field."""
    v = np.asarray(values, dtype=float)
    tris = m.triangles
    # edge e of a triangle runs from corner e to corner e + 1 (mod 3)
    ends = np.stack([tris, np.roll(tris, -1, axis=1)], axis=-1)
    va, vb = v[ends[..., 0]], v[ends[..., 1]]
    cross = (va - level) * (vb - level) < 0.0
    # a triangle carries a segment when exactly two of its edges cross
    hit = cross & (np.count_nonzero(cross, axis=1) == 2)[:, None]
    ia, ib = ends[..., 0][hit], ends[..., 1][hit]
    lam = ((level - v[ia]) / (v[ib] - v[ia]))[:, None]
    pts = (1.0 - lam) * m.vertices[ia] + lam * m.vertices[ib]
    seg = np.linalg.norm(pts[1::2] - pts[0::2], axis=1)
    if m.ambient == AMBIENT_S3:
        seg = 2.0 * np.arcsin(np.minimum(0.5 * seg, 1.0))
    return float(np.sum(seg))


def euler_characteristic(triangles):
    """V - E + F from a triangle list; counts only referenced vertices.

    Each triangle side (a, b) is keyed as the single integer
    lo * base + hi = min(a, b) (base - 1) + a + b, in the narrowest
    unsigned type that holds base^2 (uint32 for base up to 65,535), else
    int64.  The keys are built in place in one array, every partial sum
    at most the key, so the narrow type never wraps; after one sort, an
    edge starts wherever a key differs from its predecessor.  The index
    columns are read as the key type in place when the widths match (a
    welded slice's int32 indices as uint32 keys), and cast otherwise.
    """
    tris = np.asarray(triangles)
    if tris.dtype != np.int32:
        tris = tris.astype(np.int64, copy=False)
    if tris.size == 0:
        return 0
    seen = np.zeros(int(tris.max()) + 1, dtype=bool)
    seen[tris] = True
    n_referenced = np.count_nonzero(seen)
    base = len(seen)
    key = np.min_scalar_type(base * base)
    if key.itemsize > 4:
        key = np.dtype(np.int64)
    if key.itemsize == tris.itemsize:
        cols = tris.T.view(key)
    else:
        cols = tris.T.astype(key)
    keys = np.empty((3, len(tris)), dtype=key)
    for side, (i, j) in zip(keys, ((0, 1), (1, 2), (2, 0))):
        np.minimum(cols[i], cols[j], out=side)
        np.multiply(side, base - 1, out=side)
        np.add(side, cols[i], out=side)
        np.add(side, cols[j], out=side)
    keys = keys.ravel()
    keys.sort()
    n_edges = 1 + np.count_nonzero(keys[1:] != keys[:-1])
    return int(n_referenced - n_edges + len(tris))

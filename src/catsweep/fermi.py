"""Normal-offset machinery over meshed surfaces.

Covers the area of normal graphs (exact pushes and the second-order
expansion with its quadratic form), per-triangle metric jets with their
determinant and inverse expansions, logarithmic cutoff fields with their
Dirichlet energy, the lowest Jacobi eigenpair, and the two-sided punctured
graph family whose maximal area stays below twice the base area.

Cutoffs and tube families read exact distance fields: the flat metric of a
product torus (`surfaces.torus_distances`) or the radius about a radial
disk's center.  Other meshes raise DomainError; the mesh geodesic
`mesh.geodesic_distances` now serves only the tests and the benchmark's
tracer.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import (
    ChartOverflow,
    DomainError,
    NotMinimal,
    NotPositiveDefinite,
    RadiusTooLarge,
    SolverFailure,
)
from .mesh import (
    cotan_stiffness,
    dirichlet_energy,
    lumped_mass,
    mesh_area,
    push_along_normals,
    triangle_areas,
)
from .report import make_report
from .surfaces import torus_distances

MINIMALITY_TOL = 5e-2   # ceiling on max |tr(g^-1 A)| before a base stops counting as minimal
JACOBI_TOL = 1e-9       # relative eigenvalue change that ends the inverse iteration
JACOBI_MAX_ITERS = 200


@dataclass
class NormalGraphField:
    """Scalar field phi on a base mesh, deployed at normal offset scale h."""

    base: object
    phi: np.ndarray
    h: float

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.shape != (self.base.n_vertices,):
            raise DomainError("phi must be a per-vertex scalar field")
        if not np.all(np.isfinite(self.phi)):
            raise DomainError("phi contains non-finite values")

    def offsets(self):
        return self.h * self.phi


def _check_validity(g):
    reach = abs(g.h) * float(np.max(np.abs(g.phi))) if g.phi.size else 0.0
    if reach >= g.base.normal_validity:
        raise ChartOverflow(
            "offset %.3g exceeds the normal chart radius %.3g"
            % (reach, g.base.normal_validity)
        )


def graph_area_exact(g):
    """Area of the normal graph, by pushing vertices and re-measuring.

    The push follows ambient geodesics (straight lines in R^3, great
    circles in the round S^3); the area is that of the pushed piecewise
    geometry, so it converges to the smooth graph area under refinement.
    """
    _check_validity(g)
    pushed = push_along_normals(g.base, g.offsets())
    return float(np.sum(triangle_areas(g.base, vertices=pushed)))


@dataclass
class GraphAreaEstimate:
    estimate: float
    base_area: float
    quadratic_form: float
    envelope: float


def quadratic_form(m, phi):
    """Q(phi) = integral of |grad phi|^2 - phi^2 (|A|^2 + Ric(N,N))."""
    phi = np.asarray(phi, dtype=float)
    mass = lumped_mass(m)
    q = m.a_norm2 + m.ric_nn
    return dirichlet_energy(m, phi) - float(np.sum(mass * phi * phi * q))


def graph_area_estimate(g, c_envelope=1.0):
    """Two-term area expansion |base| + (h^2/2) Q(phi) with an h^3 envelope.

    Valid only over minimal bases; the cubic constant is not derivable from
    the expansion itself, so the envelope is reported with a caller-chosen C.
    """
    _check_validity(g)
    jet = metric_jet(g.base)
    if jet.minimal_residual > MINIMALITY_TOL:
        raise NotMinimal(
            "mean-curvature residual %.3g exceeds %.3g"
            % (jet.minimal_residual, MINIMALITY_TOL)
        )
    base_area = mesh_area(g.base, method="triangle")
    q_val = quadratic_form(g.base, g.phi)
    grad_part = dirichlet_energy(g.base, g.phi)
    envelope = c_envelope * abs(g.h) ** 3 * (base_area + grad_part)
    return GraphAreaEstimate(
        estimate=base_area + 0.5 * g.h * g.h * q_val,
        base_area=base_area,
        quadratic_form=q_val,
        envelope=envelope,
    )


@dataclass
class MetricJet:
    """Per-triangle first/second fundamental forms and the order-2 tensor.

    All three 2x2 matrices live in the triangle's edge basis (the two edge
    vectors from corner 0), so traces against g0 are basis-independent.
    """

    g0: np.ndarray
    a_form: np.ndarray
    t_form: np.ndarray
    a_norm2: np.ndarray
    ric_nn: float
    minimal_residual: float
    trust: str


def metric_jet(m):
    """Assemble g0, A, T per triangle.

    Uses the surface's analytic principal curvatures when available,
    otherwise a one-sided finite difference of the vertex normals (flagged
    lower-trust).
    """
    tris = m.triangles
    p0 = m.vertices[tris[:, 0]]
    u = m.vertices[tris[:, 1]] - p0
    v = m.vertices[tris[:, 2]] - p0
    g0 = np.empty((len(tris), 2, 2))
    g0[:, 0, 0] = np.sum(u * u, axis=1)
    g0[:, 0, 1] = g0[:, 1, 0] = np.sum(u * v, axis=1)
    g0[:, 1, 1] = np.sum(v * v, axis=1)

    if "shape_kappa" in m.aux:
        kap = m.aux["shape_kappa"]
        fr = m.aux["shape_frames"]
        # average the ambient shape tensor over the three corners
        sh = np.einsum("nk,nki,nkj->nij", kap, fr, fr)
        sh_tri = (sh[tris[:, 0]] + sh[tris[:, 1]] + sh[tris[:, 2]]) / 3.0
        a_form = np.empty_like(g0)
        a_form[:, 0, 0] = np.einsum("ni,nij,nj->n", u, sh_tri, u)
        a_form[:, 0, 1] = a_form[:, 1, 0] = np.einsum("ni,nij,nj->n", u, sh_tri, v)
        a_form[:, 1, 1] = np.einsum("ni,nij,nj->n", v, sh_tri, v)
        trust = "analytic"
    else:
        n0 = m.vertex_normals[tris[:, 0]]
        du = m.vertex_normals[tris[:, 1]] - n0
        dv = m.vertex_normals[tris[:, 2]] - n0
        a_form = np.empty_like(g0)
        a_form[:, 0, 0] = -np.sum(u * du, axis=1)
        a_form[:, 1, 1] = -np.sum(v * dv, axis=1)
        a_form[:, 0, 1] = a_form[:, 1, 0] = -0.5 * (
            np.sum(u * dv, axis=1) + np.sum(v * du, axis=1)
        )
        trust = "finite_difference"

    kappa_amb = float(m.aux.get("ambient_curvature", 0.0))
    g_inv = np.linalg.inv(g0)
    ga = g_inv @ a_form
    t_form = a_form @ ga - kappa_amb * g0
    tr = np.trace(ga, axis1=1, axis2=2)
    a_n2 = np.trace(ga @ ga, axis1=1, axis2=2)
    return MetricJet(
        g0=g0,
        a_form=a_form,
        t_form=t_form,
        a_norm2=a_n2,
        ric_nn=2.0 * kappa_amb,
        minimal_residual=float(np.max(np.abs(tr))) if len(tr) else 0.0,
        trust=trust,
    )


@dataclass
class DetInverseExpansion:
    det_coeffs: np.ndarray      # (m, 3): det(g_z)/det(g0) = 1 + c1 z + c2 z^2 + ...
    inv_coeffs: np.ndarray      # (m, 3, 2, 2): g_z^{-1} = I0 + I1 z + I2 z^2 + ...
    tr_g_inv_a: np.ndarray
    tr_g_inv_t: np.ndarray
    tr2_g_inv_a: np.ndarray


def det_and_inverse_expansion(jet, eps):
    """Order-2 expansions of det(g_z) and g_z^{-1} for g_z = g0 - 2zA + z^2 T."""
    g0, a, t = jet.g0, jet.a_form, jet.t_form
    for z in (eps, -eps):
        gz = g0 - 2.0 * z * a + z * z * t
        det = gz[:, 0, 0] * gz[:, 1, 1] - gz[:, 0, 1] * gz[:, 1, 0]
        if np.any(det <= 0.0) or np.any(gz[:, 0, 0] + gz[:, 1, 1] <= 0.0):
            raise NotPositiveDefinite("g_z loses positivity at z = %g" % z)
    g_inv = np.linalg.inv(g0)
    ga = g_inv @ a
    gt = g_inv @ t
    tr_ga = np.trace(ga, axis1=1, axis2=2)
    tr_gt = np.trace(gt, axis1=1, axis2=2)
    det_ga = ga[:, 0, 0] * ga[:, 1, 1] - ga[:, 0, 1] * ga[:, 1, 0]
    c1 = -2.0 * tr_ga
    c2 = tr_gt + 4.0 * det_ga
    det_coeffs = np.stack([np.ones_like(c1), c1, c2], axis=1)
    i1 = 2.0 * (g_inv @ a @ g_inv)
    i2 = 4.0 * (g_inv @ a @ g_inv @ a @ g_inv) - g_inv @ t @ g_inv
    inv_coeffs = np.stack([g_inv, i1, i2], axis=1)
    return DetInverseExpansion(
        det_coeffs=det_coeffs,
        inv_coeffs=inv_coeffs,
        tr_g_inv_a=tr_ga,
        tr_g_inv_t=tr_gt,
        tr2_g_inv_a=det_ga,
    )


@dataclass
class CutoffField:
    """Log-interpolated cutoff: 0 inside B_{t^2}, 1 outside B_t."""

    mesh: object
    center: int
    t: float
    values: np.ndarray
    dist: np.ndarray


def _distances_from(m, p):
    # exact fields only: the radius about a radial disk's center, or the
    # flat metric of a product torus (any other mesh raises DomainError)
    if m.aux.get("radial") and p == m.aux.get("center_vertex"):
        return np.array(m.aux["radius_of"], dtype=float)
    return torus_distances(m, p)


def log_cutoff(dist, t):
    """Log-interpolated cutoff of a distance field: 0 on dist <= t^2, 1 on
    dist >= t, and (2 log t - log dist)/log t in between."""
    values = np.ones_like(dist)
    log_t = math.log(t)
    inner = dist <= t * t
    values[inner] = 0.0
    mid = (~inner) & (dist < t)
    values[mid] = (2.0 * log_t - np.log(dist[mid])) / log_t
    return values


def build_cutoff(m, p, t):
    if not 0.0 < t < 1.0:
        raise DomainError("cutoff radius must sit in (0, 1), got t = %s" % t)
    bound = m.aux.get("disk_radius_bound", math.inf)
    if t >= bound:
        raise RadiusTooLarge(
            "radius %.3g is no embedded disk here (bound %.3g)" % (t, bound)
        )
    dist = _distances_from(m, p)
    return CutoffField(mesh=m, center=p, t=t, values=log_cutoff(dist, t), dist=dist)


def cutoff_energy(c):
    """Dirichlet energy of the cutoff.

    On ring-structured radial meshes the field depends on radius alone, and
    the energy of its log-linear radial interpolant has the closed ring-sum
    form 2*pi*sum (d eta)^2 / (d log r); otherwise the cotangent stiffness
    quadratic form is used.
    """
    m = c.mesh
    if m.aux.get("radial"):
        rings = m.aux["rings"]
        ring_of = m.aux["ring_of"]
        n_theta = m.aux["n_theta"]
        ring_vals = np.empty(len(rings))
        for ri in range(len(rings)):
            vals = c.values[ring_of == ri]
            ring_vals[ri] = vals[0]
            if np.max(np.abs(vals - vals[0])) > 1e-13:
                # field breaks the radial symmetry; fall through to cotan
                return dirichlet_energy(m, c.values)
        d_eta = np.diff(ring_vals)
        d_log = np.diff(np.log(rings))
        keep = d_eta != 0.0
        return float(2.0 * math.pi * np.sum(d_eta[keep] ** 2 / d_log[keep]))
    return dirichlet_energy(m, c.values)


@dataclass
class JacobiData:
    stiffness: object
    potential: np.ndarray
    mass: np.ndarray
    lowest_pair: tuple


def jacobi_lowest(m):
    """Lowest eigenpair of -L = -(Laplacian + potential) on the mesh.

    Generalized problem (S - M q) phi = mu M phi with lumped mass M; shifted
    inverse iteration with the shift below -max(q), which bounds the lowest
    eigenvalue from below since S is positive semidefinite.
    """
    s = cotan_stiffness(m)
    mass = lumped_mass(m)
    q = m.a_norm2 + m.ric_nn
    sigma = -float(np.max(q)) - 1.0
    shifted = s + csc_matrix(
        (mass * (-q - sigma), (np.arange(m.n_vertices), np.arange(m.n_vertices))),
        shape=s.shape,
    )
    solver = splu(csc_matrix(shifted))
    x = np.ones(m.n_vertices)
    x /= math.sqrt(float(np.sum(mass * x * x)))
    mu_prev = math.inf
    for _ in range(JACOBI_MAX_ITERS):
        y = solver.solve(mass * x)
        y /= math.sqrt(float(np.sum(mass * y * y)))
        mu = float((y @ (s @ y)) - np.sum(mass * q * y * y))
        x = y
        if abs(mu - mu_prev) <= JACOBI_TOL * max(1.0, abs(mu)):
            break
        mu_prev = mu
    else:
        raise SolverFailure("inverse iteration missed tolerance %g" % JACOBI_TOL)
    if float(np.sum(mass * x)) < 0.0:
        x = -x
    return JacobiData(stiffness=s, potential=q, mass=mass, lowest_pair=(mu, x))


def two_sided_tube_family(m, phi, p_list, h, t_grid=None):
    """Family of paired normal graphs +/- h*(phi*eta_t), punctured at p_list.

    For each t the cutoff eta_t (product over the punctures) shapes the
    offset field, triangles whose barycenter falls inside a puncture disk
    B_{t^2} are dropped, and both pushed copies are measured.  The report's
    budget is twice the base area; the margin must come out positive.
    """
    phi = np.asarray(phi, dtype=float)
    if t_grid is None:
        t_grid = np.linspace(0.05, 0.35, 13)
    base_areas = triangle_areas(m)
    base_area = float(np.sum(base_areas))
    dists = [_distances_from(m, p) for p in p_list]
    bound = m.aux.get("disk_radius_bound", math.inf)
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        if not 0.0 < t < 1.0:
            raise DomainError("cutoff radius must sit in (0, 1), got t = %s" % t)
        if t >= bound:
            raise RadiusTooLarge("radius %.3g is no embedded disk here" % t)
        eta = np.ones(m.n_vertices)
        for dist in dists:
            eta *= log_cutoff(dist, t)
        field = NormalGraphField(base=m, phi=phi * eta, h=h)
        _check_validity(field)
        off = field.offsets()
        plus = push_along_normals(m, off)
        minus = push_along_normals(m, -off)
        keep = np.ones(len(m.triangles), dtype=bool)
        for dist in dists:
            bary = np.mean(dist[m.triangles], axis=1)
            keep &= bary > t * t
        a_plus = float(np.sum(triangle_areas(m, vertices=plus)[keep]))
        a_minus = float(np.sum(triangle_areas(m, vertices=minus)[keep]))
        removed = float(np.sum(base_areas[~keep]))
        rows.append(
            {
                "t": float(t),
                "area": a_plus + a_minus,
                "area_plus": a_plus,
                "area_minus": a_minus,
                "removed_base_area": removed,
            }
        )
    report = make_report(
        command="tube-family",
        params={
            "h": float(h),
            "punctures": [int(p) for p in p_list],
            "n_t": len(rows),
            "surface": m.aux.get("name", "mesh"),
        },
        rows=rows,
        budget=2.0 * base_area,
    )
    sup = report.summary["sup_area"]
    report.summary["kappa"] = (2.0 * base_area - sup) / (h * h) if h != 0 else 0.0
    return report

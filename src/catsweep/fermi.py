"""Normal-offset machinery over meshed surfaces.

Covers the area of normal graphs by exact pushes, logarithmic cutoff
fields with their Dirichlet energy, the lowest Jacobi eigenpair, and the
two-sided punctured graph family whose maximal area stays below twice the
base area.  The tube family serves criterion 8 and `fermi tubes` only; the
doubled sweepout measures its graph-neck stage by chart quadrature
(`doubling._sheet_area`).

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

from .errors import ChartOverflow, DomainError, RadiusTooLarge, SolverFailure
from .mesh import (
    cotan_stiffness,
    dirichlet_energy,
    lumped_mass,
    push_along_normals,
    triangle_areas,
)
from .report import make_report
from .surfaces import torus_distances

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
    iterations: int     # inverse-iteration solves
    factor_nnz: int     # nonzeros of the L and U factors


def jacobi_lowest(m):
    """Lowest eigenpair of -L = -(Laplacian + potential) on the mesh.

    Generalized problem (S - M q) phi = mu M phi with lumped mass M; shifted
    inverse iteration with the shift below -max(q), which bounds the lowest
    eigenvalue from below since S is positive semidefinite.

    The shifted operator S + M(-q - sigma) is symmetric positive definite:
    S, the cotan stiffness, is a sum of per-triangle Dirichlet energies and
    so positive semidefinite, and sigma = -max(q) - 1 makes the diagonal
    term M(-q - sigma) >= M > 0.  Elimination on it needs no pivoting (its
    pivots are those of a Cholesky factorization, all positive), so it is
    factored without, in a minimum-degree ordering of A + A^T that keeps the
    fill about half that of SuperLU's default column ordering.
    """
    s = cotan_stiffness(m)
    mass = lumped_mass(m)
    q = m.a_norm2 + m.ric_nn
    sigma = -float(np.max(q)) - 1.0
    shifted = s + csc_matrix(
        (mass * (-q - sigma), (np.arange(m.n_vertices), np.arange(m.n_vertices))),
        shape=s.shape,
    )
    try:
        solver = splu(
            csc_matrix(shifted),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise SolverFailure(
            "Jacobi operator factorization failed on %d vertices: %s" % (m.n_vertices, exc)
        ) from None
    x = np.ones(m.n_vertices)
    x /= math.sqrt(float(np.sum(mass * x * x)))
    mu_prev = math.inf
    for it in range(1, JACOBI_MAX_ITERS + 1):
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
    return JacobiData(
        stiffness=s,
        potential=q,
        mass=mass,
        lowest_pair=(mu, x),
        iterations=it,
        factor_nnz=int(solver.L.nnz + solver.U.nnz),
    )


def two_sided_tube_family(m, phi, p_list, h, t_grid=None):
    """Family of paired normal graphs +/- h*(phi*eta_t), punctured at p_list.

    For each t the cutoff eta_t (product over the punctures) shapes the
    offset field, triangles whose barycenter falls inside a puncture disk
    B_{t^2} are dropped, and both pushed copies are measured.  The report's
    budget is twice the base area; the margin must come out positive.
    """
    if not h > 0.0:
        raise DomainError("tube offset scale must be positive, got h = %s" % h)
    phi = np.asarray(phi, dtype=float)
    if t_grid is None:
        t_grid = np.linspace(0.05, 0.35, 13)
    base_areas = triangle_areas(m)
    base_area = float(np.sum(base_areas))
    dists = [_distances_from(m, p) for p in p_list]
    # a triangle survives while its barycentric distance to every puncture
    # stays above t^2, that is while the nearest one does
    bary = np.full(len(m.triangles), np.inf)
    for dist in dists:
        bary = np.minimum(bary, np.mean(dist[m.triangles], axis=1))
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
        keep = bary > t * t
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

"""The middle torus's two-sided offset, log cutoffs and the Jacobi operator.

Claim (iii) rests on one formula, `sheet_elements`: the area element of
the sheets +-f of the two-sided normal offset of the Clifford torus.
Every such area is its midpoint quadrature on the `chart_nodes`: the
doubled sweepout's graph-neck and collapse rows (`doubling._sheet_area`,
on one symmetry cell), criterion 5's second variation
(`acceptance.fermi_quad`) and criterion 8's punctured tube family
(`two_sided_tube_family`).

Cutoffs read exact distance fields: the flat metric of a product torus
(`surfaces.torus_distances`) or the radius about a radial disk's center.
Other meshes raise DomainError; the mesh geodesic
`mesh.geodesic_distances` now serves only the tests and the benchmark's
tracer.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import DomainError, RadiusTooLarge, SolverFailure
from .mesh import cotan_stiffness, dirichlet_energy, lumped_mass
from .report import make_report
from .surfaces import flat_torus_gap, torus_distances

JACOBI_TOL = 1e-9       # relative eigenvalue change that ends the inverse iteration
JACOBI_MAX_ITERS = 200

# neck radii t of the tube family's rows
TUBE_T_GRID = np.linspace(0.05, 0.35, 13)


def chart_nodes(m):
    """Midpoint nodes of a product torus's chart: the chart barycenters
    (theta, phi) of its triangles, and their chart areas as weights."""
    uv = m.chart_uv_corners
    du = uv[:, 1, :] - uv[:, 0, :]
    dv = uv[:, 2, :] - uv[:, 0, :]
    return (
        uv[:, :, 0].mean(axis=1),
        uv[:, :, 1].mean(axis=1),
        0.5 * np.abs(du[:, 0] * dv[:, 1] - du[:, 1] * dv[:, 0]),
    )


def sheet_elements(f, f_theta2, f_phi2):
    """Area elements of the sheets +f and -f over the middle torus.

    The sheet sigma f (sigma = +-1) is the point cos(f) p + sigma sin(f) N
    over p = (cos theta, sin theta, cos phi, sin phi)/sqrt(2) with unit
    normal N; per unit chart area (dtheta dphi) its element is

        sqrt(cos(2f)^2/4 + (1 + sigma sin 2f) f_phi^2/2 + (1 - sigma sin 2f) f_theta^2/2),

    given f and its squared chart partials at the nodes.  At f = 0 both
    are 1/2, the element of the middle torus itself.
    """
    c2 = 0.25 * np.cos(2.0 * f) ** 2
    s2 = np.sin(2.0 * f)
    return (np.sqrt(c2 + 0.5 * (1.0 + s2) * f_phi2 + 0.5 * (1.0 - s2) * f_theta2),
            np.sqrt(c2 + 0.5 * (1.0 - s2) * f_phi2 + 0.5 * (1.0 + s2) * f_theta2))


def check_offset(name, value, peak=1.0):
    """Refuse an offset scale at which no second variation can be read.

    The scale must be positive with a normal square, since margins are
    divided by it, and the offset peak * value must stay below pi/4: there
    each sheet of the middle torus's two-sided offset collapses onto a
    core circle, so the sheets are normal graphs only below it.
    """
    if not value > 0.0:
        raise DomainError("offset scale must be positive, got %s = %s" % (name, value))
    if value * value < sys.float_info.min:
        raise DomainError("offset scale %s = %s is too small: its square is no normal double"
                          % (name, value))
    if not peak * value < 0.25 * math.pi:
        raise DomainError("an offset must stay below pi/4, got %s = %s (offset %.6g)"
                          % (name, value, peak * value))


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


def two_sided_tube_family(m, p_list, h):
    """Family of paired normal graphs +-h*eta_t over the middle torus m,
    punctured at the vertices p_list.

    For each neck radius t of TUBE_T_GRID the offset field is h times the
    product of the log cutoffs about the punctures, the same cutoff and
    band t^2 < gap < t that doubling._sheet_area uses; its chart partials
    follow in closed form by the product rule.  Both sheets are measured
    by the midpoint quadrature of sheet_elements on chart_nodes, and a
    node within t^2 of a puncture is excised; removed_base_area is the
    area one sheet excises.  The budget is twice the base area, the chart
    area 2*pi^2 of the middle torus, and kappa is the margin over h^2.
    """
    check_offset("h", h)
    if m.aux.get("torus_t") != 0.5:
        raise DomainError(
            "the tube family lives on the middle torus, got mesh %r" % m.aux.get("name", "mesh")
        )
    th, ph, w = chart_nodes(m)
    # signed chart offsets from each puncture, wrapped to [-pi, pi)
    offsets = []
    for p in p_list:
        a = (th - m.aux["chart_theta"][p] + math.pi) % (2.0 * math.pi) - math.pi
        b = (ph - m.aux["chart_phi"][p] + math.pi) % (2.0 * math.pi) - math.pi
        offsets.append((a, b, flat_torus_gap(0.5, a, b, 2.0 * math.pi)))
    nearest = np.min([gap for _, _, gap in offsets], axis=0)
    base_area = 0.5 * float(np.sum(w))
    rows = []
    for t in TUBE_T_GRID:
        f = np.full(th.size, float(h))
        f_th = np.zeros(th.size)
        f_ph = np.zeros(th.size)
        for a, b, gap in offsets:
            eta = log_cutoff(gap, t)
            # the cutoff's partials are -(a, b) / (2 gap^2 log t) in the band
            slope = np.where((gap > t * t) & (gap < t), -0.5 / (math.log(t) * gap * gap), 0.0)
            f_th = f_th * eta + f * slope * a
            f_ph = f_ph * eta + f * slope * b
            f = f * eta
        keep = nearest > t * t
        plus, minus = sheet_elements(f[keep], f_th[keep] ** 2, f_ph[keep] ** 2)
        a_plus = float(np.sum(w[keep] * plus))
        a_minus = float(np.sum(w[keep] * minus))
        rows.append({"t": float(t), "area": a_plus + a_minus, "area_plus": a_plus,
                     "area_minus": a_minus, "removed_base_area": 0.5 * float(np.sum(w[~keep]))})
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
    report.summary["kappa"] = report.summary["margin"] / (h * h)
    return report

"""The middle torus's two-sided offset, log cutoffs and the Jacobi operator.

Claim (iii) rests on one formula, `sheet_elements`: the area element of
the sheets +-f of the two-sided normal offset of the Clifford torus.
Every such area is its midpoint quadrature on the `chart_nodes`, built
from the chart grid alone: the doubled sweepout's graph-neck and collapse
rows (`doubling._sheet_area`, on one symmetry cell), criterion 5's second
variation (`acceptance.fermi_quad`) and criterion 8's punctured tube
family (`two_sided_tube_family`).  The punctured rows share one field,
`punctured_sheets`: the offset scaled by the log cutoff about the
nearest puncture, with its band gradient in closed form.

A mesh cutoff (`build_cutoff`) reads the exact distance field of a
product torus (`surfaces.torus_distances`); other meshes raise
DomainError.  The mesh geodesic `mesh.geodesic_distances` serves only the
tests and the benchmark's tracer.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import DomainError, RadiusTooLarge, SolverFailure
from .mesh import cotan_stiffness, lumped_mass
from .report import make_report
from .surfaces import check_grid, flat_torus_gap, torus_distances

JACOBI_TOL = 1e-9       # relative eigenvalue change that ends the inverse iteration
JACOBI_MAX_ITERS = 200

# neck radii t of the tube family's rows
TUBE_T_GRID = np.linspace(0.05, 0.35, 13)


def chart_nodes(n, cells=None):
    """Midpoint nodes of the n-by-n chart grid of the middle torus: the
    barycenters (theta, phi) of its triangles and their chart areas.

    Each cell [j d, (j+1) d) x [k d, (k+1) d), d = 2 pi/n, in row-major
    order holds two triangles, (u0, v0) (u1, v0) (u1, v1) then (u0, v0)
    (u1, v1) (u0, v1), the triangles of the product torus mesh.  With
    cells = c only the c-by-c cells of the first rows and columns are
    built, the same nodes in the same order.
    """
    check_grid(n)
    c = n if cells is None else cells
    d = 2.0 * np.pi / n
    lo = np.arange(c) * d
    hi = np.arange(1, c + 1) * d
    u0, u1 = np.repeat(lo, c), np.repeat(hi, c)
    v0, v1 = np.tile(lo, c), np.tile(hi, c)
    return (
        np.stack([(u0 + u1 + u1) / 3.0, (u0 + u1 + u0) / 3.0], axis=-1).ravel(),
        np.stack([(v0 + v0 + v1) / 3.0, (v0 + v1 + v1) / 3.0], axis=-1).ravel(),
        np.repeat(0.5 * ((u1 - u0) * (v1 - v0)), 2),
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

    values: np.ndarray
    dist: np.ndarray


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
    """The log cutoff about vertex p of a product torus mesh m, with the
    exact distance field it reads."""
    if not 0.0 < t < 1.0:
        raise DomainError("cutoff radius must sit in (0, 1), got t = %s" % t)
    bound = m.aux.get("disk_radius_bound", math.inf)
    if t >= bound:
        raise RadiusTooLarge(
            "radius %.3g is no embedded disk here (bound %.3g)" % (t, bound)
        )
    dist = torus_distances(m, p)
    return CutoffField(values=log_cutoff(dist, t), dist=dist)


@dataclass
class JacobiData:
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
        lowest_pair=(mu, x), iterations=it, factor_nnz=int(solver.L.nnz + solver.U.nnz)
    )


def punctured_sheets(a, b, gap, scale, t):
    """Area elements of the sheets +-f, f = scale * log_cutoff(gap, t), over
    the middle torus, given each node's chart offsets a, b (theta, phi)
    from its puncture and their flat length gap.  In the band t^2 < gap < t
    f_theta^2 = (scale/log t)^2 a^2 / (4 gap^4), and b gives f_phi^2.
    """
    band = (gap > t * t) & (gap < t)
    k = np.where(band, (scale / math.log(t)) ** 2 / (4.0 * gap ** 4), 0.0)
    return sheet_elements(scale * log_cutoff(gap, t), k * a * a, k * b * b)


def two_sided_tube_family(n, p_list, h):
    """Family of paired normal graphs +-h*eta_t over the middle torus on the
    n-by-n chart grid, punctured at the grid vertices p_list.

    For each neck radius t of TUBE_T_GRID both sheets are the
    punctured_sheets about the nearest puncture, the field and band
    doubling._sheet_area uses; while the punctures' t-balls are disjoint
    this is h times the product of their cutoffs.  They are measured by
    the midpoint quadrature on chart_nodes, and a node within t^2 of a
    puncture is excised; removed_base_area is the area one sheet excises.
    The budget is twice the base area, the chart area 2*pi^2 of the middle
    torus, and kappa is the margin over h^2.
    """
    check_offset("h", h)
    th, ph, w = chart_nodes(n)
    # signed chart offsets from each puncture, wrapped to [-pi, pi), and the
    # flat gap; each node keeps those of its nearest puncture
    offsets = []
    for p in p_list:
        a = (th - 2.0 * math.pi * (p // n) / n + math.pi) % (2.0 * math.pi) - math.pi
        b = (ph - 2.0 * math.pi * (p % n) / n + math.pi) % (2.0 * math.pi) - math.pi
        offsets.append((a, b, flat_torus_gap(0.5, a, b, 2.0 * math.pi)))
    offsets = np.array(offsets)
    a, b, gap = offsets[np.argmin(offsets[:, 2], axis=0), :, np.arange(th.size)].T
    base_area = 0.5 * float(np.sum(w))
    rows = []
    for t in TUBE_T_GRID:
        keep = gap > t * t
        plus, minus = punctured_sheets(a[keep], b[keep], gap[keep], float(h), t)
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
            "surface": "clifford_torus",
        },
        rows=rows,
        budget=2.0 * base_area,
    )
    report.summary["kappa"] = report.summary["margin"] / (h * h)
    return report

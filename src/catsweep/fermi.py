"""The middle torus's two-sided offset, its second variation, log cutoffs
and the mesh Jacobi operator.

Claim (iii) rests on one formula, `sheet_elements`: the area element of
the sheets +-f of the two-sided normal offset of the Clifford torus.
Every such area is its midpoint quadrature on the `chart_nodes`, built
from the chart grid alone: the doubled sweepout's graph-neck and collapse
rows (`doubling._sheet_area`, on one symmetry cell) and criterion 8's
punctured tube family (`two_sided_tube_family`).  The punctured rows
share one field, `punctured_sheets`: the offset scaled by the log cutoff
about the nearest puncture, with its band gradient in closed form; the
element is evaluated on the band nodes only, since the kept nodes past
it take one value.  The second variation of the same area, the Jacobi
form of criteria 5 and 6, is read off `sheet_elements` by a complex step
(`second_variation`), exactly and with no mesh.  The chart nodes form two
tensor grids, so on the real Fourier modes its quadrature is a sum of
Kronecker products of 1-D Gram matrices.

A mesh cutoff (`build_cutoff`) reads the exact distance field of a
product torus (`surfaces.torus_distances`); other meshes raise
DomainError.  The mesh geodesic `mesh.geodesic_distances` serves only the
tests and the benchmark's tracer, and so does `jacobi_lowest`, the lowest
eigenpair of the cotangent-mesh Jacobi operator; it alone in this module
needs scipy (a sparse LU), and it imports it itself.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RadiusTooLarge, SolverFailure
from .mesh import cotan_stiffness, lumped_mass
from .report import make_report
from .surfaces import check_grid, flat_torus_gap, torus_distances

JACOBI_TOL = 1e-9       # relative eigenvalue change that ends the inverse iteration
JACOBI_MAX_ITERS = 200
SECOND_VARIATION_EPS = 1e-6     # modulus of the complex step s = eps e^{i pi/4}

# neck radii t of the tube family's rows
TUBE_T_GRID = np.linspace(0.05, 0.35, 13)


def _chart_axes(n, c):
    """The 1-D factors of chart_nodes(n, cells=c): the thirds of the first c
    grid intervals [j d, (j+1) d), d = 2 pi/n, and their lengths.

    Returns (theta, phi) of the first triangle of each cell, (u0+2u1)/3 and
    (2v0+v1)/3, then those of the second, (2u0+u1)/3 and (v0+2v1)/3, each
    summed in the order of the triangle's corners, and the lengths.
    """
    d = 2.0 * np.pi / n
    lo = np.arange(c) * d
    hi = np.arange(1, c + 1) * d
    return (((lo + hi + hi) / 3.0, (lo + lo + hi) / 3.0),
            ((lo + hi + lo) / 3.0, (lo + hi + hi) / 3.0), hi - lo)


def chart_nodes(n, cells=None):
    """Midpoint nodes of the n-by-n chart grid of the middle torus: the
    barycenters (theta, phi) of its triangles and their chart areas.

    Each cell [j d, (j+1) d) x [k d, (k+1) d), d = 2 pi/n, in row-major
    order holds two triangles, (u0, v0) (u1, v0) (u1, v1) then (u0, v0)
    (u1, v1) (u0, v1), the triangles of the product torus mesh.  With
    cells = c only the c-by-c cells of the first rows and columns are
    built, the same nodes in the same order.  The first triangles' nodes
    form one tensor grid and the second triangles' another
    (_chart_axes).
    """
    check_grid(n)
    c = n if cells is None else cells
    (th0, ph0), (th1, ph1), du = _chart_axes(n, c)
    return (
        np.stack([np.repeat(th0, c), np.repeat(th1, c)], axis=-1).ravel(),
        np.stack([np.tile(ph0, c), np.tile(ph1, c)], axis=-1).ravel(),
        np.repeat(np.outer(0.5 * du, du).ravel(), 2),
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


def fourier_frequencies(degree):
    """The frequency of each real Fourier function 1, cos x, sin x, ...,
    cos(degree x), sin(degree x), in that order."""
    return np.concatenate([[0], np.repeat(np.arange(1, degree + 1), 2)])


def _fourier_grams(x, weight, degree):
    """The weighted Gram matrices sum_x weight a(x) a(x)^T and
    sum_x weight a'(x) a'(x)^T of the real Fourier functions a over the
    points x."""
    freq = fourier_frequencies(degree)
    lag = np.concatenate([[0.0], np.tile([0.0, 0.5 * math.pi], degree)])   # sin x = cos(x - pi/2)
    arg = np.outer(freq, x) - lag[:, None]
    a = np.cos(arg)
    da = -freq[:, None] * np.sin(arg)
    return (a * weight) @ a.T, (da * weight) @ da.T


def second_variation(n, degree):
    """The second variation Q and the mass M of the middle torus on the
    n-by-n chart grid, over the real Fourier modes a_p(theta) a_q(phi),
    a = (1, cos x, sin x, ..., cos(degree x), sin(degree x)), in row-major
    order of (p, q) (fourier_frequencies gives each one's frequency).

    Q and M are the symmetric matrices of

        Q(phi, psi) = int <grad phi, grad psi> - 4 phi psi dA,
        M(phi, psi) = int phi psi dA,

    read off sheet_elements: the sheets +-s phi have total area
    2|T| + s^2 Q(phi) + O(s^4).  The two-sheet element at a node depends on
    f, f_theta^2 and f_phi^2 alone and is even in f, so to second order it
    is 1 + c_f f^2 + c_theta f_theta^2 + c_phi f_phi^2.  One complex step
    reads the three coefficients with no subtraction: at s = eps e^{i pi/4}
    s^2 = i eps^2 and the s^4 term is real, so the imaginary part of the
    element at f = s (or f_theta^2 = s^2, or f_phi^2 = s^2) over eps^2 is
    c_f (c_theta, c_phi) up to O(eps^4).  The mass weight is the element
    of the middle torus itself, f = 0.  The element takes no position, the
    middle torus being homogeneous, so one evaluation serves every node.

    The midpoint quadrature on chart_nodes is a sum over two tensor grids
    whose weights 0.5 du dv factor too, so each of its terms is a
    Kronecker product of 1-D Gram matrices (_fourier_grams): with A0, A1
    those of a and a' over a grid's theta and B0, B1 over its phi,

        Q = sum over the grids of 0.5 (c_f A0 x B0 + c_theta A1 x B0 + c_phi A0 x B1),

    and M the same with the mass weight times A0 x B0.
    """
    check_grid(n)
    s = SECOND_VARIATION_EPS * np.exp(0.25j * math.pi)
    # rows: the middle torus, then a step in f, in f_theta^2 and in f_phi^2
    steps = np.array([[0.0, 0.0, 0.0], [s, 0.0, 0.0], [0.0, s * s, 0.0], [0.0, 0.0, s * s]])
    plus, minus = sheet_elements(*steps.T)
    c_f, c_theta, c_phi = (plus[1:] + minus[1:]).imag / SECOND_VARIATION_EPS ** 2
    *grids, du = _chart_axes(n, n)
    q = mass = 0.0
    for th, ph in grids:
        a0, a1 = _fourier_grams(th, 0.5 * du, degree)
        b0, b1 = _fourier_grams(ph, du, degree)
        q = q + c_f * np.kron(a0, b0) + c_theta * np.kron(a1, b0) + c_phi * np.kron(a0, b1)
        mass = mass + np.kron(a0, b0)
    return q, plus[0].real * mass


def check_offset(name, value):
    """Refuse an offset scale at which no margin can be read.

    The scale must be positive with a normal square, since margins are
    divided by it, and must stay below pi/4: there each sheet of the
    middle torus's two-sided offset collapses onto a core circle, so the
    sheets are normal graphs only below it.
    """
    if not value > 0.0:
        raise DomainError("offset scale must be positive, got %s = %s" % (name, value))
    if value * value < sys.float_info.min:
        raise DomainError("offset scale %s = %s is too small: its square is no normal double"
                          % (name, value))
    if not value < 0.25 * math.pi:
        raise DomainError("an offset must stay below pi/4, got %s = %s" % (name, value))


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
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

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

    The caller passes the kept nodes only, gap > t^2, having excised the
    rest.  Past the band the gradient vanishes and f is scale, so
    sheet_elements runs on the band nodes and on that one value only;
    every element is the one a call on all the nodes would give.
    """
    band = gap < t
    outer = sheet_elements(np.array([scale]), np.zeros(1), np.zeros(1))
    plus, minus = (np.full(gap.shape, e[0]) for e in outer)
    g = gap[band]
    k = (scale / math.log(t)) ** 2 / (4.0 * g ** 4)
    a, b = a[band], b[band]
    plus[band], minus[band] = sheet_elements(scale * log_cutoff(g, t), k * a * a, k * b * b)
    return plus, minus


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

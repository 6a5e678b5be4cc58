"""The middle torus's two-sided offset, its second variation, log cutoffs
and the mesh Jacobi operator.

Claim (iii) rests on one formula, `sheet_elements`: the area element of
the sheets +-f of the two-sided normal offset of the Clifford torus.
Every punctured such area is one polar band per puncture (`band_sheets`):
the offset scaled by the log cutoff about the puncture, with its gradient
in closed form (`band_field`), integrated over the band t^2 < g < t by
Gauss-Legendre in log g and in the angle (`band_nodes`), the nodes built
once per process; past the band the offset is constant and its area
exact.  A family's rows are one band pass: its rows' nodes are one
(rows, nodes) array, each row's scalars are computed alone, and every
node takes the float operations it would take in a family of one row.
The doubled sweepout's graph-neck and collapse rows
(`doubling._sheet_area`, one band a symmetry cell) and criterion 8's
punctured tube family (`two_sided_tube_family`) read it, and criterion
7's torus half reads the band's cutoff energy.  The second variation of
the same area, the Jacobi form of criteria 5 and 6, is read off
`sheet_elements` by a complex step (`second_variation`), exactly and with
no mesh: the element takes no position, so the form is diagonal on the
real Fourier modes, one closed-form product a mode.

A mesh cutoff (`build_cutoff`) reads the exact distance field of a
product torus (`surfaces.torus_distances`); other meshes raise
DomainError.  It serves only the tests and the benchmark's tracer, as do
the mesh geodesic `mesh.geodesic_distances` and `jacobi_lowest`, the
lowest eigenpair of the cotangent-mesh Jacobi operator; that alone in
this module needs scipy (a sparse LU), and it imports it itself.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RadiusTooLarge, SolverFailure
from .mesh import cotan_stiffness, lumped_mass
from .report import make_report
from .surfaces import flat_torus_gap, torus_distances

JACOBI_TOL = 1e-9       # relative eigenvalue change that ends the inverse iteration
JACOBI_MAX_ITERS = 200
SECOND_VARIATION_EPS = 1e-6     # modulus of the complex step s = eps e^{i pi/4}

# neck radii t of the tube family's rows
TUBE_T_GRID = np.linspace(0.05, 0.35, 13)

# Gauss-Legendre nodes of the polar band (band_nodes): in log g across the
# band, and in the angle on each of the two smooth pieces of a quadrant
BAND_LOG_NODES = 16
BAND_ANGLE_NODES = 16


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


def mode_frequencies(degree):
    """The frequencies (j, k) of the real Fourier modes a_p(theta) a_q(phi),
    a = (1, cos x, sin x, ..., cos(degree x), sin(degree x)), in row-major
    order of (p, q)."""
    freq = np.concatenate([[0], np.repeat(np.arange(1, degree + 1), 2)])
    return np.repeat(freq, freq.size), np.tile(freq, freq.size)


def second_variation(degree):
    """The diagonals of the second variation Q and the mass M of the middle
    torus on the real Fourier modes of mode_frequencies(degree), on which
    both forms are diagonal:

        Q(phi, psi) = int <grad phi, grad psi> - 4 phi psi dA,
        M(phi, psi) = int phi psi dA,

    read off sheet_elements: the sheets +-s phi have total area
    2|T| + s^2 Q(phi) + O(s^4).  The two-sheet element at a point depends
    on f, f_theta^2 and f_phi^2 alone and is even in f, so to second order
    it is 1 + c_f f^2 + c_theta f_theta^2 + c_phi f_phi^2.  One complex
    step reads the three coefficients with no subtraction: at
    s = eps e^{i pi/4} s^2 = i eps^2 and the s^4 term is real, so the
    imaginary part of the element at f = s (or f_theta^2 = s^2, or
    f_phi^2 = s^2) over eps^2 is c_f (c_theta, c_phi) up to O(eps^4).  The
    mass weight w is the element at f = 0.  The element takes no position,
    so distinct modes are orthogonal in every term, and the mode of
    frequencies (j, k) has Q = (c_f + c_theta j^2 + c_phi k^2) N and
    M = w N, N its squared norm over the chart: 2 pi or pi in each angle
    as the frequency there is 0 or not.
    """
    s = SECOND_VARIATION_EPS * np.exp(0.25j * math.pi)
    # rows: the middle torus, then a step in f, in f_theta^2 and in f_phi^2
    steps = np.array([[0.0, 0.0, 0.0], [s, 0.0, 0.0], [0.0, s * s, 0.0], [0.0, 0.0, s * s]])
    plus, minus = sheet_elements(*steps.T)
    c_f, c_theta, c_phi = (plus[1:] + minus[1:]).imag / SECOND_VARIATION_EPS ** 2
    j, k = mode_frequencies(degree)
    norm = np.where(j == 0, 2.0, 1.0) * np.where(k == 0, 2.0, 1.0) * math.pi ** 2
    return (c_f + c_theta * j * j + c_phi * k * k) * norm, plus[0].real * norm


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
    dist >= t, and (2 log t - log dist)/log t in between.  t is one
    radius, or radii broadcast against dist (a band family's, one a row),
    and each log t is math.log's."""
    values = np.ones_like(dist)
    log_t = np.array([math.log(r) for r in np.ravel(t).tolist()]).reshape(np.shape(t))
    inner = dist <= t * t
    values[inner] = 0.0
    mid = (~inner) & (dist < t)
    log_t = np.full(dist.shape, log_t)[mid]
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


def band_field(a, b, gap, scale, t):
    """The field f = scale * log_cutoff(gap, t) in the bands t^2 < gap < t
    about punctures and its squared chart partials, given each point's
    chart offsets a, b (theta, phi) from its puncture and their flat
    length gap, one row of points a band, and each band's scale and t:
    f_theta^2 = (scale/log t)^2 a^2 / (4 gap^4), and b gives f_phi^2.
    The factor (scale/log t)^2 is a row's scalar, formed alone."""
    scale, t = np.asarray(scale, dtype=float), np.asarray(t, dtype=float)
    rate = np.array([(c / math.log(r)) ** 2 for c, r in zip(scale.tolist(), t.tolist())])
    k = rate[:, None] / (4.0 * gap ** 4)
    return scale[:, None] * log_cutoff(gap, t[:, None]), k * a * a, k * b * b


@functools.cache
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [0, 1], built once per n and
    shared, so read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class PolarBand:
    """Nodes of the bands of a family's rows (band_nodes).  rows indexes
    the family's rows whose band has nodes, in order, and a, b, gap and
    weight hold one row of nodes for each: chart offsets a, b from the
    puncture, flat distance gap and chart-area weights over the full
    circle.  disk holds, for every row of the family, the chart area
    inside the band's outer edge."""

    rows: np.ndarray
    a: np.ndarray
    b: np.ndarray
    gap: np.ndarray
    weight: np.ndarray
    disk: np.ndarray


def band_nodes(t, s=0.0, half=math.pi):
    """Gauss-Legendre nodes of the bands of a family of rows, each about
    one puncture, in the flat polar coordinates (g, psi) of the middle
    torus.  t, s and half are broadcast to one value a row; numbers make
    a family of one row.

    The puncture is the centre of a chart square of half-width half, its
    symmetry cell; in the polar coordinates the chart offsets are a =
    sqrt(2) g cos psi, b = sqrt(2) g sin psi and the chart area is
    2 g dg dpsi.  The band is L(psi) < g < t, where

        L(psi) = (1 - s) t^2 + s R(psi),  R(psi) = half / (sqrt(2) max(|cos psi|, |sin psi|)),

    R the cell's boundary: L is the image of the excised circle g = t^2
    under the retraction u -> u ((1 - s) + s/rho) of the cell onto its
    boundary, rho the sup norm of u over half, and t^2 at s = 0.  The band
    must lie inside the cell, t below its inscribed radius half/sqrt(2),
    or RadiusTooLarge is raised for the first row where it does not;
    t = 0 is the unpunctured cell, with no band.

    Everything depends on psi through cos^2 and sin^2, so the nodes span
    one quadrant and the weights count it four times.  Its smooth pieces
    are [0, psi*] and [pi/2 - psi*, pi/2]: psi* is the diagonal pi/4,
    where the max in R switches, or, once L reaches t before it, that
    angle, past which the band is empty.  Each piece takes
    BAND_ANGLE_NODES nodes in psi, and each psi BAND_LOG_NODES in log g
    from log L(psi) to log t, where the log cutoff is linear.

    disk is the chart area of g < max(t, L(psi)) over the full circle, the
    band with the excision inside it: on [0, pi/4] it is the integral of
    max(t, L)^2, elementary with int sec = asinh(tan) and int sec^2 = tan.

    A row's scalars (psi*, disk, log t, the factors of L) are formed
    alone, in Python floats, and its nodes in one pass over the rows with
    a band, on contiguous arrays, so each row's nodes and weights are
    those of a family of that row alone.
    """
    disk, live = [], []
    for i, row in enumerate(np.broadcast(t, s, half)):
        t, s, half = map(float, row)
        c = half / math.sqrt(2.0)
        if not t < c:
            raise RadiusTooLarge("neck radius %.3g leaves the symmetry cell of its puncture"
                                 " (inscribed radius %.3g)" % (t, c))
        # the kink psi* on [0, pi/4], where L = t: cos psi* = x
        x = s * c / (t - (1.0 - s) * t * t) if 0.0 < t and 0.0 < s else 0.0
        if t == 0.0 or x >= 1.0:
            psi_star, tan_star = 0.0, 0.0
        elif x <= math.sqrt(0.5):
            psi_star, tan_star = 0.25 * math.pi, 1.0
        else:
            psi_star, tan_star = math.acos(x), math.sqrt(1.0 - x * x) / x
        disk.append(8.0 * (t * t * psi_star + (1.0 - s) ** 2 * t ** 4 * (0.25 * math.pi - psi_star)
                           + 2.0 * (1.0 - s) * s * t * t * c * (math.asinh(1.0) - math.asinh(tan_star))
                           + s * s * c * c * (1.0 - tan_star)))
        if psi_star != 0.0:
            # L(psi) = floor + lift / max(cos psi, sin psi) on the quadrant
            live.append((i, psi_star, (1.0 - s) * t * t, s * c, math.log(t), 8.0 * psi_star))
    rows, psi_star, floor, lift, log_t, arc = np.array(live, dtype=float).reshape(-1, 6).T
    x_psi, w_psi = _gauss_legendre(BAND_ANGLE_NODES)
    x_log, w_log = _gauss_legendre(BAND_LOG_NODES)
    near = psi_star[:, None] * x_psi
    psi = np.concatenate([near, 0.5 * math.pi - near], axis=1)
    cos, sin = np.cos(psi), np.sin(psi)
    log_lo = np.log(floor[:, None] + lift[:, None] / np.maximum(cos, sin))
    span = log_t[:, None] - log_lo
    g = np.exp(log_lo[..., None] + span[..., None] * x_log)
    # four quadrants, and the chart area 2 g dg dpsi = 2 g^2 d(log g) dpsi
    weight = (arc[:, None] * np.tile(w_psi, 2) * span)[..., None] * w_log * g * g
    r = math.sqrt(2.0) * g
    shape = (len(rows), 2 * BAND_ANGLE_NODES * BAND_LOG_NODES)
    return PolarBand(rows.astype(np.intp), (r * cos[..., None]).reshape(shape),
                     (r * sin[..., None]).reshape(shape), g.reshape(shape),
                     weight.reshape(shape), np.array(disk))


def band_sheets(scale, t, s=0.0, half=math.pi):
    """Areas of the sheets +-f, f = scale * log_cutoff(g, t), of the
    punctured offset over the bands of band_nodes(t, s, half), one about
    one puncture a row, and the bands' disks: three arrays, one value a
    row, scale broadcast like t.  A row with no band has sheets of area 0.

    Past a band's outer edge the sheets are the offsets +-scale, whose
    element sheet_elements(scale, 0, 0) is one constant, so the caller
    takes that region's area exactly: the constant times the chart area
    of its domain less disk.
    """
    band = band_nodes(t, s, half)
    scale, t = (np.full(band.disk.shape, v)[band.rows] for v in (scale, t))
    plus, minus = sheet_elements(*band_field(band.a, band.b, band.gap, scale, t))
    areas = np.zeros((2,) + band.disk.shape)
    areas[:, band.rows] = np.sum(band.weight * plus, axis=1), np.sum(band.weight * minus, axis=1)
    return areas[0], areas[1], band.disk


def two_sided_tube_family(punctures, h):
    """Family of paired normal graphs +-h*eta_t over the middle torus,
    punctured at the chart points punctures, (theta, phi) pairs.

    For each neck radius t of TUBE_T_GRID eta_t is the log cutoff about
    the nearest puncture, 0 on its excised disk g <= t^2; the bands must
    be disjoint, so the punctures lie at least twice the largest t apart.
    Each band is band_sheets about its puncture, all rows in one band
    pass, and outside the bands both sheets are the constant offsets +-h,
    whose area is exact: the element times the chart area 4*pi^2 less the
    bands' disks.
    removed_base_area is the area one sheet excises, pi t^4 a puncture.
    The budget is twice the base area, the chart area 2*pi^2 of the middle
    torus, and kappa is the margin over h^2.
    """
    check_offset("h", h)
    points = [(float(th), float(ph)) for th, ph in punctures]
    for i, (th, ph) in enumerate(points):
        for th2, ph2 in points[:i]:
            if flat_torus_gap(0.5, th - th2, ph - ph2, 2.0 * math.pi) < 2.0 * TUBE_T_GRID[-1]:
                raise DomainError("punctures closer than %g overlap their bands"
                                  % (2.0 * TUBE_T_GRID[-1]))
    k = len(points)
    outer = float(sheet_elements(h, 0.0, 0.0)[0])
    bands = band_sheets(float(h), TUBE_T_GRID)
    rows = []
    for t, plus, minus, disk in zip(TUBE_T_GRID, *(v.tolist() for v in bands)):
        rest = outer * (4.0 * math.pi ** 2 - k * disk)
        a_plus, a_minus = rest + k * plus, rest + k * minus
        rows.append({"t": float(t), "area": a_plus + a_minus, "area_plus": a_plus,
                     "area_minus": a_minus, "removed_base_area": k * math.pi * t ** 4})
    report = make_report(
        command="tube-family",
        params={
            "h": float(h),
            "punctures": [list(p) for p in points],
            "n_t": len(rows),
            "surface": "clifford_torus",
        },
        rows=rows,
        budget=4.0 * math.pi ** 2,
    )
    report.summary["kappa"] = report.summary["margin"] / (h * h)
    return report

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from catsweep import fermi
from catsweep.acceptance import cutoff_disk, cutoff_torus
from catsweep.doubling import HANDOFF_NECK_MAX, NeckSchedule, cmc_area
from catsweep.errors import DomainError, RadiusTooLarge, SolverFailure
from catsweep.fermi import (
    JACOBI_MAX_ITERS,
    JACOBI_TOL,
    TUBE_T_GRID,
    band_field,
    band_nodes,
    band_sheets,
    build_cutoff,
    jacobi_lowest,
    log_cutoff,
    second_variation,
    sheet_elements,
    two_sided_tube_family,
)
from catsweep.mesh import (
    cotan_stiffness,
    dirichlet_energy,
    geodesic_distances,
    level_set_perimeter,
    lumped_mass,
)
from catsweep.surfaces import (
    clifford_torus,
    disk_rings_for_cutoff,
    flat_torus_gap,
    product_torus,
    torus_distances,
)

from reference_geometry import (
    chart_nodes,
    disk_mesh_rings,
    flat_disk,
    node_sum_second_variation,
    quadratic_form,
    round_sphere,
)

FOUR_PI_SQ = 4.0 * math.pi ** 2
TWO_PI_SQ = 2.0 * math.pi ** 2


def _sheet_areas(n, h, phi, phi_theta, phi_phi):
    """Areas of the sheets +-h*phi over the middle torus's n-grid, by the
    chart quadrature of the area element; phi and its partials at chart
    nodes."""
    _, _, w = chart_nodes(n)
    plus, minus = sheet_elements(h * phi, (h * phi_theta) ** 2, (h * phi_phi) ** 2)
    return float(np.sum(w * plus)), float(np.sum(w * minus))


def _constant_offset(n, s):
    ones = np.ones(2 * n * n)
    return _sheet_areas(n, s, ones, 0.0 * ones, 0.0 * ones)


def test_zero_field_keeps_base_area():
    # the element of the middle torus is 1/2 per unit chart area
    plus, minus = _constant_offset(32, 0.0)
    assert plus == minus == pytest.approx(TWO_PI_SQ, rel=1e-14)


def test_clifford_offsets_match_closed_form():
    # the offset at distance s is the product torus at (1 + sin 2s)/2, of
    # area 2*pi^2 cos 2s, on either side
    for s in (0.05, 0.1, 0.2):
        exact = TWO_PI_SQ * math.cos(2.0 * s)
        assert cmc_area(0.5 * (1.0 + math.sin(2.0 * s))) == pytest.approx(exact, rel=1e-14)
        for area in _constant_offset(64, s):
            assert area == pytest.approx(exact, rel=1e-14)


def test_chart_overflow():
    # each sheet collapses onto a core circle at offset pi/4
    with pytest.raises(DomainError, match="below pi/4, got h = 0.8"):
        two_sided_tube_family([(0.0, 0.0)], 0.8)
    with pytest.raises(DomainError, match="h = 1e-300 is too small"):
        two_sided_tube_family([(0.0, 0.0)], 1e-300)


def test_quadratic_coefficient_of_offset_area():
    d = 0.05
    base = sum(_constant_offset(64, 0.0))
    coeff = 0.5 * (sum(_constant_offset(64, d)) - base) / (d * d)
    assert abs(coeff + FOUR_PI_SQ) / FOUR_PI_SQ < 1e-2
    # 2*pi^2 (cos 2d - 1)/d^2: the difference's truncation alone
    assert coeff == pytest.approx(TWO_PI_SQ * (math.cos(2.0 * d) - 1.0) / (d * d), rel=1e-10)


def test_quadratic_form_constant_field():
    cl = clifford_torus(64)
    q = quadratic_form(cl, np.ones(cl.n_vertices))
    assert q == pytest.approx(-8.0 * math.pi ** 2, rel=1e-3)


def test_expansion_error_is_fourth_order_here():
    # symmetric surface kills the cubic term, so the area minus the
    # two-term expansion |base| + (h^2/2) Q(1), Q(1) = -8*pi^2, is ~ h^4
    errs = []
    for h in (0.1, 0.05, 0.025):
        a = _constant_offset(64, h)[0]
        errs.append(abs(a - (TWO_PI_SQ - 4.0 * math.pi ** 2 * h * h)))
    assert math.log2(errs[0] / errs[1]) > 3.9
    assert math.log2(errs[1] / errs[2]) > 3.9


def test_second_variation_against_quadratic_form():
    cl = clifford_torus(64)
    th, ph, _ = chart_nodes(64)
    rng = np.random.default_rng(11)
    for _ in range(3):
        # modes with a, b >= 2 stay clear of the kernel of the second variation
        a, b = rng.integers(2, 4, size=2)
        c0, c1 = rng.normal(size=2)
        def mode(th, ph):
            return c0 * np.cos(a * th) * np.cos(b * ph) + c1 * np.sin(a * th + b * ph)

        phi = mode(th, ph)
        phi_th = -a * c0 * np.sin(a * th) * np.cos(b * ph) + a * c1 * np.cos(a * th + b * ph)
        phi_ph = -b * c0 * np.cos(a * th) * np.sin(b * ph) + b * c1 * np.cos(a * th + b * ph)
        h = 1e-3
        # the sheets +-h*phi together are A(h phi) + A(-h phi)
        measured = 0.5 * (sum(_sheet_areas(64, h, phi, phi_th, phi_ph)) - 2.0 * TWO_PI_SQ) / (h * h)
        # each term is a Laplacian eigenfunction of eigenvalue 2(a^2 + b^2)
        # in the metric (dtheta^2 + dphi^2)/2, so Q(phi) = (2(a^2 + b^2) - 4)
        # times the L^2 norm (c0^2 + 2 c1^2) pi^2 / 2
        expect = 0.5 * (2.0 * (a * a + b * b) - 4.0) * 0.5 * (c0 * c0 + 2.0 * c1 * c1) * math.pi ** 2
        assert abs(measured - expect) / abs(expect) < 1e-4
        # the cotangent form of the same mode, on the vertices
        on_vertices = mode(cl.aux["chart_theta"], cl.aux["chart_phi"])
        assert abs(measured - 0.5 * quadratic_form(cl, on_vertices)) / abs(expect) < 2e-2


@pytest.mark.parametrize("n", [16, 64])
def test_second_variation_reads_jacobi_eigenvalues(n):
    # cos(theta) cos(2 phi) and sin(3 theta + phi) = sin 3theta cos phi +
    # cos 3theta sin phi are Jacobi eigenfunctions of eigenvalues
    # 2(1 + 4) - 4 = 6 and 2(9 + 1) - 4 = 16; as coefficient vectors on the
    # modes a_p(theta) a_q(phi), a = (1, cos x, sin x, ..., cos 3x, sin 3x),
    # index 7p + q.  The per-mode form reads them exactly, and so does the
    # chart grid's node sum, which integrates their products exactly below
    # frequency n
    q, mass = second_variation(3)
    q_ref, mass_ref = node_sum_second_variation(n, 3)
    v = np.zeros((2, 49))
    v[0, 7 * 1 + 3] = 1.0
    v[1, [7 * 6 + 1, 7 * 5 + 2]] = 1.0
    norms = np.diag([0.5 * math.pi ** 2, math.pi ** 2])
    for m, form in (((v * mass) @ v.T, (v * q) @ v.T), (v @ mass_ref @ v.T, v @ q_ref @ v.T)):
        assert m == pytest.approx(norms, abs=1e-13)
        assert form == pytest.approx(np.diag([6.0, 16.0]) @ norms, abs=1e-12)


@pytest.mark.parametrize("n", [16, 33])
def test_second_variation_matches_the_node_sum(n):
    # the per-mode diagonals against the chart grid's midpoint sum over
    # every node, on an even and an odd grid fine enough not to alias the
    # degree-3 products (frequencies up to 6): the grid form is diagonal to
    # rounding, and its diagonal is the per-mode one, entry by entry but for
    # Q's zero entries, the Jacobi fields, read against the largest
    q, mass = second_variation(3)
    q_ref, mass_ref = node_sum_second_variation(n, 3)
    assert q.shape == mass.shape == (49,) and q_ref.shape == mass_ref.shape == (49, 49)
    for diag, ref in ((q, q_ref), (mass, mass_ref)):
        off = ref - np.diag(np.diag(ref))
        assert np.max(np.abs(off)) <= 1e-12 * np.max(np.abs(ref))
        assert np.allclose(np.diag(ref), diag, rtol=1e-12, atol=1e-12 * np.max(np.abs(diag)))


def _every_node_sheets(a, b, gap, scale, t):
    # the punctured sheets with sheet_elements evaluated on every node
    band = (gap > t * t) & (gap < t)
    k = np.where(band, (scale / math.log(t)) ** 2 / (4.0 * gap ** 4), 0.0)
    return sheet_elements(scale * log_cutoff(gap, t), k * a * a, k * b * b)


def _assert_sheets_equal(a, b, gap, scale, t):
    # the points as a family of one band
    got = sheet_elements(*band_field(a[None], b[None], gap[None], [scale], [t]))
    want = _every_node_sheets(a, b, gap, scale, t)
    assert all(x.dtype == y.dtype and np.array_equal(x[0], y) for x, y in zip(got, want))


def test_punctured_sheets_match_every_node_bits():
    n = 64
    th, ph, _ = chart_nodes(n)
    p = 16 * n + 48
    a = (th - 2.0 * math.pi * (p // n) / n + math.pi) % (2.0 * math.pi) - math.pi
    b = (ph - 2.0 * math.pi * (p % n) / n + math.pi) % (2.0 * math.pi) - math.pi
    gap = flat_torus_gap(0.5, a, b, 2.0 * math.pi)
    # the nearest nodes sit at gap d/3 = 0.0327, so at t = 0.03 the band
    # holds no node
    assert np.min(gap) == pytest.approx(2.0 * math.pi / (3 * n), rel=1e-12)
    assert not np.any((gap > 0.03 ** 2) & (gap < 0.03))
    for t in (0.03, 0.15, 0.3):
        # the chart nodes of the band, the points band_field takes
        band = (gap > t * t) & (gap < t)
        assert np.any(band) == (t != 0.03)
        _assert_sheets_equal(a[band], b[band], gap[band], 0.05, t)


@pytest.mark.parametrize("s", [0.05, 0.1])
def test_punctured_sheets_match_every_node_bits_under_a_retraction(s):
    # the polar nodes of a doubled family's collapse row: above the image
    # of the excised circle, below the neck, inside the symmetry cell
    m, t = 2, HANDOFF_NECK_MAX
    band = band_nodes([t], [s], math.pi / m)
    a, b, gap = band.a[0], band.b[0], band.gap[0]
    assert np.all((gap > t * t) & (gap < t))
    assert np.all(np.maximum(np.abs(a), np.abs(b)) < math.pi / m)
    assert np.allclose(gap, np.sqrt(0.5 * (a ** 2 + b ** 2)), rtol=1e-15, atol=0.0)
    _assert_sheets_equal(a, b, gap, (1.0 - s) * 0.05, t)


def test_cutoff_field_cases():
    t = 0.01
    r = disk_mesh_rings(t)
    values = log_cutoff(r, t)
    assert np.all(values[r >= t] == 1.0)
    assert np.all(values[r <= t * t] == 0.0)
    # log-midpoint radius t^{3/2} sits on a ring of the band by construction
    mid = np.isclose(r, t ** 1.5, rtol=1e-12)
    assert np.any(mid) and np.any(np.isclose(disk_rings_for_cutoff(t), t ** 1.5, rtol=1e-12))
    assert np.allclose(values[mid], 0.5, atol=1e-12)
    assert np.all((0.0 <= values) & (values <= 1.0))


def test_cutoff_radius_guards():
    # the largest embedded disk of the product torus |z|^2 = 0.05 has radius 0.35
    m = product_torus(0.05, 16)
    with pytest.raises(RadiusTooLarge):
        build_cutoff(m, 0, 0.6)
    for t in (1.5, 0.0):
        with pytest.raises(DomainError):
            build_cutoff(m, 0, t)
        with pytest.raises(DomainError):
            disk_rings_for_cutoff(t)
    # the ring sum needs a normal t^2: t = 1.4e-154 is just below that floor
    disk_rings_for_cutoff(1.5e-154)
    with pytest.raises(DomainError, match="t = 1.4e-154"):
        disk_rings_for_cutoff(1.4e-154)


def test_flat_disk_cutoff_energy_closed_form():
    for t in (1e-2, 1e-3):
        e = cutoff_disk(t).rows[0]["energy"]
        assert e == pytest.approx(2.0 * math.pi / (-math.log(t)), rel=1e-12)


def test_torus_cutoff_energy_across_the_neck_range():
    # the doubled fields' energy on the middle torus, m = 2 and 3, is
    # m^2 2*pi/(-log t) to rounding at every t the necks take and below;
    # the mesh energy it replaced read the centre vertex's hat, 4.0008,
    # for every t under 0.069, and failed its bound at t = 0.04
    for t in np.geomspace(1e-3, 0.25, 25):
        rep = cutoff_torus(float(t))
        assert rep.summary["passed"] is True
        assert [row["m"] for row in rep.rows] == [2, 3]
        assert rep.summary["sup_area"] <= 1e-14


def test_cutoff_energy_decay_rate():
    prods = [cutoff_disk(t).rows[0]["energy"] * (-math.log(t)) for t in (1e-2, 1e-3, 1e-4)]
    assert np.allclose(prods, 2.0 * math.pi, rtol=1e-12)


def test_clifford_cutoff_energy_bound():
    cl = clifford_torus(64)
    n = cl.aux["grid_n"]
    center = (n // 2) * n + n // 2
    dist = geodesic_distances(cl, center)
    radii = (0.2, 0.3, 0.5, 0.8)
    d_const = 2.0 * max(level_set_perimeter(cl, dist, lam) / lam for lam in radii)
    t = 0.05
    e = dirichlet_energy(cl, build_cutoff(cl, center, t).values)
    assert e <= d_const / (-math.log(t))
    assert d_const == pytest.approx(4.0 * math.pi, rel=2e-2)


@pytest.mark.parametrize("t", [0.5, 0.3])
def test_torus_distance_along_grid_lines(t):
    n = 64
    m = product_torus(t, n)
    j0, k0 = 10, 50
    dist = torus_distances(m, j0 * n + k0)
    step = 2.0 * math.pi / n
    for k in range(n):
        hops = min(k, n - k)
        # theta circle through the source, then the phi circle
        assert dist[(j0 + k) % n * n + k0] == pytest.approx(
            hops * step * math.sqrt(t), rel=1e-12, abs=1e-15
        )
        assert dist[j0 * n + (k0 + k) % n] == pytest.approx(
            hops * step * math.sqrt(1.0 - t), rel=1e-12, abs=1e-15
        )


def test_torus_distance_symmetric_and_wraps():
    n = 16
    m = product_torus(0.3, n)
    table = np.array([torus_distances(m, p) for p in range(n * n)])
    # equal up to the rounding of the angle wrap
    assert np.allclose(table, table.T, rtol=1e-14, atol=1e-15)
    # first and last grid columns are one cell apart across the seam
    step = 2.0 * math.pi / n
    assert table[0, n - 1] == pytest.approx(step * math.sqrt(0.7), rel=1e-12)
    assert table[0, (n - 1) * n] == pytest.approx(step * math.sqrt(0.3), rel=1e-12)
    assert table[0, (n - 1) * n + n - 1] == pytest.approx(step, rel=1e-12)


@pytest.mark.parametrize("t", [0.5, 0.3])
def test_torus_distance_matches_mesh_geodesic_near_source(t):
    n = 64
    m = product_torus(t, n)
    src = (n // 2) * n + n // 2
    exact = torus_distances(m, src)
    mesh = geodesic_distances(m, src)
    near = (exact > 0.0) & (exact <= 1.0)
    assert np.max(np.abs(mesh[near] / exact[near] - 1.0)) < 5e-4


def test_distances_only_on_exact_meshes():
    # a mesh cutoff reads the distances of a product torus; even the center
    # of a flat disk is refused
    with pytest.raises(DomainError, match="round_sphere"):
        build_cutoff(round_sphere(2), 0, 0.1)
    with pytest.raises(DomainError, match="flat_disk"):
        build_cutoff(flat_disk(32, np.linspace(0.05, 0.5, 8)), 0, 0.1)


def test_jacobi_lowest_clifford():
    cl = clifford_torus(64)
    jd = jacobi_lowest(cl)
    mu, phi = jd.lowest_pair
    assert abs(mu + 4.0) < 1e-8
    assert phi.min() * phi.max() > 0.0
    assert np.sum(lumped_mass(cl) * phi * phi) == pytest.approx(1.0, rel=1e-12)
    # constant potential: the eigenfunction is constant
    assert phi.max() - phi.min() < 1e-10
    jd2 = jacobi_lowest(clifford_torus(128))
    assert abs(jd2.lowest_pair[0] + 4.0) < 1e-8
    # the start vector is the eigenfunction: the second solve confirms it
    assert jd.iterations == jd2.iterations == 2


def test_jacobi_fill_stays_bounded():
    # no pivoting, minimum degree on A + A^T: 270,836 nonzeros in L + U;
    # SuperLU's default column ordering with partial pivoting takes 552,080
    assert jacobi_lowest(clifford_torus(64)).factor_nnz <= 300_000


def _clifford_with_varying_potential(n):
    # |A|^2 = 2 + cos(u1): the lowest eigenfunction is no longer constant
    cl = clifford_torus(n)
    cl.a_norm2 = 2.0 + math.sqrt(2.0) * cl.vertices[:, 0]
    return cl


def test_jacobi_lowest_matches_dense_eigh():
    cl = _clifford_with_varying_potential(16)
    jd = jacobi_lowest(cl)
    mu, phi = jd.lowest_pair
    s = cotan_stiffness(cl).toarray()
    mass = lumped_mass(cl)
    q = cl.a_norm2 + cl.ric_nn
    w, v = scipy.linalg.eigh(s - np.diag(mass * q), np.diag(mass))
    ref = v[:, 0] * np.sign(np.sum(mass * v[:, 0]))
    assert np.ptp(ref) > 0.1
    assert abs(mu / w[0] - 1.0) < 1e-8
    # the iteration stops once mu changes by at most JACOBI_TOL * |mu|; with
    # contraction r = (mu0 - sigma)/(mu1 - sigma) per solve and the Rayleigh
    # quotient's error gap * e^2, that leaves the vector's M-norm error e
    # below sqrt(JACOBI_TOL * |mu| / (gap * (1/r^2 - 1)))
    sigma = -float(np.max(q)) - 1.0
    r = (w[0] - sigma) / (w[1] - sigma)
    gap = w[1] - w[0]
    e_tol = math.sqrt(JACOBI_TOL * abs(w[0]) / (gap * (1.0 / r ** 2 - 1.0)))
    assert math.sqrt(np.sum(mass * (phi - ref) ** 2)) < e_tol


def _ref_default_ordering_lowest(m):
    # jacobi_lowest with SuperLU's default ordering and partial pivoting
    s = cotan_stiffness(m)
    mass = lumped_mass(m)
    q = m.a_norm2 + m.ric_nn
    sigma = -float(np.max(q)) - 1.0
    diag = csc_matrix(
        (mass * (-q - sigma), (np.arange(m.n_vertices), np.arange(m.n_vertices))),
        shape=s.shape,
    )
    solver = splu(csc_matrix(s + diag))
    x = np.ones(m.n_vertices)
    x /= math.sqrt(float(np.sum(mass * x * x)))
    mu_prev = math.inf
    for _ in range(JACOBI_MAX_ITERS):
        y = solver.solve(mass * x)
        y /= math.sqrt(float(np.sum(mass * y * y)))
        mu = float((y @ (s @ y)) - np.sum(mass * q * y * y))
        x = y
        if abs(mu - mu_prev) <= JACOBI_TOL * max(1.0, abs(mu)):
            return mu
        mu_prev = mu
    raise AssertionError("reference iteration missed its tolerance")


@pytest.mark.parametrize("varying", [False, True])
def test_jacobi_lowest_matches_default_ordering(varying):
    cl = _clifford_with_varying_potential(64) if varying else clifford_torus(64)
    mu = jacobi_lowest(cl).lowest_pair[0]
    assert abs(mu / _ref_default_ordering_lowest(cl) - 1.0) < 1e-13


def test_jacobi_factor_failure_is_named(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr("scipy.sparse.linalg.splu", singular)
    with pytest.raises(SolverFailure, match="256 vertices: Factor is exactly singular"):
        jacobi_lowest(clifford_torus(16))


def test_jacobi_pure_laplacian_sphere():
    sp = round_sphere(3)
    sp.a_norm2 = np.zeros(sp.n_vertices)
    mu, phi = jacobi_lowest(sp).lowest_pair
    assert abs(mu) < 1e-8
    assert phi.min() * phi.max() > 0.0


_PAIR = [(0.5 * math.pi, 1.5 * math.pi), (1.5 * math.pi, 0.5 * math.pi)]


def test_tube_family_margins():
    for h in (0.02, 0.05):
        rep = two_sided_tube_family(_PAIR, h)
        assert rep.summary["budget"] == FOUR_PI_SQ
        assert rep.summary["sup_area"] < rep.summary["budget"]
        assert rep.summary["margin"] > 0.0
        assert rep.summary["kappa"] >= 0.05
        # each band is symmetric under psi -> pi/2 - psi, which swaps the
        # sheets' elements
        for row in rep.rows:
            assert row["area_plus"] == pytest.approx(row["area_minus"], rel=1e-14)


def test_tube_family_limits():
    # zero offset: exactly twice the punctured base area on every row
    rep = two_sided_tube_family(_PAIR[:1], 1e-9)
    for row in rep.rows:
        assert row["area"] == pytest.approx(2.0 * (TWO_PI_SQ - row["removed_base_area"]), rel=1e-15)
        assert row["removed_base_area"] == math.pi * row["t"] ** 4
    # at the smallest neck both graphs are nearly the full offset surfaces
    # 2*pi^2 cos 2h
    row0 = two_sided_tube_family(_PAIR[:1], 0.05).rows[0]
    assert row0["t"] == TUBE_T_GRID[0]
    assert row0["area"] == pytest.approx(2.0 * TWO_PI_SQ * math.cos(0.1), rel=1e-3)
    # the bands of the largest neck must not overlap
    with pytest.raises(DomainError, match="overlap their bands"):
        two_sided_tube_family([(1.0, 1.0), (1.0, 1.9)], 0.05)


def _polar_band_central_differences(h, t, n=48):
    # both sheets over the band t^2 < g < t about the chart point (pi, pi),
    # in flat polar coordinates with tensor Gauss-Legendre nodes, the field
    # h * log_cutoff(flat gap) and its chart partials central differences
    xg, wg = np.polynomial.legendre.leggauss(n)
    log_t = math.log(t)
    log_g = 1.5 * log_t - 0.5 * log_t * xg
    w_g = -0.5 * log_t * wg
    psi = math.pi * (xg + 1.0)
    w_psi = math.pi * wg
    g = np.exp(log_g)[:, None]
    theta = math.pi + math.sqrt(2.0) * g * np.cos(psi)
    phi = math.pi + math.sqrt(2.0) * g * np.sin(psi)

    def field(th, ph):
        return h * log_cutoff(flat_torus_gap(0.5, th - math.pi, ph - math.pi, 2.0 * math.pi), t)

    eps = 1e-6 * g
    f_th = (field(theta + eps, phi) - field(theta - eps, phi)) / (2.0 * eps)
    f_ph = (field(theta, phi + eps) - field(theta, phi - eps)) / (2.0 * eps)
    plus, minus = sheet_elements(field(theta, phi), f_th ** 2, f_ph ** 2)
    # the chart area 2 g dg dpsi = 2 g^2 d(log g) dpsi
    w = w_g[:, None] * w_psi * 2.0 * g * g
    return float(np.sum(w * plus)), float(np.sum(w * minus))


def test_tube_family_gradient_matches_central_differences():
    # the rows' closed-form cutoff partials against central differences of
    # h * log_cutoff(gap, t) in the chart, through the same element, on
    # each band; outside the bands both sheets are the offsets +-h
    h = 0.05
    rep = two_sided_tube_family(_PAIR, h)
    outer = float(sheet_elements(h, 0.0, 0.0)[0])
    for row in rep.rows:
        t = row["t"]
        plus, minus = _polar_band_central_differences(h, t)
        rest = outer * (FOUR_PI_SQ - 2.0 * 2.0 * math.pi * t * t)
        assert row["area_plus"] == pytest.approx(rest + 2.0 * plus, rel=1e-10)
        assert row["area_minus"] == pytest.approx(rest + 2.0 * minus, rel=1e-10)


def test_band_nodes_integrate_the_band_areas():
    # the weights sum to the chart area of the band, disk less the excised
    # circle, at s = 0, and the disk is the chart area 2 pi t^2 inside t
    t = np.array([1e-3, 0.05, 0.25])
    band = band_nodes(t, 0.0, math.pi / 3)
    assert band.rows.tolist() == [0, 1, 2]
    assert band.disk == pytest.approx(2.0 * math.pi * t * t, rel=1e-15)
    assert np.sum(band.weight, axis=1) == pytest.approx(2.0 * math.pi * (t * t - t ** 4),
                                                        rel=1e-14)
    assert band.gap.shape == (3, 2 * fermi.BAND_ANGLE_NODES * fermi.BAND_LOG_NODES)
    # an unpunctured cell has no band
    assert band_nodes([0.0], 0.0).rows.size == 0
    assert [x.tolist() for x in band_sheets(0.1, [0.0])] == [[0.0], [0.0], [0.0]]
    # the band must fit in its symmetry cell, inscribed radius pi/(sqrt(2) m)
    with pytest.raises(RadiusTooLarge, match="radius 0.75 leaves the symmetry cell"):
        band_nodes([0.05, 0.75, 0.8], 0.0, math.pi / 3)
    band_nodes([0.74], 0.0, math.pi / 3)


def _band_family():
    # (scale, t, s, half) of a band row of every kind: the tube family's
    # rows, graph-neck rows and collapse rows of m = 2 and 3, the unpunctured
    # cell (t = 0) and the closed cell (s = 1)
    h_eff = NeckSchedule().handoff_offset
    rows = [(0.05, t, 0.0, math.pi) for t in TUBE_T_GRID.tolist()]
    for m in (2, 3):
        rows += [(h_eff, k / 7.0 * HANDOFF_NECK_MAX, 0.0, math.pi / m) for k in range(1, 8)]
        rows += [((1.0 - s) * h_eff, HANDOFF_NECK_MAX, s, math.pi / m)
                 for s in (0.05, 0.15, 0.2, 1.0)]
    rows.append((0.05, 0.0, 0.0, math.pi))
    return [np.array(v) for v in zip(*rows)]


def test_band_rows_have_the_same_bits_alone_as_in_any_batch():
    scale, t, s, half = _band_family()
    # the kink cos psi* = x on both sides of sqrt(1/2), and empty bands
    punctured = t > 0.0
    x = np.zeros(t.size)
    x[punctured] = (s * half / math.sqrt(2.0))[punctured] / (t - (1.0 - s) * t * t)[punctured]
    assert np.any(x < math.sqrt(0.5)) and np.any((math.sqrt(0.5) < x) & (x < 1.0))
    whole = band_sheets(scale, t, s, half)
    nodes = band_nodes(t, s, half)
    assert nodes.rows.tolist() == np.flatnonzero(punctured & (x < 1.0)).tolist()
    rng = np.random.default_rng(7)
    batches = [[i] for i in range(t.size)] + [np.arange(t.size)[::-1]]
    batches += [rng.permutation(t.size)[:k] for k in (2, 5, 11, 23)]
    for idx in batches:
        got = band_sheets(scale[idx], t[idx], s[idx], half[idx])
        for x, y in zip(got, whole):
            assert x.tobytes() == y[idx].tobytes()
        # the nodes too, row by row
        band = band_nodes(t[idx], s[idx], half[idx])
        where = np.searchsorted(nodes.rows, np.asarray(idx)[band.rows])
        for field in ("a", "b", "gap", "weight"):
            assert getattr(band, field).tobytes() == getattr(nodes, field)[where].tobytes()


def test_band_nodes_under_the_retraction():
    # the band lies above the retracted excised circle, so it thins as s
    # grows and is empty once that circle passes t in every direction
    m, t = 2, HANDOFF_NECK_MAX
    half = math.pi / m
    areas = np.sum(band_nodes(t, [0.0, 0.05, 0.1, 0.15], half).weight, axis=1)
    assert np.all(areas[1:] < areas[:-1])
    s_empty = (t - t * t) / (half / math.sqrt(2.0) - t * t)
    band = band_nodes(t, [s_empty * 1.0001, s_empty * 0.9999, 1.0], half)
    assert band.rows.tolist() == [1]
    # its disk at s = 1 is the whole cell
    assert band.disk[2] == pytest.approx((2.0 * half) ** 2, rel=1e-15)

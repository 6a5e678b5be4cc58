import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from catsweep import fermi
from catsweep.acceptance import cutoff_disk
from catsweep.doubling import cmc_area
from catsweep.errors import DomainError, RadiusTooLarge, SolverFailure
from catsweep.fermi import (
    JACOBI_MAX_ITERS,
    JACOBI_TOL,
    TUBE_T_GRID,
    build_cutoff,
    chart_nodes,
    jacobi_lowest,
    log_cutoff,
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

from reference_geometry import disk_mesh_rings, flat_disk, quadratic_form, round_sphere

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
        two_sided_tube_family(16, [0], 0.8)
    with pytest.raises(DomainError, match="h = 1e-300 is too small"):
        two_sided_tube_family(16, [0], 1e-300)


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

    monkeypatch.setattr(fermi, "splu", singular)
    with pytest.raises(SolverFailure, match="256 vertices: Factor is exactly singular"):
        jacobi_lowest(clifford_torus(16))


def test_jacobi_pure_laplacian_sphere():
    sp = round_sphere(3)
    sp.a_norm2 = np.zeros(sp.n_vertices)
    mu, phi = jacobi_lowest(sp).lowest_pair
    assert abs(mu) < 1e-8
    assert phi.min() * phi.max() > 0.0


def test_tube_family_margins():
    n = 64
    p = 16 * n + 48
    tau_p = 48 * n + 16
    for h in (0.02, 0.05):
        rep = two_sided_tube_family(n, [p, tau_p], h)
        assert rep.summary["budget"] == pytest.approx(2.0 * TWO_PI_SQ, rel=1e-15)
        assert rep.summary["sup_area"] < rep.summary["budget"]
        assert rep.summary["margin"] > 0.0
        assert rep.summary["kappa"] >= 0.05
        # the swap maps the pair and the sheets onto each other
        for row in rep.rows:
            assert row["area_plus"] == pytest.approx(row["area_minus"], rel=1e-14)


def test_tube_family_limits():
    n = 64
    p = 16 * n + 48
    # zero offset: exactly twice the punctured base area on every row
    rep = two_sided_tube_family(n, [p], 1e-9)
    for row in rep.rows:
        assert row["area"] == pytest.approx(2.0 * (TWO_PI_SQ - row["removed_base_area"]), rel=1e-15)
    assert rep.rows[-1]["removed_base_area"] > 0.0
    # the smallest neck removes no node, and both graphs are nearly the
    # full offset surfaces 2*pi^2 cos 2h
    row0 = two_sided_tube_family(n, [p], 0.05).rows[0]
    assert row0["t"] == TUBE_T_GRID[0]
    assert row0["removed_base_area"] == 0.0
    assert row0["area"] == pytest.approx(2.0 * TWO_PI_SQ * math.cos(0.1), rel=1e-3)


def test_tube_family_gradient_matches_central_differences():
    # the rows' closed-form cutoff partials against central differences of
    # h * prod log_cutoff(gap_p, t) in the chart, through the same element;
    # the rows take the cutoff about the nearest puncture, which is that
    # product while the punctures' t-balls are disjoint
    n = 64
    pair = [16 * n + 48, 48 * n + 16]
    h = 0.05
    th, ph, w = chart_nodes(n)
    ang = 2.0 * np.pi * np.arange(n) / n
    centers = [(ang[p // n], ang[p % n]) for p in pair]
    (tc0, pc0), (tc1, pc1) = centers
    assert flat_torus_gap(0.5, tc0 - tc1, pc0 - pc1, 2.0 * math.pi) > 2.0 * TUBE_T_GRID[-1]

    def field(th, ph, t):
        f = np.full(th.shape, h)
        for tc, pc in centers:
            f = f * log_cutoff(flat_torus_gap(0.5, th - tc, ph - pc, 2.0 * math.pi), t)
        return f

    def gap_min(t):
        return np.min([flat_torus_gap(0.5, th - tc, ph - pc, 2.0 * math.pi)
                       for tc, pc in centers], axis=0)

    rep = two_sided_tube_family(n, pair, h)
    eps = 1e-7
    for row in rep.rows:
        t = row["t"]
        keep = gap_min(t) > t * t
        f = field(th, ph, t)
        f_th = (field(th + eps, ph, t) - field(th - eps, ph, t)) / (2.0 * eps)
        f_ph = (field(th, ph + eps, t) - field(th, ph - eps, t)) / (2.0 * eps)
        plus, minus = sheet_elements(f[keep], f_th[keep] ** 2, f_ph[keep] ** 2)
        want = float(np.sum(w[keep] * (plus + minus)))
        assert row["area"] == pytest.approx(want, rel=1e-10)

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from catsweep import fermi
from catsweep.errors import ChartOverflow, DomainError, RadiusTooLarge, SolverFailure
from catsweep.fermi import (
    JACOBI_MAX_ITERS,
    JACOBI_TOL,
    NormalGraphField,
    build_cutoff,
    cutoff_energy,
    graph_area_exact,
    jacobi_lowest,
    two_sided_tube_family,
)
from catsweep.mesh import (
    cotan_stiffness,
    geodesic_distances,
    level_set_perimeter,
    lumped_mass,
    mesh_area,
)
from catsweep.surfaces import (
    clifford_torus,
    disk_rings_for_cutoff,
    flat_disk,
    product_torus,
    torus_distances,
)

from reference_geometry import quadratic_form, round_sphere

FOUR_PI_SQ = 4.0 * math.pi ** 2


def test_zero_field_keeps_base_area():
    cl = clifford_torus(32)
    g = NormalGraphField(base=cl, phi=np.zeros(cl.n_vertices), h=0.3)
    assert graph_area_exact(g) == mesh_area(cl, "triangle")


def test_clifford_offsets_match_closed_form():
    cl = clifford_torus(64)
    ones = np.ones(cl.n_vertices)
    for s in (0.05, 0.1, 0.2):
        area = graph_area_exact(NormalGraphField(base=cl, phi=ones, h=s))
        exact = 2.0 * math.pi ** 2 * math.cos(2.0 * s)
        assert abs(area - exact) / exact < 6e-4


def test_flat_disk_translation_keeps_area():
    d = flat_disk()
    base = mesh_area(d, "triangle")
    g = NormalGraphField(base=d, phi=np.ones(d.n_vertices), h=0.7)
    assert graph_area_exact(g) == pytest.approx(base, rel=1e-14)


def test_chart_overflow():
    cl = clifford_torus(16)
    g = NormalGraphField(base=cl, phi=np.ones(cl.n_vertices), h=0.8)
    with pytest.raises(ChartOverflow):
        graph_area_exact(g)


def test_quadratic_coefficient_of_offset_area():
    cl = clifford_torus(64)
    ones = np.ones(cl.n_vertices)
    base = mesh_area(cl, "triangle")
    d = 0.05
    ap = graph_area_exact(NormalGraphField(base=cl, phi=ones, h=d))
    am = graph_area_exact(NormalGraphField(base=cl, phi=ones, h=-d))
    coeff = 0.5 * (ap - 2.0 * base + am) / (d * d)
    assert abs(coeff + FOUR_PI_SQ) / FOUR_PI_SQ < 1e-2


def test_quadratic_form_constant_field():
    cl = clifford_torus(64)
    q = quadratic_form(cl, np.ones(cl.n_vertices))
    assert q == pytest.approx(-8.0 * math.pi ** 2, rel=1e-3)


def test_expansion_error_is_fourth_order_here():
    # symmetric surface kills the cubic term, so the exact area minus the
    # two-term expansion |base| + (h^2/2) Q(phi) is ~ h^4
    cl = clifford_torus(64)
    ones = np.ones(cl.n_vertices)
    base = mesh_area(cl, "triangle")
    q = quadratic_form(cl, ones)
    errs = []
    for h in (0.1, 0.05, 0.025):
        a = graph_area_exact(NormalGraphField(base=cl, phi=ones, h=h))
        errs.append(abs(a - (base + 0.5 * h * h * q)))
    assert math.log2(errs[0] / errs[1]) > 3.0
    assert math.log2(errs[1] / errs[2]) > 3.0


def test_second_variation_against_quadratic_form():
    cl = clifford_torus(64)
    th = cl.aux["chart_theta"]
    ph = cl.aux["chart_phi"]
    rng = np.random.default_rng(11)
    base = mesh_area(cl, "triangle")
    for _ in range(3):
        # modes with a, b >= 2 stay clear of the kernel of the second variation
        a, b = rng.integers(2, 4, size=2)
        c0, c1 = rng.normal(size=2)
        phi = c0 * np.cos(a * th) * np.cos(b * ph) + c1 * np.sin(a * th + b * ph)
        h = 1e-3
        ap = graph_area_exact(NormalGraphField(base=cl, phi=phi, h=h))
        am = graph_area_exact(NormalGraphField(base=cl, phi=phi, h=-h))
        measured = 0.5 * (ap + am - 2.0 * base) / (h * h)
        expect = 0.5 * quadratic_form(cl, phi)
        assert abs(measured - expect) / abs(expect) < 2e-2


def test_cutoff_field_cases():
    t = 0.01
    dk = flat_disk(64, disk_rings_for_cutoff(t))
    c = build_cutoff(dk, 0, t)
    r = dk.aux["radius_of"]
    outer = r >= t
    assert np.all(c.values[outer] == 1.0)
    assert np.all(c.values[r <= t * t] == 0.0)
    # log-midpoint radius t^{3/2} sits on a ring by construction
    mid = np.isclose(r, t ** 1.5, rtol=1e-12)
    assert np.any(mid)
    assert np.allclose(c.values[mid], 0.5, atol=1e-12)
    assert np.all((0.0 <= c.values) & (c.values <= 1.0))


def test_cutoff_radius_guards():
    dk = flat_disk(32, np.linspace(0.05, 0.5, 8))
    with pytest.raises(RadiusTooLarge):
        build_cutoff(dk, 0, 0.6)
    with pytest.raises(DomainError):
        build_cutoff(dk, 0, 1.5)


def test_flat_disk_cutoff_energy_closed_form():
    for t in (1e-2, 1e-3):
        dk = flat_disk(64, disk_rings_for_cutoff(t))
        e = cutoff_energy(build_cutoff(dk, 0, t))
        assert e == pytest.approx(2.0 * math.pi / (-math.log(t)), rel=1e-12)


def test_cutoff_energy_decay_rate():
    prods = []
    for t in (1e-2, 1e-3, 1e-4):
        dk = flat_disk(64, disk_rings_for_cutoff(t))
        prods.append(cutoff_energy(build_cutoff(dk, 0, t)) * (-math.log(t)))
    assert np.allclose(prods, 2.0 * math.pi, rtol=1e-12)


def test_clifford_cutoff_energy_bound():
    cl = clifford_torus(64)
    n = cl.aux["grid_n"]
    center = (n // 2) * n + n // 2
    dist = geodesic_distances(cl, center)
    radii = (0.2, 0.3, 0.5, 0.8)
    d_const = 2.0 * max(level_set_perimeter(cl, dist, lam) / lam for lam in radii)
    t = 0.05
    e = cutoff_energy(build_cutoff(cl, center, t))
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
    with pytest.raises(DomainError, match="round_sphere"):
        build_cutoff(round_sphere(2), 0, 0.1)
    dk = flat_disk(32, np.linspace(0.05, 0.5, 8))
    with pytest.raises(DomainError, match="flat_disk"):
        build_cutoff(dk, 5, 0.1)


def test_jacobi_lowest_clifford():
    jd = jacobi_lowest(clifford_torus(64))
    mu, phi = jd.lowest_pair
    assert abs(mu + 4.0) < 1e-8
    assert phi.min() * phi.max() > 0.0
    assert np.sum(jd.mass * phi * phi) == pytest.approx(1.0, rel=1e-12)
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
    cl = clifford_torus(64)
    n = cl.aux["grid_n"]
    p = 16 * n + 48
    tau_p = 48 * n + 16
    ones = np.ones(cl.n_vertices)
    base2 = 2.0 * mesh_area(cl, "triangle")
    for h in (0.02, 0.05):
        rep = two_sided_tube_family(cl, ones, [p, tau_p], h)
        assert rep.summary["budget"] == pytest.approx(base2, rel=1e-12)
        assert rep.summary["sup_area"] < base2
        assert rep.summary["margin"] > 0.0
        assert rep.summary["kappa"] >= 0.05
        # triangle removal proceeds in discrete jumps, so areas are only
        # roughly decreasing; the sup must sit at the smallest neck radius
        areas = [row["area"] for row in rep.rows]
        assert areas[0] == max(areas)
        assert min(areas) < areas[0]


def test_tube_family_limits():
    cl = clifford_torus(64)
    n = cl.aux["grid_n"]
    p = 16 * n + 48
    ones = np.ones(cl.n_vertices)
    base = mesh_area(cl, "triangle")
    # zero offset at fixed t: exactly twice the punctured base area
    rep = two_sided_tube_family(cl, ones, [p], 1e-9, t_grid=[0.25])
    row = rep.rows[0]
    assert row["area"] == pytest.approx(2.0 * (base - row["removed_base_area"]), rel=1e-9)
    # tiny t: no triangles removed, both graphs nearly full offset surfaces
    rep0 = two_sided_tube_family(cl, ones, [p], 0.05, t_grid=[0.02])
    g = graph_area_exact(NormalGraphField(base=cl, phi=ones, h=0.05))
    assert rep0.rows[0]["removed_base_area"] == 0.0
    assert rep0.rows[0]["area"] == pytest.approx(2.0 * g, rel=1e-3)

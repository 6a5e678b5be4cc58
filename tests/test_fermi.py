import math

import numpy as np
import pytest

from catsweep.errors import ChartOverflow, DomainError, NotMinimal, NotPositiveDefinite, RadiusTooLarge
from catsweep.fermi import (
    MetricJet,
    NormalGraphField,
    build_cutoff,
    cutoff_energy,
    det_and_inverse_expansion,
    graph_area_estimate,
    graph_area_exact,
    jacobi_lowest,
    metric_jet,
    quadratic_form,
    two_sided_tube_family,
)
from catsweep.mesh import geodesic_distances, level_set_perimeter, lumped_mass, mesh_area
from catsweep.surfaces import (
    catenoid_patch,
    clifford_torus,
    disk_rings_for_cutoff,
    flat_disk,
    product_torus,
    round_sphere,
    torus_distances,
)

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


def test_estimate_two_term_value():
    cl = clifford_torus(64)
    ones = np.ones(cl.n_vertices)
    est = graph_area_estimate(NormalGraphField(base=cl, phi=ones, h=0.05))
    assert est.estimate == pytest.approx(est.base_area + 0.5 * 0.0025 * est.quadratic_form)
    zero = graph_area_estimate(NormalGraphField(base=cl, phi=np.zeros(cl.n_vertices), h=0.05))
    assert zero.estimate == zero.base_area


def test_expansion_error_is_fourth_order_here():
    # symmetric surface kills the cubic term, so exact-vs-estimate ~ h^4
    cl = clifford_torus(64)
    ones = np.ones(cl.n_vertices)
    errs = []
    for h in (0.1, 0.05, 0.025):
        a = graph_area_exact(NormalGraphField(base=cl, phi=ones, h=h))
        e = graph_area_estimate(NormalGraphField(base=cl, phi=ones, h=h)).estimate
        errs.append(abs(a - e))
    assert math.log2(errs[0] / errs[1]) > 3.0
    assert math.log2(errs[1] / errs[2]) > 3.0


def test_estimate_envelope_bounds_residual():
    cl = clifford_torus(64)
    ones = np.ones(cl.n_vertices)
    for h in (0.1, 0.05, 0.02):
        a = graph_area_exact(NormalGraphField(base=cl, phi=ones, h=h))
        est = graph_area_estimate(NormalGraphField(base=cl, phi=ones, h=h), c_envelope=1.0)
        assert abs(a - est.estimate) <= est.envelope


def test_estimate_requires_minimal_base():
    sp = round_sphere(2)
    with pytest.raises(NotMinimal):
        graph_area_estimate(NormalGraphField(base=sp, phi=np.ones(sp.n_vertices), h=0.01))


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


def test_metric_jet_clifford():
    jet = metric_jet(clifford_torus(64))
    assert jet.trust == "analytic"
    assert jet.minimal_residual < 1e-9
    assert np.max(np.abs(jet.a_norm2 - 2.0)) < 2e-2
    assert jet.ric_nn == 2.0


def test_metric_jet_catenoid_near_minimal():
    jet = metric_jet(catenoid_patch())
    assert jet.minimal_residual < 1e-3


def test_metric_jet_flat_disk():
    jet = metric_jet(flat_disk())
    assert np.max(np.abs(jet.a_form)) == 0.0
    assert np.max(np.abs(jet.t_form)) == 0.0
    assert jet.ric_nn == 0.0


def test_metric_jet_finite_difference_fallback():
    sp = round_sphere(3)
    del sp.aux["shape_kappa"]
    jet = metric_jet(sp)
    assert jet.trust == "finite_difference"
    # unit sphere: |A|^2 = 2 with O(edge) normals differencing
    assert np.median(jet.a_norm2) == pytest.approx(2.0, rel=5e-2)


def _random_jet(rng, n=64):
    m = rng.normal(size=(n, 2, 2))
    g = np.einsum("nij,nkj->nik", m, m) + 0.3 * np.eye(2)
    a = np.empty((n, 2, 2))
    t = np.empty((n, 2, 2))
    for arr in (a, t):
        s = rng.normal(size=(n, 2, 2))
        arr[:] = 0.5 * (s + np.transpose(s, (0, 2, 1)))
    return MetricJet(
        g0=g, a_form=a, t_form=t,
        a_norm2=np.zeros(n), ric_nn=0.0, minimal_residual=1.0, trust="synthetic",
    )


def test_det_inverse_expansion_matches_brute_force():
    rng = np.random.default_rng(3)
    jet = _random_jet(rng)
    exp = det_and_inverse_expansion(jet, 1e-3)
    worst = {1e-3: 0.0, 5e-4: 0.0}
    worst_inv = {1e-3: 0.0, 5e-4: 0.0}
    for eps in (1e-3, 5e-4):
        gz = jet.g0 - 2.0 * eps * jet.a_form + eps * eps * jet.t_form
        det_gz = np.linalg.det(gz) / np.linalg.det(jet.g0)
        series = exp.det_coeffs[:, 0] + eps * exp.det_coeffs[:, 1] + eps * eps * exp.det_coeffs[:, 2]
        worst[eps] = np.max(np.abs(det_gz - series))
        inv = np.linalg.inv(gz)
        inv_series = (
            exp.inv_coeffs[:, 0] + eps * exp.inv_coeffs[:, 1] + eps * eps * exp.inv_coeffs[:, 2]
        )
        worst_inv[eps] = np.max(np.abs(inv - inv_series))
    assert worst[1e-3] < 5e-8
    assert worst_inv[1e-3] < 1e-4
    # third-order remainder: halving eps cuts the mismatch by about 8
    assert 5.0 < worst[1e-3] / worst[5e-4] < 11.0
    assert 5.0 < worst_inv[1e-3] / worst_inv[5e-4] < 11.0


def test_det_expansion_identity_case():
    jet = MetricJet(
        g0=np.tile(np.eye(2), (4, 1, 1)),
        a_form=np.zeros((4, 2, 2)),
        t_form=np.zeros((4, 2, 2)),
        a_norm2=np.zeros(4),
        ric_nn=0.0,
        minimal_residual=0.0,
        trust="synthetic",
    )
    exp = det_and_inverse_expansion(jet, 0.1)
    assert np.allclose(exp.det_coeffs[:, 0], 1.0)
    assert np.max(np.abs(exp.det_coeffs[:, 1:])) == 0.0
    assert np.allclose(exp.inv_coeffs[:, 0], np.eye(2))


def test_det_expansion_clifford_identities():
    jet = metric_jet(clifford_torus(64))
    exp = det_and_inverse_expansion(jet, 1e-3)
    assert np.max(np.abs(exp.tr_g_inv_a)) < 1e-9
    # tr(g^-1 T) = |A|^2 - Ric and tr2 = -|A|^2 / 2 on a minimal base
    assert np.max(np.abs(exp.tr_g_inv_t - (jet.a_norm2 - jet.ric_nn))) < 1e-10
    assert np.max(np.abs(exp.tr2_g_inv_a + 0.5 * jet.a_norm2)) < 1e-10
    order2 = exp.det_coeffs[:, 2]
    assert np.max(np.abs(order2 + 4.0)) < 5e-2


def test_det_expansion_positivity_guard():
    jet = metric_jet(clifford_torus(16))
    with pytest.raises(NotPositiveDefinite):
        det_and_inverse_expansion(jet, 10.0)


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
    mu2 = jacobi_lowest(clifford_torus(128)).lowest_pair[0]
    assert abs(mu2 + 4.0) < 1e-8


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

"""Command reports and the end-to-end verification battery.

Each command-line computation that the battery checks is one function
here returning that command's report.  The report's summary holds the
only verdict on its estimate: each row's `area` is the quantity the paper
bounds, put in units of its tolerance or budget, and `passed` is
`sup_area < budget` and any clause the estimate adds (the quadratic
form's base area, the Jacobi spectrum's index and nullity, the tube
family's margin floor, the doubled witness's genus and mesh area).  The
command exits on that verdict, and a criterion is the conjunction of its
reports' verdicts plus only the clauses that no report carries.
Criterion 6's report has no command, and criterion 2 has no report.
Every criterion states its wall-clock limit, and the runners return
structured results so both the test suite and the command line can
render one pass/fail line per criterion.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .catenoid import (
    HALVING_GRID,
    CatenoidSpec,
    area_on_root,
    excess_over_disks,
    excess_over_disks_scaled,
    solve_parameters,
    unstable_neck,
)
from .doubling import NeckSchedule, assemble_doubled_sweepout, group_elements
from .errors import CatsweepError, DomainError, NonConvergence
from .fermi import (
    band_field,
    band_nodes,
    check_offset,
    log_cutoff,
    mode_frequencies,
    second_variation,
    two_sided_tube_family,
)
from .report import make_report
from .revolution import mountain_pass_width
from .surfaces import check_cutoff_radius, disk_rings_for_cutoff

WIDTH_EXCESS_TOL = 2e-4     # relative error of the width's excess over the two disks
EXCESS_GRID = tuple(10.0 ** (-k) for k in range(2, 8))   # h/r of width excess
EXCESS_SLOPE_TOL = 0.25     # log-log slope of naive over optimal excess, target 1
NECK_RATIO_WINDOW = (0.9, 1.1)  # c*(-log h)/h at the deepest h of criterion 2
NECK_LAW_TOL = 0.01         # that ratio against its two-term law, for h up to NECK_LAW_H
NECK_LAW_H = 1e-8
QUAD_TOL = 1e-12            # quadratic area coefficients against half of Q(phi)
SPECTRUM_TOL = 1e-10        # Jacobi eigenvalues against 2(j^2 + k^2) - 4
KAPPA_FLOOR = 0.05          # tube-family margin / h^2
TUBE_H_FLOOR = math.sqrt(2.0 * math.ulp(4.0 * math.pi ** 2) / KAPPA_FLOOR)  # fermi_tubes
DISK_CUTOFF_TOL = 1e-6      # cutoff energies against m^2 2*pi/(-log t), m = 1 the flat disk
CUTOFF_ORDERS = (2, 3)      # symmetry orders of the doubled fields cutoff_torus measures
NECK_EXPONENT_TOL = 0.01    # fitted neck cost exponent against the dimension
NECK_H_GRID = (1e-1, 1e-2, 1e-3, 1e-4)   # h of the neck cost fit
WITNESS_MESH_TOL = 1e-3     # doubled witness slice's mesh area against its row


def _estimate_row(r, h):
    """The sharp estimate at one (r, h): the unstable catenoid's excess over
    the two disks as a multiple of 4*pi*h^2/(-log h).  Both are divided by
    h^2, so the ratio neither rounds to 2*pi*r^2 nor underflows."""
    sol = solve_parameters(CatenoidSpec(r=r, h=h))
    if not h < 1.0:
        raise DomainError("the estimate needs h < 1 so that -log h > 0, got h = %s" % h)
    ratio = excess_over_disks_scaled(r, h, sol.c_unstable) / (4.0 * math.pi / (-math.log(h)))
    if not ratio > 0.0:
        raise NonConvergence(
            "excess over the disks is %.3g times the estimate at h = %g: the root "
            "is not the unstable catenoid" % (ratio, h)
        )
    return {
        "t": h,
        "area": ratio,
        "c_unstable": sol.c_unstable,
        "c_stable": sol.c_stable,
        "area_unstable": sol.area_unstable,
        "area_stable": sol.area_stable,
    }


def catenoid_solve(r, h):
    """`catenoid solve`: the sharp estimate at one (r, h), budget 1."""
    return make_report("catenoid-solve", {"r": r, "h": h}, [_estimate_row(r, h)], 1.0)


def catenoid_scan(r):
    """`catenoid scan`: the sharp estimate on HALVING_GRID, budget 1.

    h_threshold is the largest grid h at which the estimate holds there
    and at every smaller grid point.
    """
    rows = [_estimate_row(r, h) for h in HALVING_GRID]
    rep = make_report("catenoid-scan", {"r": r}, rows, 1.0)
    h0 = None
    for row in rep.rows:  # ascending in h
        if row["area"] >= rep.summary["budget"]:
            break
        h0 = row["t"]
    if h0 is None:
        raise NonConvergence("the estimate fails at the smallest grid h = %g" % HALVING_GRID[-1])
    rep.summary["h_threshold"] = h0
    return rep


def width_run(r, h):
    """`width run`: the mountain-pass width's excess over the two disks
    against the unstable catenoid's, within WIDTH_EXCESS_TOL relative."""
    c = unstable_neck(CatenoidSpec(r=r, h=h))
    reference = area_on_root(r, h, c)
    res = mountain_pass_width(r, h)
    excess = res.width - 2.0 * math.pi * r * r
    rows = [
        {
            "t": h,
            "area": abs(excess / excess_over_disks(r, h, c) - 1.0),
            "area_error": abs(res.width / reference - 1.0),
            "width": res.width,
            "reference_area": reference,
            "argmax_t": res.argmax_t,
            "sweep_max": res.sweep_max,
            "iterations": res.iterations,
            "backtracks": res.backtracks,
            "newton_iterations": res.newton_iterations,
            "classify_calls": res.classify_calls,
            "morse_index": res.morse_index,
        }
    ]
    return make_report("width-run", {"r": r, "h": h}, rows, WIDTH_EXCESS_TOL)


def width_excess():
    """`width excess`: the naive excess over the two disks against the
    unstable catenoid's, as a log-log slope in -log h on EXCESS_GRID.

    The naive family cuts radius-s disks out of both end disks and joins
    them by a cylinder: its area 2*pi*r^2 + 4*pi*h*s - 2*pi*s^2 peaks at
    s = h, with excess 2*pi*h^2.  The ratio of the two excesses grows like
    a multiple of -log h, so regressing its log on log(-log h) gives a
    slope near 1.  Both scale like r^2, so the ratio depends on h/r alone:
    the grid is read as h/r and the excesses are taken at r = 1.
    """
    log_log, log_ratio = [], []
    for h in EXCESS_GRID:
        optimal = excess_over_disks(1.0, h, unstable_neck(CatenoidSpec(r=1.0, h=h)))
        log_log.append(math.log(-math.log(h)))
        log_ratio.append(math.log(2.0 * math.pi * h * h / optimal))
    slope = float(np.polyfit(log_log, log_ratio, 1)[0])
    rows = [{"t": 0.0, "area": abs(slope - 1.0), "slope": slope}]
    return make_report(
        "width-excess",
        {"h_grid": list(EXCESS_GRID), "tolerance": EXCESS_SLOPE_TOL},
        rows,
        EXCESS_SLOPE_TOL,
    )


def fermi_quad():
    """`fermi quad`: half the second variation Q(phi) of the middle torus's
    two-sided offset, read off sheet_elements by second_variation, against
    its closed form, for the constant mode and the invariant mode
    cos 2theta + cos 2phi; Q(phi) = int |grad phi|^2 - 4 phi^2 with
    |grad phi|^2 = 2 (phi_theta^2 + phi_phi^2).  The two are e_(0,0) and
    e_(3,0) + e_(0,3) on second_variation(2)'s modes (a_3 = cos 2x), so
    Q(phi) is the sum of their modes' diagonal entries.  Each row's t is
    the mode's Jacobi eigenvalue.  base_area, M(1, 1), is the area 2*pi^2
    of the middle torus, and passed requires it within QUAD_TOL too."""
    q, mass = second_variation(2)
    rows = []
    # indices 5p + q of the modes a_p(theta) a_q(phi) each sums
    for modes, name, eigenvalue, target in (
            ([0], "1", -4.0, -4.0 * math.pi ** 2),
            ([5 * 3, 3], "cos 2theta + cos 2phi", 4.0, 4.0 * math.pi ** 2)):
        coeff = 0.5 * float(np.sum(q[modes]))
        rows.append({"t": eigenvalue, "mode": name, "area": abs(coeff / target - 1.0),
                     "coefficient": coeff, "target": target})
    rep = make_report("fermi-quad", {"tolerance": QUAD_TOL}, rows, QUAD_TOL)
    s = rep.summary
    s["base_area"] = float(mass[0])
    s["base_area_rel"] = abs(s["base_area"] / (2.0 * math.pi ** 2) - 1.0)
    s["passed"] = s["passed"] and s["base_area_rel"] <= QUAD_TOL
    return rep


def kron(a, b):
    """The Kronecker products of the matrices of a and b over any leading
    axes, broadcast, in one product: entry (i r + k, j s + l) of a (p, q)
    and an (r, s) matrix's is a[i, j] b[k, l], as numpy's kron forms it."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    *lead, p, r, q, s = out.shape
    return out.reshape(*lead, p * r, q * s)


def _orbit_average(m, degree):
    """The average over the order-2m^2 group of the compositions f o g, as
    a matrix on the coefficients of second_variation(degree)'s modes.

    Element (k, l, swap) swaps the chart angles if swap is set, then
    shifts them by 2 pi (k, l)/m; a shift by s rotates each (cos jx,
    sin jx) by js, and the swap transposes the index pair (p, q).  The
    average of these orthogonal matrices is the orthogonal projector onto
    the invariant modes, the span of the orbit sums.
    """
    size = 2 * degree + 1

    def shift(s):
        r = np.eye(size)
        for j in range(1, degree + 1):
            c, d = math.cos(j * s), math.sin(j * s)
            r[2 * j - 1:2 * j + 1, 2 * j - 1:2 * j + 1] = [[c, -d], [d, c]]
        return r

    transpose = np.arange(size * size).reshape(size, size).T.ravel()
    # the m^2 rotations' actions, act[k, l] the Kronecker product of the
    # shifts by 2 pi k/m and 2 pi l/m
    shifts = np.array([shift(2.0 * math.pi * k / m) for k in range(m)])
    act = kron(shifts[:, None], shifts[None, :])
    avg = np.zeros((size * size, size * size))
    for k, l, swap in zip(*group_elements(m)):
        avg += act[k, l][:, transpose] if swap else act[k, l]
    return avg / (2 * m * m)


def _spectrum_row(order, lam, error):
    """A row of jacobi_spectrum: eigenvalues lam, their index and nullity
    to within SPECTRUM_TOL."""
    return {"t": order, "area": error, "index": int(np.sum(lam < -SPECTRUM_TOL)),
            "nullity": int(np.sum(np.abs(lam) <= SPECTRUM_TOL)),
            "eigenvalues": [float(x) for x in lam]}


def jacobi_spectrum():
    """Criterion 6's report: the spectrum of the Jacobi operator of the
    middle torus, read off sheet_elements by second_variation.

    Q and M are diagonal on the Fourier modes, so each mode is an
    eigenfunction, of eigenvalue Q/M.  On the 25 modes |j|, |k| <= 2 the
    eigenvalues are 2(j^2 + k^2) - 4: index 5 and nullity 4 (Urbano).  On
    the orbit sums invariant under the order-2m^2 group of the doubled
    family, m = 2 and 3, from the modes |j|, |k| <= m, they are the
    eigenvalues of that diagonal on the range of the group average, which
    it leaves invariant: the equivariant index is 1, the nullity 0 and the
    gap, the second eigenvalue, 2m^2 - 4.  Each row's t is the group order
    (1 for the plain modes) and its area the largest eigenvalue error,
    against SPECTRUM_TOL; passed also requires index and nullity.
    """
    ratios = {d: np.divide(*second_variation(d)) for d in (2, 3)}
    j, k = mode_frequencies(2)
    lam = np.sort(ratios[2])
    target = np.sort(2.0 * (j * j + k * k) - 4.0)
    rows = [_spectrum_row(1, lam, float(np.max(np.abs(lam - target))))]
    for m in (2, 3):
        mu, vecs = np.linalg.eigh(_orbit_average(m, m))
        basis = vecs[:, mu > 0.5]   # the projector's eigenvalues are 0 and 1
        lam = np.linalg.eigvalsh(basis.T @ (ratios[m][:, None] * basis))
        gap = float(lam[1])
        error = max(abs(float(lam[0]) + 4.0), abs(gap - (2.0 * m * m - 4.0)))
        rows.append(dict(_spectrum_row(2 * m * m, lam, error), gap=gap))
    rep = make_report("jacobi-spectrum", {"tolerance": SPECTRUM_TOL}, rows, SPECTRUM_TOL)
    rep.summary["passed"] = rep.summary["passed"] and all(
        (row["index"], row["nullity"]) == ((5, 4) if row["t"] == 1 else (1, 0))
        for row in rep.rows
    )
    return rep


def fermi_tubes(h):
    """`fermi tubes`: two-sided tube family over the middle torus with one
    swap-symmetric puncture pair: every slice under the doubled base area,
    and the margin at least KAPPA_FLOOR * h^2.

    The margin, the budget 4*pi^2 less the sup, is read to about u =
    ulp(4*pi^2) = 2^-47.  Its h^2 part, near 75 h^2, can be judged only
    where KAPPA_FLOOR h^2 is at least 2 u, so h under TUBE_H_FLOOR =
    sqrt(2 u/KAPPA_FLOOR), about 5.3e-7, is refused."""
    check_offset("h", h)
    if h < TUBE_H_FLOOR:
        raise DomainError("--h must be at least %.2g, below which kappa reads the budget's"
                          " rounding, got h = %s" % (TUBE_H_FLOOR, h))
    pair = [(0.5 * math.pi, 1.5 * math.pi), (1.5 * math.pi, 0.5 * math.pi)]
    rep = two_sided_tube_family(pair, h)
    rep.summary["kappa_floor"] = KAPPA_FLOOR
    rep.summary["passed"] = rep.summary["passed"] and rep.summary["kappa"] >= KAPPA_FLOOR
    return rep


def doubling_sweep(m, n=None, epsilon=None, delta=None):
    """`doubling sweep`: the doubled family of symmetry order m under twice
    the middle torus area, with its witness slice of genus m^2 + 1 (Euler
    characteristic -2 m^2) whose mesh area is its row's within
    WITNESS_MESH_TOL.  epsilon and delta default to NeckSchedule's."""
    given = {k: v for k, v in (("epsilon", epsilon), ("delta", delta)) if v is not None}
    rep = assemble_doubled_sweepout(m, schedule=NeckSchedule(**given), n=n)
    s = rep.summary
    s["passed"] = (
        s["passed"]
        and s["regular_chi"] == -2 * m * m
        and abs(s["witness_mesh_rel_excess"]) <= WITNESS_MESH_TOL
    )
    return rep


def cutoff_disk(t):
    """`cutoff disk`: the log cutoff's Dirichlet energy on the flat unit
    disk against 2*pi/(-log t).

    The cutoff depends on the radius alone and is linear in log r between
    the rings of disk_rings_for_cutoff, so its energy
    2*pi*int eta'(r)^2 r dr is the ring sum 2*pi*sum (d eta)^2 / (d log r).
    """
    rings = disk_rings_for_cutoff(t)
    e = float(2.0 * math.pi * np.sum(np.diff(log_cutoff(rings, t)) ** 2 / np.diff(np.log(rings))))
    ref = 2.0 * math.pi / (-math.log(t))
    rows = [{"t": t, "area": abs(e / ref - 1.0), "energy": e, "reference": ref}]
    return make_report(
        "cutoff-disk", {"t": t, "tolerance": DISK_CUTOFF_TOL}, rows, DISK_CUTOFF_TOL
    )


def cutoff_torus(t):
    """`cutoff torus`: the Dirichlet energy of the doubled family's cutoff
    field on the middle torus against m^2 2*pi/(-log t), for each m of
    CUTOFF_ORDERS, within DISK_CUTOFF_TOL relative.

    The field is the log cutoff about each of the m^2 punctures, one at
    the centre of each symmetry cell, as the graph-neck rows take it.  Its
    gradient vanishes past the bands, so the energy is m^2 times one
    band's: the flat |grad f|^2 = 2 (f_theta^2 + f_phi^2) of band_field,
    over the flat area, half the chart area, on band_nodes, both orders in
    one band pass.  A band must fit in its cell, so t must stay below
    pi/(sqrt(2) max(CUTOFF_ORDERS)), and t^8 must be a normal double,
    since the squared partials divide by gap^4 > t^8.
    """
    check_cutoff_radius(t, 8)
    ref = 2.0 * math.pi / (-math.log(t))
    orders = np.array(CUTOFF_ORDERS)
    band = band_nodes(t, 0.0, math.pi / orders)
    _, f_theta2, f_phi2 = band_field(band.a, band.b, band.gap, np.ones(orders.size),
                                     np.full(orders.size, t))
    energies = np.sum(band.weight * (f_theta2 + f_phi2), axis=1)
    rows = []
    for m, energy in zip(CUTOFF_ORDERS, energies.tolist()):
        e = m * m * energy
        rows.append({"t": t, "m": m, "area": abs(e / (m * m * ref) - 1.0), "energy": e,
                     "reference": m * m * ref})
    return make_report("cutoff-torus", {"t": t, "orders": list(CUTOFF_ORDERS),
                                        "tolerance": DISK_CUTOFF_TOL}, rows, DISK_CUTOFF_TOL)


def neck_cost_coefficient(n):
    """B_n = (2/n)((n-1)/n)^(n-1), the peak neck cost over h^n.

    A tube through a radius-t hole of an n-dimensional hypersurface costs
    2 h t^(n-1) of wall and reclaims 2 t^n of sheet; the net cost peaks
    at t = (n-1) h/n, at B_n h^n.  For h <= 1 this never exceeds the
    second-variation gain h^2/2, and at n = 2 the two are equal."""
    return (2.0 / n) * ((n - 1) / n) ** (n - 1)


def neck_fit(n):
    """`neck fit`: the log-log slope of the peak neck cost B_n h^n over
    NECK_H_GRID against the dimension n.  For n >= 3 the cost loses to
    the h^2 gain; n = 2 is the deliberate negative control where both
    are the same order."""
    if int(n) != n or not 2 <= n <= 6:
        raise DomainError("dimension n must be an integer in [2, 6], got n = %s" % n)
    costs = [neck_cost_coefficient(n) * h ** n for h in NECK_H_GRID]
    slope = float(np.polyfit(np.log(NECK_H_GRID), np.log(costs), 1)[0])
    rows = [
        {
            "t": float(n),
            "area": abs(slope - float(n)),
            "exponent": slope,
            "target": float(n),
        }
    ]
    return make_report(
        "neck-fit", {"n": n, "tolerance": NECK_EXPONENT_TOL}, rows, NECK_EXPONENT_TOL
    )


@dataclass
class CriterionResult:
    index: int
    title: str
    ok: bool
    detail: str
    elapsed: float
    limit: float

    def line(self):
        tag = "PASS" if self.ok else "FAIL"
        return "[%2d] %s  %6.2fs  %s: %s" % (
            self.index, tag, self.elapsed, self.title, self.detail
        )


def _criterion_1():
    rep = catenoid_scan(1.0)
    s = rep.summary
    detail = "excess at most %.3f of the estimate over %d grid points, threshold %.3g" % (
        s["sup_area"], len(rep.rows), s["h_threshold"]
    )
    return s["passed"], detail


def _criterion_2():
    # On the unstable root x = h/c, cosh x = x*r/h gives x = log(2r/h) + log x
    # up to e^{-2x}, so the ratio c*(-log h)/h = L/x (L = -log h) creeps up to
    # 1 like L/(L + log(2rL)): 0.829 at h = 1e-8, first 0.9 at h = 1e-18.
    # The window is checked at the end of a grid deep enough to reach it, and
    # the approach rate is bound to that two-term law.
    r = 1.0
    grid = tuple(10.0 ** (-k) for k in range(1, 21))
    ratios = [unstable_neck(CatenoidSpec(r=r, h=h)) * (-math.log(h)) / h for h in grid]
    final = ratios[-1]
    in_range = NECK_RATIO_WINDOW[0] <= final <= NECK_RATIO_WINDOW[1]
    devs = [abs(x - 1.0) for x in ratios]
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    law_gap = 0.0
    for h, ratio in zip(grid, ratios):
        if h <= NECK_LAW_H:
            big_l = -math.log(h)
            law = big_l / (big_l + math.log(2.0 * r * big_l))
            law_gap = max(law_gap, abs(ratio / law - 1.0))
    follows_law = law_gap <= NECK_LAW_TOL
    ok = in_range and decreasing and follows_law
    detail = (
        "ratio %.8f at h=%.0e (range [%g, %g]: %s), |ratio-1| decreasing: %s, "
        "two-term law gap %.2e for h<=%.0e (tol %g)"
    ) % (
        final, grid[-1], *NECK_RATIO_WINDOW, "yes" if in_range else "NO",
        "yes" if decreasing else "NO", law_gap, NECK_LAW_H, NECK_LAW_TOL,
    )
    return ok, detail


def _criterion_3():
    # the excess over the two disks is what the estimate bounds
    reps = [width_run(1.0, h) for h in (0.3, 0.5)]
    ok = all(rep.summary["passed"] for rep in reps)
    detail = "width excess rel errors %.2e, %.2e (tol %g)" % (
        *(rep.summary["sup_area"] for rep in reps), WIDTH_EXCESS_TOL)
    return ok, detail


def _criterion_4():
    rep = width_excess()
    detail = "log-log slope %.4f (target 1.0 +- %g)" % (rep.rows[0]["slope"], EXCESS_SLOPE_TOL)
    return rep.summary["passed"], detail


def _criterion_5():
    rep = fermi_quad()
    coeffs = ", ".join("%.4f vs %.4f (rel %.2e)" % (row["coefficient"], row["target"], row["area"])
                       for row in rep.rows)
    return rep.summary["passed"], "quadratic coefficients %s; base area rel %.2e (tol %g)" % (
        coeffs, rep.summary["base_area_rel"], QUAD_TOL)


def _criterion_6():
    rep = jacobi_spectrum()
    plain, *groups = rep.rows
    parts = ["%d modes index %d nullity %d"
             % (len(plain["eigenvalues"]), plain["index"], plain["nullity"])]
    parts += ["order %d: index %d gap %.4f" % (row["t"], row["index"], row["gap"])
              for row in groups]
    return rep.summary["passed"], "%s; max eigenvalue error %.1e (tol %g)" % (
        ", ".join(parts), rep.summary["sup_area"], SPECTRUM_TOL)


def _criterion_7():
    disks = [cutoff_disk(t) for t in (1e-2, 1e-3)]
    torus = cutoff_torus(0.05)
    ok = all(rep.summary["passed"] for rep in disks + [torus])
    detail = "disk energy rel errors %.2e, %.2e; doubled fields on the torus %s (tol %g)" % (
        disks[0].summary["sup_area"], disks[1].summary["sup_area"],
        ", ".join("m=%d %.2e" % (row["m"], row["area"]) for row in torus.rows), DISK_CUTOFF_TOL,
    )
    return ok, detail


def _criterion_8():
    summaries = [fermi_tubes(h).summary for h in (0.02, 0.05)]
    ok = all(s["passed"] for s in summaries)
    detail = "sup under doubled budget and margin/h^2 = %.3f, %.3f over floor %g: %s" % (
        summaries[0]["kappa"], summaries[1]["kappa"], KAPPA_FLOOR, "yes" if ok else "NO"
    )
    return ok, detail


def _criterion_9():
    summaries = [(m, doubling_sweep(m).summary) for m in (2, 3)]
    ok = all(s["passed"] for _, s in summaries)
    detail = "; ".join(
        "m=%d margin %.3f chi %d/%d witness mesh excess %.1e"
        % (m, s["margin"], s["regular_chi"], -2 * m * m, s["witness_mesh_rel_excess"])
        for m, s in summaries
    )
    return ok, detail + " (tol %g)" % WITNESS_MESH_TOL


def _criterion_10():
    reps = [neck_fit(n) for n in (2, 3, 4, 5, 6)]
    ok = all(rep.summary["passed"] for rep in reps)
    detail = "exponent deviations %s (tol %g); n=2 control %.4f" % (
        ", ".join("%.2e" % rep.summary["sup_area"] for rep in reps[1:]), NECK_EXPONENT_TOL,
        reps[0].rows[0]["exponent"],
    )
    return ok, detail


_CRITERIA = (
    ("catenoid excess estimate on the halving grid", _criterion_1, 1.0),
    ("neck parameter asymptotic ratio", _criterion_2, 1.0),
    ("mountain-pass width vs closed form", _criterion_3, 120.0),
    ("naive vs optimal excess scaling", _criterion_4, 1.0),
    ("quadratic area coefficient on the middle torus", _criterion_5, 10.0),
    ("Jacobi spectrum: index, nullity, equivariant gap", _criterion_6, 30.0),
    ("log-cutoff energy decay", _criterion_7, 10.0),
    ("two-sided tube family margin", _criterion_8, 60.0),
    ("doubled sweepout budget", _criterion_9, 120.0),
    ("neck cost scaling exponents", _criterion_10, 1.0),
)


def run_criterion(index):
    """Run one criterion (1-based); the wall clock is part of the verdict,
    and a CatsweepError it raises is a FAIL naming the error."""
    title, fn, limit = _CRITERIA[index - 1]
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except CatsweepError as exc:
        ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
    elapsed = time.perf_counter() - start
    if elapsed >= limit:
        ok = False
        detail += " [exceeded %.0fs limit]" % limit
    return CriterionResult(
        index=index, title=title, ok=ok, detail=detail, elapsed=elapsed, limit=limit
    )


def run_all():
    return [run_criterion(i) for i in range(1, len(_CRITERIA) + 1)]

"""Command reports and the end-to-end verification battery.

Each command-line computation that the battery checks is one function
here returning that command's report: the command prints it, and the
criterion reads its tolerance off the same report, so `verify-all` and the
subcommands share one code path.  Criteria 2 and 6 have no command, and
criterion 9 reads the report of the doubled sweepout itself.  Every
criterion states its tolerance and wall-clock limit, and the runners
return structured results so both the test suite and the command line
can render one pass/fail line per criterion.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .catenoid import (
    HALVING_GRID,
    CatenoidSpec,
    asymptotic_ratio_scan,
    solve_parameters,
)
from .doubling import assemble_doubled_sweepout
from .errors import DomainError
from .fermi import (
    NormalGraphField,
    build_cutoff,
    cutoff_energy,
    graph_area_exact,
    jacobi_lowest,
    two_sided_tube_family,
)
from .mesh import level_set_perimeter, mesh_area
from .neckscaling import cost_exponent_fit
from .report import make_report
from .revolution import excess_scaling_comparison, mountain_pass_width
from .surfaces import clifford_torus, disk_rings_for_cutoff, flat_disk

WIDTH_TOL = 5e-3            # relative width error against the closed form
EXCESS_GRID = tuple(10.0 ** (-k) for k in range(2, 8))
EXCESS_SLOPE_TOL = 0.25     # log-log slope of naive over optimal excess, target 1
QUAD_TOL = 0.01             # quadratic area coefficient against -4*pi^2
KAPPA_FLOOR = 0.05          # tube-family margin / h^2
DISK_CUTOFF_TOL = 1e-6      # flat-disk cutoff energy against 2*pi/(-log t)
NECK_EXPONENT_TOL = 0.01    # fitted neck cost exponent against the dimension


def catenoid_scan(r):
    """`catenoid scan`: unstable area minus its budget on HALVING_GRID."""
    scan = asymptotic_ratio_scan(r, HALVING_GRID)
    rows = [
        {
            "t": row.h,
            "area": row.area_unstable - row.bound_value,
            "area_unstable": row.area_unstable,
            "bound_value": row.bound_value,
        }
        for row in scan.rows
    ]
    rep = make_report("catenoid-scan", {"r": r}, rows, 0.0)
    rep.summary["h_threshold"] = scan.bound_threshold()
    return rep


def width_run(r, h, tolerance):
    """`width run`: mountain-pass width against the unstable catenoid area."""
    if not tolerance > 0.0:
        raise DomainError("width tolerance must be positive, got tolerance = %s" % tolerance)
    ref = solve_parameters(CatenoidSpec(r=r, h=h)).area_unstable
    res = mountain_pass_width(r, h)
    rows = [
        {
            "t": h,
            "area": abs(res.width / ref - 1.0),
            "width": res.width,
            "reference_area": ref,
            "argmax_t": res.argmax_t,
            "iterations": res.iterations,
            "legs": res.legs,
            "newton_iterations": res.newton_iterations,
            "classify_calls": res.classify_calls,
            "morse_index": res.morse_index,
        }
    ]
    return make_report(
        "width-run", {"r": r, "h": h, "tolerance": tolerance}, rows, tolerance
    )


def width_excess(r):
    """`width excess`: naive vs optimal excess scaling slope on EXCESS_GRID."""
    comp = excess_scaling_comparison(r, EXCESS_GRID)
    rows = [{"t": 0.0, "area": abs(comp.slope - 1.0), "slope": comp.slope}]
    return make_report(
        "width-excess",
        {"r": r, "h_grid": list(EXCESS_GRID), "tolerance": EXCESS_SLOPE_TOL},
        rows,
        EXCESS_SLOPE_TOL,
    )


def fermi_quad(cl, step):
    """`fermi quad`: second difference of the exact graph area of the
    constant normal offset over the middle torus cl, against -4*pi^2."""
    if not step > 0.0:
        raise DomainError("finite-difference step must be positive, got step = %g" % step)
    ones = np.ones(cl.n_vertices)
    a0 = graph_area_exact(NormalGraphField(cl, ones, 0.0))
    ap = graph_area_exact(NormalGraphField(cl, ones, step))
    am = graph_area_exact(NormalGraphField(cl, ones, -step))
    coeff = 0.5 * (ap - 2.0 * a0 + am) / (step * step)
    target = -4.0 * math.pi ** 2
    rows = [
        {
            "t": step,
            "area": abs(coeff / target - 1.0),
            "coefficient": coeff,
            "target": target,
            "base_area": a0,
        }
    ]
    return make_report(
        "fermi-quad",
        {"n": cl.aux["grid_n"], "step": step, "tolerance": QUAD_TOL},
        rows,
        QUAD_TOL,
    )


def fermi_tubes(cl, h):
    """`fermi tubes`: two-sided tube family over the middle torus cl with
    one swap-symmetric puncture pair, and its margin rate against KAPPA_FLOOR."""
    n = cl.aux["grid_n"]
    p = n // 4 * n + 3 * n // 4
    p_swap = 3 * n // 4 * n + n // 4
    rep = two_sided_tube_family(cl, np.ones(cl.n_vertices), [p, p_swap], h)
    rep.summary["kappa_floor"] = KAPPA_FLOOR
    rep.summary["kappa_ok"] = bool(rep.summary["kappa"] >= KAPPA_FLOOR)
    return rep


def cutoff_disk(t):
    """`cutoff disk`: flat-disk cutoff energy against 2*pi/(-log t)."""
    dk = flat_disk(64, disk_rings_for_cutoff(t))
    e = cutoff_energy(build_cutoff(dk, 0, t))
    ref = 2.0 * math.pi / (-math.log(t))
    rows = [{"t": t, "area": abs(e / ref - 1.0), "energy": e, "reference": ref}]
    return make_report(
        "cutoff-disk", {"t": t, "tolerance": DISK_CUTOFF_TOL}, rows, DISK_CUTOFF_TOL
    )


def cutoff_torus(cl, t):
    """`cutoff torus`: cutoff energy on the middle torus cl against the
    bound D/(-log t), D fitted from level-set perimeters of the distance."""
    n = cl.aux["grid_n"]
    center = (n // 2) * n + n // 2
    cut = build_cutoff(cl, center, t)
    d_const = 2.0 * max(
        level_set_perimeter(cl, cut.dist, lam) / lam for lam in (0.2, 0.3, 0.5, 0.8)
    )
    e = cutoff_energy(cut)
    bound = d_const / (-math.log(t))
    rows = [
        {
            "t": t,
            "area": e / bound,
            "energy": e,
            "bound_value": bound,
            "d_constant": d_const,
        }
    ]
    return make_report("cutoff-torus", {"t": t, "n": n}, rows, 1.0)


def neck_fit(n):
    """`neck fit`: fitted neck cost exponent against the dimension n."""
    slope = cost_exponent_fit(n)
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
    worst = rep.summary["sup_area"]
    h0 = rep.summary["h_threshold"]
    ok = worst <= 0.0 and h0 >= HALVING_GRID[0]
    detail = "bound slack min %.3g over %d grid points, threshold %.3g" % (
        -worst, len(rep.rows), h0
    )
    return ok, detail


def _criterion_2():
    # On the unstable root x = h/c, cosh x = x*r/h gives x = log(2r/h) + log x
    # up to e^{-2x}, so the ratio c*(-log h)/h = L/x (L = -log h) creeps up to
    # 1 like L/(L + log(2rL)): 0.829 at h = 1e-8, first 0.9 at h = 1e-18.
    # The window is checked at the end of a grid deep enough to reach it, and
    # the approach rate is bound to that two-term law.
    r = 1.0
    grid = tuple(10.0 ** (-k) for k in range(1, 21))
    scan = asymptotic_ratio_scan(r, grid)
    ratios = [row.asymptotic_ratio for row in scan.rows]
    final = ratios[-1]
    in_range = 0.9 <= final <= 1.1
    devs = [abs(x - 1.0) for x in ratios]
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    law_gap = 0.0
    for h, ratio in zip(grid, ratios):
        if h <= 1e-8:
            big_l = -math.log(h)
            law = big_l / (big_l + math.log(2.0 * r * big_l))
            law_gap = max(law_gap, abs(ratio / law - 1.0))
    follows_law = law_gap <= 0.01
    ok = in_range and decreasing and follows_law
    detail = (
        "ratio %.8f at h=%.0e (range [0.9, 1.1]: %s), |ratio-1| decreasing: %s, "
        "two-term law gap %.2e for h<=1e-8 (tol 1e-2)"
    ) % (
        final, grid[-1], "yes" if in_range else "NO", "yes" if decreasing else "NO",
        law_gap,
    )
    return ok, detail


def _criterion_3():
    rels = [width_run(1.0, h, WIDTH_TOL).summary["sup_area"] for h in (0.3, 0.5)]
    ok = max(rels) <= WIDTH_TOL
    detail = "width rel errors %.2e, %.2e (tol 5e-3)" % tuple(rels)
    return ok, detail


def _criterion_4():
    rep = width_excess(1.0)
    ok = rep.summary["sup_area"] <= EXCESS_SLOPE_TOL
    detail = "log-log slope %.4f (target 1.0 +- 0.25)" % rep.rows[0]["slope"]
    return ok, detail


def _criterion_5():
    cl = clifford_torus(64)
    row = fermi_quad(cl, 0.05).rows[0]
    # the chart area, exact for the flat product metric; the report's
    # base_area is the geodesic triangle sum, 4e-4 above 2*pi^2 at n = 64
    rel_area = abs(mesh_area(cl) / (2.0 * math.pi ** 2) - 1.0)
    ok = row["area"] <= QUAD_TOL and rel_area <= 1e-4
    detail = "quadratic coefficient %.4f vs %.4f (rel %.2e, tol 1e-2); base area rel %.2e (tol 1e-4)" % (
        row["coefficient"], row["target"], row["area"], rel_area
    )
    return ok, detail


def _criterion_6():
    mu64 = jacobi_lowest(clifford_torus(64)).lowest_pair[0]
    mu128 = jacobi_lowest(clifford_torus(128)).lowest_pair[0]
    e64 = abs(mu64 + 4.0)
    e128 = abs(mu128 + 4.0)
    within = e64 / 4.0 <= 0.02
    # the discrete lowest pair is exact (constant eigenfunction, constant
    # potential), so both errors sit at the solver floor; a convergence
    # order is only measurable above that floor
    floor = 1e-9
    if e64 <= floor and e128 <= floor:
        order_ok = True
        order_note = "both errors at solver floor (%.1e, %.1e)" % (e64, e128)
    else:
        order = math.log2(max(e64, 1e-300) / max(e128, 1e-300))
        order_ok = order >= 1.8
        order_note = "refinement order %.2f" % order
    ok = within and order_ok
    detail = "lowest eigenvalue %.10f (rel err %.2e, tol 2e-2); %s" % (
        mu64, e64 / 4.0, order_note
    )
    return ok, detail


def _criterion_7():
    rels = [cutoff_disk(t).summary["sup_area"] for t in (1e-2, 1e-3)]
    row = cutoff_torus(clifford_torus(64), 0.05).rows[0]
    ok = max(rels) <= DISK_CUTOFF_TOL and row["energy"] <= row["bound_value"]
    detail = "disk energy rel errors %.2e, %.2e (tol 1e-6); torus energy %.4f <= %.4f" % (
        rels[0], rels[1], row["energy"], row["bound_value"]
    )
    return ok, detail


def _criterion_8():
    cl = clifford_torus(64)
    summaries = [fermi_tubes(cl, h).summary for h in (0.02, 0.05)]
    all_passed = all(s["passed"] for s in summaries)
    ok = all_passed and all(s["kappa_ok"] for s in summaries)
    detail = "sup under doubled budget: %s; margin/h^2 = %.3f, %.3f (floor 0.05)" % (
        "yes" if all_passed else "NO", summaries[0]["kappa"], summaries[1]["kappa"]
    )
    return ok, detail


def _criterion_9():
    parts = []
    ok = True
    for m in (2, 3):
        rep = assemble_doubled_sweepout(m)
        s = rep.summary
        want_chi = 2 - 2 * (m * m + 1)
        good = s["passed"] and s["margin"] > 0.0 and s["regular_chi"] == want_chi
        ok = ok and good
        parts.append(
            "m=%d margin %.3f chi %d/%d" % (m, s["margin"], s["regular_chi"], want_chi)
        )
    return ok, "; ".join(parts)


def _criterion_10():
    devs = [neck_fit(n).summary["sup_area"] for n in (3, 4, 5, 6)]
    control = neck_fit(2)
    ok = max(devs) <= NECK_EXPONENT_TOL and control.summary["sup_area"] <= NECK_EXPONENT_TOL
    detail = "exponent deviations %s (tol 0.01); n=2 control %.4f" % (
        ", ".join("%.2e" % d for d in devs), control.rows[0]["exponent"]
    )
    return ok, detail


_CRITERIA = (
    ("catenoid area bound on the halving grid", _criterion_1, 1.0),
    ("neck parameter asymptotic ratio", _criterion_2, 1.0),
    ("mountain-pass width vs closed form", _criterion_3, 120.0),
    ("naive vs optimal excess scaling", _criterion_4, 1.0),
    ("quadratic area coefficient on the middle torus", _criterion_5, 10.0),
    ("lowest stability eigenvalue", _criterion_6, 30.0),
    ("log-cutoff energy decay", _criterion_7, 10.0),
    ("two-sided tube family margin", _criterion_8, 60.0),
    ("doubled sweepout budget", _criterion_9, 120.0),
    ("neck cost scaling exponents", _criterion_10, 1.0),
)


def criterion_count():
    return len(_CRITERIA)


def run_criterion(index):
    """Run one criterion (1-based); the wall clock is part of the verdict."""
    title, fn, limit = _CRITERIA[index - 1]
    start = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - start
    if elapsed >= limit:
        ok = False
        detail += " [exceeded %.0fs limit]" % limit
    return CriterionResult(
        index=index, title=title, ok=ok, detail=detail, elapsed=elapsed, limit=limit
    )


def run_all():
    return [run_criterion(i) for i in range(1, len(_CRITERIA) + 1)]

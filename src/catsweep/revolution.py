"""One-parameter min-max over surfaces of revolution spanning two circles.

A path of profile curves runs from a pinched two-disk surrogate to the
stable catenoid; the mountain pass between those basins is the unstable
catenoid, whose area is the numerical width.  The saddle is located by a
two-phase scheme: bisection of the initial path against the basin boundary,
then edge tracking of a bracket pair along the separatrix of the area
descent flow until the pair settles onto the critical point.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .catenoid import CatenoidSpec, excess_over_disks, solve_parameters, tangency_abscissa
from .errors import DegenerateProfile, DomainError, NonConvergence
from .report import make_report

PINCH_FLOOR = 1e-4   # relative floor on profile radii, keeps the area integrand regular

# area descent and edge tracking
STEP0 = 0.25
STEP_MAX = 0.5
SEP_TARGET = 2e-3      # pair separation (relative to r) triggering re-bracketing
DIP_TOL = 1e-8         # flow-speed norm below which the saddle counts as reached
MAX_LEGS = 200
MAX_LEG_ITERS = 30000
CLASSIFY_ITERS = 20000


@dataclass(frozen=True)
class ProfileCurve:
    """Radial profile sampled on a uniform grid over the axis interval."""

    x_nodes: np.ndarray
    f_values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_nodes, dtype=float)
        f = np.asarray(self.f_values, dtype=float)
        if x.ndim != 1 or x.shape != f.shape or x.size < 3:
            raise DomainError("profile needs matching 1-d node and value arrays")
        steps = np.diff(x)
        if steps[0] <= 0 or np.any(np.abs(steps - steps[0]) > 1e-12 * abs(steps[0])):
            raise DomainError("profile grid must be uniform and increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
            raise DomainError("profile contains non-finite entries")
        object.__setattr__(self, "x_nodes", x)
        object.__setattr__(self, "f_values", f)

    @property
    def dx(self):
        return float(self.x_nodes[1] - self.x_nodes[0])


def _frustum_geometry(f, dx):
    # the polyline profile swept around the axis: one cone frustum per
    # interval, pi * (f_i + f_{i+1}) * slant; returns the area with the
    # per-interval radius change, slant and radius sum it was built from
    df = f[1:] - f[:-1]
    slant = np.sqrt(dx * dx + df * df)
    s = f[:-1] + f[1:]
    return float(np.pi * (s * slant).sum()), df, slant, s


def _frustum_area(f, dx):
    return _frustum_geometry(f, dx)[0]


def revolution_area(p):
    """Surface area of the profile of revolution, swept as a polyline.

    Each grid interval contributes the lateral area of its cone frustum;
    exact on piecewise-linear profiles and second-order accurate on smooth
    ones.  This is the area the width engine descends.
    """
    if np.any(p.f_values < 0.0):
        raise DegenerateProfile("negative radius in profile")
    return _frustum_area(p.f_values, p.dx)


def catenoid_profile(r, h, c, n_nodes=201):
    x = np.linspace(-h, h, n_nodes)
    f = c * np.cosh(x / c)
    f[0] = r
    f[-1] = r
    return ProfileCurve(x_nodes=x, f_values=f)


def pinched_profile(r, h, n_nodes=201):
    """Two-disk surrogate: boundary radii r, interior collapsed to the pinch floor."""
    x = np.linspace(-h, h, n_nodes)
    f = np.full(n_nodes, PINCH_FLOOR * r)
    f[0] = r
    f[-1] = r
    return ProfileCurve(x_nodes=x, f_values=f)


@dataclass(frozen=True)
class RevolutionPath:
    slices: tuple

    def __post_init__(self):
        if len(self.slices) < 2:
            raise DomainError("a path needs at least two slices")
        x0 = self.slices[0].x_nodes
        for p in self.slices[1:]:
            if p.x_nodes.shape != x0.shape or np.any(p.x_nodes != x0):
                raise DomainError("all slices must share one node grid")


def initial_path(r, h, n_nodes=201, n_slices=41):
    """Straight-line interpolation from the pinched surrogate to the stable catenoid."""
    sol = solve_parameters(CatenoidSpec(r=r, h=h))
    a = pinched_profile(r, h, n_nodes).f_values
    b = catenoid_profile(r, h, sol.c_stable, n_nodes).f_values
    x = np.linspace(-h, h, n_nodes)
    slices = []
    for t in np.linspace(0.0, 1.0, n_slices):
        f = (1.0 - t) * a + t * b
        f[0] = r
        f[-1] = r
        slices.append(ProfileCurve(x_nodes=x, f_values=f))
    return RevolutionPath(slices=tuple(slices))


@dataclass(frozen=True)
class WidthResult:
    width: float
    argmax_t: float
    profile_at_max: ProfileCurve
    iterations: int
    residual: float       # flow-speed norm at the returned profile
    classify_calls: int   # basin classifications the saddle search ran


class _Descent:
    """Preconditioned area descent of profiles on one uniform grid.

    The descent direction is the area gradient smoothed by an inverse
    Sobolev operator (I - d^2/dx^2), which equalizes time scales across
    node frequencies; the raw node gradient carries a factor dx that is
    divided out so step sizes mean the same thing at every resolution.
    The operator is constant, so it is LU-factored once (LAPACK dgttrf)
    and each step only back-substitutes (dgttrs); this is the elimination a
    banded gtsv solve would redo on every step, with the same results.

    A state is a profile with its geometry `(area, df, slant, s)`: a
    step reuses the geometry its accepted trial computed for the area.
    """

    def __init__(self, dx, n_nodes, r):
        if n_nodes < 5:
            # scipy's dgttrf wrapper needs at least 3 unknowns
            raise DomainError("descent needs at least 5 grid nodes, got n = %d" % n_nodes)
        self.dx = dx
        self.floor = PINCH_FLOOR * r
        off = np.full(n_nodes - 3, -1.0 / dx ** 2)
        diag = np.full(n_nodes - 2, 1.0 + 2.0 / dx ** 2)
        # strictly diagonally dominant, so no pivot vanishes (info is 0)
        *self.lu, _ = dgttrf(off, diag, off)
        self.steps_taken = 0

    def area(self, f):
        return _frustum_area(f, self.dx)

    def geometry(self, f):
        return _frustum_geometry(f, self.dx)

    def direction(self, geo):
        _, df, slant, s = geo
        q = s * df / slant
        g = np.pi * (slant - q)[1:] + np.pi * (slant + q)[:-1]
        return dgttrs(*self.lu, g / self.dx)[0]

    def step(self, f, geo, st):
        # backtracking guard: never accept an area increase
        d = self.direction(geo)
        self.steps_taken += 1
        a = geo[0]
        for _ in range(60):
            fn = f.copy()
            np.subtract(f[1:-1], st * d, out=fn[1:-1])
            np.maximum(fn, self.floor, out=fn)
            geo_n = self.geometry(fn)
            if geo_n[0] <= a:
                return fn, geo_n, min(st * 1.3, STEP_MAX), d, True
            st *= 0.5
        return f, geo, st, d, False


class _WidthEngine(_Descent):
    """Area descent plus the two basins and separatrix edge tracking."""

    def __init__(self, r, h, n_nodes):
        self.x = np.linspace(-h, h, n_nodes)
        super().__init__(self.x[1] - self.x[0], n_nodes, r)
        self.r = r
        sol = solve_parameters(CatenoidSpec(r=r, h=h))
        self.mid = n_nodes // 2
        self.stable = sol.c_stable * np.cosh(self.x / sol.c_stable)
        self.stable[0] = r
        self.stable[-1] = r
        # basin thresholds: h/x_tangent bounds the unstable neck from above,
        # so the midpoint against c_stable cannot fire during a saddle linger
        self.neck_floor = max(2.0 * self.floor, 1e-3 * r)
        self.neck_stable = 0.5 * (h / tangency_abscissa() + sol.c_stable)
        self.gate_lo = 0.5 * sol.c_unstable
        self.gate_hi = 0.5 * (sol.c_unstable + sol.c_stable)
        self.classify_calls = 0

    def classify(self, f):
        """Which basin a state falls into: -1 pinched floor, +1 stable catenoid."""
        self.classify_calls += 1
        geo = self.geometry(f)
        st = STEP0
        neck_prev = f[self.mid]
        for _ in range(CLASSIFY_ITERS):
            f, geo, st, d, moved = self.step(f, geo, st)
            if not moved:
                if np.max(np.abs(f - self.stable)) < 0.05 * self.r:
                    return 1
                raise NonConvergence("descent stalled away from both basins")
            neck = f[self.mid]
            if neck <= self.neck_floor:
                return -1
            if neck >= self.neck_stable and neck > neck_prev:
                return 1
            neck_prev = neck
        raise NonConvergence("basin classification exceeded its iteration cap")

    def run(self, path):
        profiles = [p.f_values.copy() for p in path.slices]
        for f in profiles:
            if abs(f[0] - self.r) > 1e-12 * self.r or abs(f[-1] - self.r) > 1e-12 * self.r:
                raise DomainError("path slices must pin boundary radii to r")
        # arc-length parametrization of the path polyline; duplicate slices
        # contribute zero length and so do not move the parametrization
        diffs = [np.linalg.norm(b - a) for a, b in zip(profiles, profiles[1:])]
        cum = np.concatenate([[0.0], np.cumsum(diffs)])
        if cum[-1] <= 0.0:
            raise DomainError("path is a single point")
        cum /= cum[-1]

        def at(t):
            k = int(np.searchsorted(cum, t, side="right")) - 1
            k = min(max(k, 0), len(profiles) - 2)
            width_k = cum[k + 1] - cum[k]
            lam = 0.0 if width_k == 0.0 else (t - cum[k]) / width_k
            f = (1.0 - lam) * profiles[k] + lam * profiles[k + 1]
            f[0] = self.r
            f[-1] = self.r
            return f

        lo, hi = 0.0, 1.0
        if self.classify(at(lo)) != -1 or self.classify(at(hi)) != 1:
            raise NonConvergence(
                "path endpoints must fall into the pinched and stable basins"
            )
        for _ in range(80):
            if hi - lo < 5e-17:
                break
            mid = 0.5 * (lo + hi)
            if self.classify(at(mid)) == -1:
                lo = mid
            else:
                hi = mid
        argmax_t = 0.5 * (lo + hi)

        f_a, f_b = at(lo), at(hi)
        sep = SEP_TARGET * self.r
        best_dn = np.inf
        best_area = np.nan
        best_profile = None
        for _ in range(MAX_LEGS):
            geo_a, geo_b = self.geometry(f_a), self.geometry(f_b)
            st_a = st_b = STEP0
            done = False
            same_side = False
            for _ in range(MAX_LEG_ITERS):
                f_a, geo_a, st_a, d_a, ok_a = self.step(f_a, geo_a, st_a)
                f_b, geo_b, st_b, d_b, ok_b = self.step(f_b, geo_b, st_b)
                dn = math.sqrt(float((d_a * d_a).sum()) * self.dx)
                eligible = self.gate_lo < f_a[self.mid] < self.gate_hi
                if eligible and dn < best_dn:
                    best_dn = dn
                    best_area = geo_a[0]
                    best_profile = f_a.copy()
                if np.max(np.abs(f_a - f_b)) > sep:
                    break
                if eligible and dn < DIP_TOL:
                    done = True
                    break
                if not ok_a and not ok_b:
                    same_side = True  # both stalled without separating
                    break
            if done or same_side:
                break
            lam_lo, lam_hi = 0.0, 1.0
            try:
                for _ in range(54):
                    lam = 0.5 * (lam_lo + lam_hi)
                    if self.classify((1.0 - lam) * f_a + lam * f_b) == -1:
                        lam_lo = lam
                    else:
                        lam_hi = lam
            except NonConvergence:
                break  # keep the best dip seen so far
            f_a, f_b = (
                (1.0 - lam_lo) * f_a + lam_lo * f_b,
                (1.0 - lam_hi) * f_a + lam_hi * f_b,
            )
        if best_profile is None or best_dn > 1e-4:
            raise NonConvergence(
                "max-slice area failed to stabilize (residual %.2e)" % best_dn
            )
        return best_area, argmax_t, best_profile, best_dn


def mountain_pass_width(r, h, path0=None):
    """Saddle area of the two-circle problem found from an actual sweep.

    The initial path must connect the two stable competitors; the returned
    width matches the closed-form unstable catenoid area to the engine's
    discretization error, with the realizing profile attached.
    """
    if path0 is None:
        path0 = initial_path(r, h)
    n_nodes = path0.slices[0].x_nodes.size
    span = path0.slices[0].x_nodes
    if abs(span[0] + h) > 1e-12 or abs(span[-1] - h) > 1e-12:
        raise DomainError("path slices must span [-h, h]")
    engine = _WidthEngine(r, h, n_nodes)
    endpoint_areas = (engine.area(path0.slices[0].f_values), engine.area(path0.slices[-1].f_values))
    width, argmax_t, profile, residual = engine.run(path0)
    if width < max(endpoint_areas):
        raise NonConvergence("width fell below an endpoint area; path degenerated")
    return WidthResult(
        width=width,
        argmax_t=argmax_t,
        profile_at_max=ProfileCurve(x_nodes=engine.x.copy(), f_values=profile),
        iterations=engine.steps_taken,
        residual=residual,
        classify_calls=engine.classify_calls,
    )


def descend_profile(p, r, steps):
    """Expose single-profile area descent; returns (profile, per-step areas).

    The pinch floor scales with r; no catenoid need span the profile's ends.
    """
    descent = _Descent(p.dx, p.x_nodes.size, r)
    f = p.f_values.copy()
    geo = descent.geometry(f)
    st = STEP0
    areas = [geo[0]]
    for _ in range(steps):
        f, geo, st, _, _ = descent.step(f, geo, st)
        areas.append(geo[0])
    return ProfileCurve(x_nodes=p.x_nodes.copy(), f_values=f), areas


def naive_sweepout(r, h, t_grid=None):
    """Family cutting growing disks out of the two end disks, joined by a cylinder.

    Slice t carries two annuli (radii t to r) plus a radius-t cylinder of
    height 2h; the maximal excess over 2*pi*r^2 is 2*pi*h^2, at t = h.
    """
    if t_grid is None:
        t_grid = np.linspace(0.0, r, 401)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0) or np.any(t_grid > r):
        raise DomainError("cut radii must lie in [0, r]")
    rows = []
    for t in t_grid:
        annuli = 2.0 * (np.pi * r * r - np.pi * t * t)
        cylinder = 2.0 * np.pi * t * 2.0 * h
        rows.append(
            {
                "t": float(t),
                "area": float(annuli + cylinder),
                "annuli": float(annuli),
                "cylinder": float(cylinder),
            }
        )
    budget = 2.0 * np.pi * r * r + 2.0 * np.pi * h * h
    return make_report(
        command="naive-sweepout",
        params={"r": float(r), "h": float(h), "n_t": int(t_grid.size)},
        rows=rows,
        budget=budget * (1.0 + 1e-12),  # closed-form max is attained on the grid
    )


@dataclass(frozen=True)
class ExcessRow:
    h: float
    naive_excess: float
    optimal_excess: float
    ratio: float


@dataclass(frozen=True)
class ExcessComparison:
    r: float
    rows: tuple
    slope: float


def excess_scaling_comparison(r, h_grid):
    """Naive 2*pi*h^2 excess against the true saddle excess, with a slope fit.

    The ratio grows like a multiple of -log h; the fit regresses log(ratio)
    on log(-log h), so a slope near 1 confirms the logarithmic gain.
    """
    rows = []
    lognl = []
    logratio = []
    for h in h_grid:
        sol = solve_parameters(CatenoidSpec(r=r, h=float(h)))
        naive = 2.0 * math.pi * h * h
        optimal = excess_over_disks(r, float(h), sol.c_unstable)
        rows.append(
            ExcessRow(h=float(h), naive_excess=naive, optimal_excess=optimal, ratio=naive / optimal)
        )
        lognl.append(math.log(-math.log(h)))
        logratio.append(math.log(naive / optimal))
    slope = float(np.polyfit(lognl, logratio, 1)[0])
    return ExcessComparison(r=float(r), rows=tuple(rows), slope=slope)

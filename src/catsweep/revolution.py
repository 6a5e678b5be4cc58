"""One-parameter min-max over surfaces of revolution spanning two circles.

A path of profile curves runs from a pinched two-disk surrogate to the
stable catenoid; the mountain pass between those basins is the unstable
catenoid, whose area is the numerical width.  The initial path is bisected
against the basin boundary; a bracket pair straddling that boundary then
tracks the separatrix of the area descent flow, one leg at a time.  After
each leg, Newton's method on the exact tridiagonal Hessian of the frustum
area runs from the stable-side member of the pair.  It is damped: a step is
halved until the radii stay above the pinch floor and the merit |g|^2 of
the area gradient g decreases, which the Newton direction guarantees for
small enough steps even though the Hessian is indefinite.  Its limit is
accepted only with a mountain-pass certificate: the Hessian has exactly one
negative eigenvalue (a Sturm count of its pivots), and a nudge along that
eigenvector falls into the pinched basin one way and the stable basin the
other.  The width is the area of that certified index-1 critical point.

A basin classification stops on the stable side as soon as the area falls
below 2*pi*(r^2 - e^2), e the pinch threshold of the neck: by the frustum
bound pi*(a+b)*slant >= pi*|b^2 - a^2|, no profile with a radius <= e has
less area, and the descent never raises it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs

from .catenoid import CatenoidSpec, excess_over_disks, solve_parameters, tangency_abscissa
from .errors import DegenerateProfile, DomainError, NonConvergence

PINCH_FLOOR = 1e-4   # relative floor on profile radii, keeps the area integrand regular

# area descent and edge tracking
STEP0 = 0.25
STEP_MAX = 0.5
SEP_TARGET = 2e-3      # pair separation (relative to r) triggering re-bracketing
MAX_LEGS = 200
MAX_LEG_ITERS = 30000
CLASSIFY_ITERS = 20000
HALVINGS = 60          # step halvings before a descent or Newton step gives up

# Newton saddle and its certificate
NEWTON_ITERS = 30
NEWTON_RTOL = 1e-10    # last step (sup norm) relative to the profile's sup norm
CERT_NUDGE = 1e-2      # certificate nudge along the negative eigenvector, relative to the neck


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
    iterations: int        # area descent steps, basin classifications included
    backtracks: int        # step halvings: descent backtracking plus Newton damping
    residual: float        # L2 norm of the area gradient density at the saddle
    classify_calls: int    # basin classifications the saddle search ran
    morse_index: int       # negative Hessian eigenvalues at the saddle
    legs: int              # edge-tracking legs run before the certificate held
    newton_iterations: int # Newton steps over every attempt, failed ones included


def _negative_pivots(diag, off):
    """Sturm count of a symmetric tridiagonal matrix: its negative eigenvalues.

    By Sylvester's law of inertia these are the negative pivots of the
    unpivoted LDL^T factorization, d_k = a_k - b_{k-1}^2 / d_{k-1}.  A pivot
    that vanishes exactly is replaced by the smallest normal number, as
    LAPACK's bisection does, so it counts as positive.
    """
    count = 0
    d = 1.0
    for a, b in zip(diag.tolist(), [0.0] + off.tolist()):
        d = a - b * b / d
        if d == 0.0:
            d = np.finfo(float).tiny
        count += d < 0.0
    return count


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
        self.newton_iterations = 0
        self.backtracks = 0

    def area(self, f):
        return _frustum_area(f, self.dx)

    def geometry(self, f):
        return _frustum_geometry(f, self.dx)

    def gradient(self, geo):
        """Area gradient with respect to the interior radii."""
        _, df, slant, s = geo
        q = s * df / slant
        return np.pi * (slant - q)[1:] + np.pi * (slant + q)[:-1]

    def hessian(self, geo):
        """Exact area Hessian on the interior radii: (diagonal, off-diagonal).

        A frustum with end radii a, b couples only those two, with
        h_aa = pi*(-2*df/l + s*dx^2/l^3), h_bb = pi*(2*df/l + s*dx^2/l^3) and
        h_ab = -pi*s*dx^2/l^3, where df = b - a, l is the slant and s = a + b.
        """
        _, df, slant, s = geo
        t = np.pi * s * self.dx ** 2 / slant ** 3
        u = 2.0 * np.pi * df / slant
        return (t + u)[:-1] + (t - u)[1:], -t[1:-1]

    def newton(self, f):
        """Damped Newton's method on the area gradient from f, pinned ends fixed.

        Each step solves with the indefinite Hessian (LAPACK dgttrf with
        partial pivoting, then dgttrs).  A full step whose sup norm is at
        most NEWTON_RTOL times the profile's sup norm is the converged one.
        Otherwise the step is halved until the radii stay above the pinch
        floor and the merit |g|^2 decreases: the Newton direction -H^-1 g
        descends the merit even where H is indefinite, since the merit's
        slope along it is -2|g|^2.  Returns the critical profile, or None
        when a pivot vanishes, HALVINGS halvings find no such step or the
        steps do not settle within NEWTON_ITERS.
        """
        geo = self.geometry(f)
        g = self.gradient(geo)
        merit = float(g @ g)
        for _ in range(NEWTON_ITERS):
            self.newton_iterations += 1
            diag, off = self.hessian(geo)
            *lu, info = dgttrf(off, diag, off)
            if info != 0:
                return None
            delta = dgttrs(*lu, g)[0]
            fn = f.copy()
            fn[1:-1] -= delta
            if fn.min() > self.floor and np.max(np.abs(delta)) <= NEWTON_RTOL * np.max(fn):
                return fn
            for _ in range(HALVINGS):
                if fn.min() > self.floor:  # also rejects NaN
                    geo_n = self.geometry(fn)
                    g_n = self.gradient(geo_n)
                    merit_n = float(g_n @ g_n)
                    if merit_n < merit:
                        break
                self.backtracks += 1
                delta *= 0.5
                fn = f.copy()
                fn[1:-1] -= delta
            else:
                return None
            f, geo, g, merit = fn, geo_n, g_n, merit_n
        return None

    def step(self, f, geo, st):
        # backtracking guard: never accept an area increase
        d = dgttrs(*self.lu, self.gradient(geo) / self.dx)[0]
        self.steps_taken += 1
        a = geo[0]
        for _ in range(HALVINGS):
            fn = f.copy()
            np.subtract(f[1:-1], st * d, out=fn[1:-1])
            np.maximum(fn, self.floor, out=fn)
            geo_n = self.geometry(fn)
            if geo_n[0] <= a:
                return fn, geo_n, min(st * 1.3, STEP_MAX), True
            self.backtracks += 1
            st *= 0.5
        return f, geo, st, False


class _WidthEngine(_Descent):
    """Area descent plus the two basins, separatrix edge tracking and the
    certified Newton saddle."""

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
        # the frustum bound (module docstring): below this area no radius can
        # reach neck_floor again; the factor absorbs the area's rounding
        self.no_pinch_area = 2.0 * np.pi * (r * r - self.neck_floor ** 2) * (1.0 - 1e-12)
        self.classify_calls = 0

    def classify(self, f):
        """Which basin a state falls into: -1 pinched floor, +1 stable catenoid."""
        self.classify_calls += 1
        geo = self.geometry(f)
        st = STEP0
        neck_prev = f[self.mid]
        for _ in range(CLASSIFY_ITERS):
            f, geo, st, moved = self.step(f, geo, st)
            if not moved:
                if np.max(np.abs(f - self.stable)) < 0.05 * self.r:
                    return 1
                raise NonConvergence("descent stalled away from both basins")
            neck = f[self.mid]
            if neck <= self.neck_floor:
                return -1
            if geo[0] < self.no_pinch_area:
                return 1
            if neck >= self.neck_stable and neck > neck_prev:
                return 1
            neck_prev = neck
        raise NonConvergence("basin classification exceeded its iteration cap")

    def bisect(self, profile_at):
        """Bisect [0, 1] against the basin boundary along profile_at(t).

        profile_at(0) is pinched-side and profile_at(1) stable-side; returns
        the bracket (lo, hi) once they are adjacent doubles, when the
        midpoint rounds to one of them, so no parameter is classified twice.
        """
        lo, hi = 0.0, 1.0
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                return lo, hi
            if self.classify(profile_at(mid)) == -1:
                lo = mid
            else:
                hi = mid

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

        if self.classify(at(0.0)) != -1 or self.classify(at(1.0)) != 1:
            raise NonConvergence(
                "path endpoints must fall into the pinched and stable basins"
            )
        lo, hi = self.bisect(at)
        argmax_t = 0.5 * (lo + hi)

        f_a, f_b = at(lo), at(hi)
        sep = SEP_TARGET * self.r
        for leg in range(1, MAX_LEGS + 1):
            geo_a, geo_b = self.geometry(f_a), self.geometry(f_b)
            st_a = st_b = STEP0
            stalled = False
            for _ in range(MAX_LEG_ITERS):
                f_a, geo_a, st_a, ok_a = self.step(f_a, geo_a, st_a)
                f_b, geo_b, st_b, ok_b = self.step(f_b, geo_b, st_b)
                if np.max(np.abs(f_a - f_b)) > sep:
                    break
                if not ok_a and not ok_b:
                    stalled = True  # both stalled without separating
                    break
            saddle = self.newton(f_b)
            if saddle is not None:
                geo = self.geometry(saddle)
                index = self.certify(saddle, geo)
                if index is not None:
                    return saddle, geo, argmax_t, index, leg
            if stalled:
                raise NonConvergence(
                    "bracket pair stalled on leg %d with no certified saddle" % leg
                )
            lam_lo, lam_hi = self.bisect(lambda lam: (1.0 - lam) * f_a + lam * f_b)
            f_a, f_b = (
                (1.0 - lam_lo) * f_a + lam_lo * f_b,
                (1.0 - lam_hi) * f_a + lam_hi * f_b,
            )
        raise NonConvergence("no certified index-1 saddle within %d legs" % MAX_LEGS)

    def certify(self, f, geo):
        """Mountain-pass certificate of the critical profile f.

        Returns its Morse index when that is 1 and f separates the basins:
        f - eps*v descends to the pinched floor and f + eps*v to the stable
        catenoid, v the negative eigenvector (sup norm 1, widening the neck).
        Returns None otherwise.
        """
        diag, off = self.hessian(geo)
        index = _negative_pivots(diag, off)
        if index != 1:
            return None
        v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[1][:, 0]
        v /= v[np.argmax(np.abs(v))]
        if v[self.mid - 1] < 0.0:
            v = -v
        nudge = np.zeros_like(f)
        nudge[1:-1] = CERT_NUDGE * f.min() * v
        below, above = f - nudge, f + nudge
        if self.classify(below) != -1 or self.classify(above) != 1:
            return None
        return index


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
    profile, geo, argmax_t, index, legs = engine.run(path0)
    if geo[0] < max(endpoint_areas):
        raise NonConvergence("width fell below an endpoint area; path degenerated")
    # the gradient per unit length is the discrete first variation, so its
    # L2 norm is comparable across resolutions
    g = engine.gradient(geo)
    return WidthResult(
        width=geo[0],
        argmax_t=argmax_t,
        profile_at_max=ProfileCurve(x_nodes=engine.x.copy(), f_values=profile),
        iterations=engine.steps_taken,
        backtracks=engine.backtracks,
        residual=math.sqrt(float(g @ g) / engine.dx),
        classify_calls=engine.classify_calls,
        morse_index=index,
        legs=legs,
        newton_iterations=engine.newton_iterations,
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
        f, geo, st, _ = descent.step(f, geo, st)
        areas.append(geo[0])
    return ProfileCurve(x_nodes=p.x_nodes.copy(), f_values=f), areas


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

    The naive family cuts radius-t disks out of both end disks and joins
    them by a cylinder: its area 2*pi*r^2 + 4*pi*h*t - 2*pi*t^2 peaks at
    t = h, with excess 2*pi*h^2.  The ratio grows like a multiple of
    -log h; the fit regresses log(ratio) on log(-log h), so a slope near 1
    confirms the logarithmic gain.
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

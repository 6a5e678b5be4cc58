"""One-parameter min-max over surfaces of revolution spanning two circles.

The sweep is the straight segment of profile curves from a pinched
two-disk surrogate to the stable catenoid; the mountain pass between
those basins is the unstable catenoid, whose area is the numerical width.
Newton's method on the exact tridiagonal Hessian of the frustum area
runs from the largest of the areas sampled at SWEEP_T on the segment.
It is damped: a step is halved until the radii stay above the pinch floor
and the merit |g|^2 of the area gradient g decreases, which the Newton
direction guarantees for small enough steps even though the Hessian is
indefinite.  Its limit is accepted only with a mountain-pass
certificate: the Hessian has exactly one negative eigenvalue (a Sturm
count of its pivots), and a nudge along that eigenvector descends into
the pinched basin one way and the stable basin the other.  The width is
the area of that certified index-1 critical point; it is checked against
the sampled maximum, since the segment is itself a sweepout whose largest
area bounds the width.  When Newton's method, the certificate or a check
fails, no width is reported.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs

from .catenoid import CatenoidSpec, solve_parameters, tangency_abscissa
from .errors import DomainError, NonConvergence

PINCH_FLOOR = 1e-4   # relative floor on profile radii, keeps the area integrand regular

# area descent and basin classification
STEP0 = 0.25
STEP_MAX = 0.5
CLASSIFY_ITERS = 20000
HALVINGS = 60          # step halvings before a descent or Newton step gives up

# Newton saddle and its certificate
NEWTON_ITERS = 30
NEWTON_RTOL = 1e-10    # last step (sup norm) relative to the profile's sup norm
CERT_NUDGE = 1e-2      # certificate nudge along the negative eigenvector, relative to the neck

# where the area is sampled on the segment: uniform, plus geometric toward
# the pinched end, where the maximum sits once h is small
SWEEP_T = np.union1d(np.linspace(0.0, 1.0, 17), np.geomspace(1e-6, 1.0, 25))


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
class WidthResult:
    width: float
    argmax_t: float        # the sample of SWEEP_T with the largest area, Newton's start
    sweep_max: float       # that largest sampled area, a lower bound of the segment's maximum
    profile_at_max: ProfileCurve
    iterations: int        # area descent steps, basin classifications included
    backtracks: int        # step halvings: descent backtracking plus Newton damping
    residual: float        # L2 norm of the area gradient density at the saddle
    classify_calls: int    # basin classifications the saddle search ran
    morse_index: int       # negative Hessian eigenvalues at the saddle
    newton_iterations: int # Newton steps of the saddle solve


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


class _WidthEngine:
    """Area descent, the two basins and the certified Newton saddle of the
    circles of radius 1 at heights +-h, that is, in units of r.

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

    def __init__(self, h, n_nodes):
        sol = solve_parameters(CatenoidSpec(r=1.0, h=h))
        pinched = pinched_profile(1.0, h, n_nodes)
        self.x = pinched.x_nodes
        self.dx = pinched.dx
        self.pinched = pinched.f_values
        self.stable = catenoid_profile(1.0, h, sol.c_stable, n_nodes).f_values
        self.where = "h/r = %s" % h
        self.floor = PINCH_FLOOR
        off = np.full(n_nodes - 3, -1.0 / self.dx ** 2)
        diag = np.full(n_nodes - 2, 1.0 + 2.0 / self.dx ** 2)
        # strictly diagonally dominant, so no pivot vanishes (info is 0)
        *self.lu, _ = dgttrf(off, diag, off)
        self.mid = n_nodes // 2
        # basin thresholds: h/x_tangent bounds the unstable neck from above,
        # so the midpoint against c_stable cannot fire during a saddle linger
        self.neck_floor = max(2.0 * self.floor, 1e-3)
        self.neck_stable = 0.5 * (h / tangency_abscissa() + sol.c_stable)
        self.steps_taken = 0
        self.newton_iterations = 0
        self.backtracks = 0
        self.classify_calls = 0

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

    def classify(self, f):
        """Which basin a state falls into: -1 pinched floor, +1 stable catenoid."""
        self.classify_calls += 1
        geo = self.geometry(f)
        st = STEP0
        neck_prev = f[self.mid]
        for _ in range(CLASSIFY_ITERS):
            f, geo, st, moved = self.step(f, geo, st)
            if not moved:
                if np.max(np.abs(f - self.stable)) < 0.05:
                    return 1
                raise NonConvergence("descent stalled away from both basins at %s" % self.where)
            neck = f[self.mid]
            if neck <= self.neck_floor:
                return -1
            if neck >= self.neck_stable and neck > neck_prev:
                return 1
            neck_prev = neck
        raise NonConvergence(
            "basin classification exceeded its iteration cap at %s" % self.where
        )

    def at(self, t):
        """The profile at t on the straight segment from pinched to stable."""
        f = (1.0 - t) * self.pinched + t * self.stable
        f[0] = 1.0
        f[-1] = 1.0
        return f

    def run(self):
        """The certified saddle: (profile, geometry, argmax_t, sweep_max, Morse index)."""
        if self.classify(self.pinched) != -1 or self.classify(self.stable) != 1:
            raise NonConvergence(
                "path endpoints must fall into the pinched and stable basins at %s"
                % self.where
            )
        areas = [self.geometry(self.at(t))[0] for t in SWEEP_T]
        best = int(np.argmax(areas))
        saddle = self.newton(self.at(SWEEP_T[best]))
        if saddle is None:
            raise NonConvergence("Newton's method found no critical profile at %s" % self.where)
        geo = self.geometry(saddle)
        index = self.certify(saddle, geo)
        if index is None:
            raise NonConvergence(
                "the critical profile at %s is no certified mountain pass" % self.where
            )
        return saddle, geo, float(SWEEP_T[best]), areas[best], index

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


def mountain_pass_width(r, h):
    """Saddle area of the two-circle problem found from an actual sweep.

    The sweep is the straight segment from the pinched surrogate to the
    stable catenoid on 201 nodes; the returned width matches the
    closed-form unstable catenoid area to the engine's discretization
    error, with the realizing profile attached.  The engine runs in units
    of r, at (1, h/r), where no area overflows; the width and sweep_max
    scale back by r^2, the profile by r and the residual by sqrt(r).
    """
    CatenoidSpec(r=r, h=h)  # refuses r and h outside the domain by name
    engine = _WidthEngine(h / r, 201)
    engine.where = "r = %s, h = %s" % (r, h)
    profile, geo, argmax_t, sweep_max, index = engine.run()
    if geo[0] < max(_frustum_area(f, engine.dx) for f in (engine.pinched, engine.stable)):
        raise NonConvergence("width fell below an endpoint area at %s" % engine.where)
    if not geo[0] <= sweep_max:
        raise NonConvergence("width exceeds the sweep's sampled maximum at %s" % engine.where)
    # the gradient per unit length is the discrete first variation, so its
    # L2 norm is comparable across resolutions
    g = engine.gradient(geo)
    return WidthResult(
        width=r * r * geo[0],
        argmax_t=argmax_t,
        sweep_max=r * r * sweep_max,
        profile_at_max=ProfileCurve(x_nodes=r * engine.x, f_values=r * profile),
        iterations=engine.steps_taken,
        backtracks=engine.backtracks,
        residual=math.sqrt(r) * math.sqrt(float(g @ g) / engine.dx),
        classify_calls=engine.classify_calls,
        morse_index=index,
        newton_iterations=engine.newton_iterations,
    )

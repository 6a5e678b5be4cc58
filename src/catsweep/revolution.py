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
certificate: one Sturm count of the Hessian's negative eigenvalues must
read 1, so that only the lowest is negative and it is, and a nudge along
the lowest one's eigenvector, read by inverse iteration at that
eigenvalue alone, descends into the pinched basin one way and the stable
basin the other.  The width is the area of that certified
index-1 critical point; it is checked against the two path ends, the
first and last samples, and against the sampled maximum, since the
segment is itself a sweepout whose largest area bounds the width.  When
Newton's method, the certificate or a check fails, no width is reported.
The LAPACK routines are imported by the engine that calls them, so
importing this module loads no scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .catenoid import TANGENCY_ABSCISSA, CatenoidSpec, stable_neck
from .errors import NonConvergence

PINCH_FLOOR = 1e-4   # relative floor on profile radii, keeps the area integrand regular
# pinched basin threshold on the midpoint radius, ten times the pinch floor
NECK_FLOOR = 1e-3

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
# the pinched end, where the maximum sits once h is small, in Python floats
# (np.geomspace rounds some nodes differently under numpy's AVX-512 and
# AVX2 loops); sorted, each value once (np.union1d would load numpy.ma)
SWEEP_T = np.sort(np.concatenate([np.linspace(0.0, 1.0, 17),
                                  [10.0 ** ((k - 24) / 4) for k in range(25)]]))
SWEEP_T = SWEEP_T[np.concatenate([[True], SWEEP_T[1:] != SWEEP_T[:-1]])]


@dataclass(frozen=True)
class ProfileCurve:
    """Radial profile f_values sampled at the uniform axis nodes x_nodes."""

    x_nodes: np.ndarray
    f_values: np.ndarray


def _frustum_geometry(f, dx):
    # the polyline profile swept around the axis: one cone frustum per
    # interval, pi * (f_i + f_{i+1}) * slant; returns the area with the
    # per-interval radius change, slant and radius sum it was built from,
    # along the last axis, so a 2-d f holds one profile a row
    df = f[..., 1:] - f[..., :-1]
    slant = np.sqrt(dx * dx + df * df)
    s = f[..., :-1] + f[..., 1:]
    return np.pi * (s * slant).sum(axis=-1), df, slant, s


@dataclass(frozen=True)
class WidthResult:
    width: float
    argmax_t: float        # the sample of SWEEP_T with the largest area, Newton's start
    sweep_max: float       # that largest sampled area, a lower bound of the segment's maximum
    profile_at_max: ProfileCurve
    iterations: int        # area descent steps, basin classifications included
    backtracks: int        # step halvings: descent backtracking plus Newton damping
    classify_calls: int    # basin classifications the saddle search ran
    morse_index: int       # negative Hessian eigenvalues at the saddle
    newton_iterations: int # Newton steps of the saddle solve


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
        from scipy.linalg.lapack import dgttrf, dgttrs, dstebz, dstein

        # bound once here, so the per-step solves run no import statement
        self.dgttrf, self.dgttrs = dgttrf, dgttrs
        self.dstebz, self.dstein = dstebz, dstein
        c_stable = stable_neck(CatenoidSpec(r=1.0, h=h))
        self.x = np.linspace(-h, h, n_nodes)
        self.dx = float(self.x[1] - self.x[0])
        # the path ends: the two-disk surrogate, its interior collapsed to
        # the pinch floor, and the stable catenoid, both pinned to radius 1;
        # math.cosh node by node, since numpy's cosh rounds differently
        # under each SIMD dispatch
        self.pinched = np.full(n_nodes, PINCH_FLOOR)
        u = (self.x / c_stable).tolist()
        self.stable = c_stable * np.fromiter(map(math.cosh, u), float, n_nodes)
        for f in (self.pinched, self.stable):
            f[0] = f[-1] = 1.0
        self.where = "h/r = %s" % h
        off = np.full(n_nodes - 3, -1.0 / self.dx ** 2)
        diag = np.full(n_nodes - 2, 1.0 + 2.0 / self.dx ** 2)
        # strictly diagonally dominant, so no pivot vanishes (info is 0)
        *self.lu, _ = self.dgttrf(off, diag, off)
        self.mid = n_nodes // 2
        # stable basin threshold: h/x_tangent bounds the unstable neck from
        # above, so the midpoint against c_stable cannot fire during a saddle linger
        self.neck_stable = 0.5 * (h / TANGENCY_ABSCISSA + c_stable)
        self.steps_taken = 0
        self.newton_iterations = 0
        self.backtracks = 0
        self.classify_calls = 0

    def geometry(self, f):
        area, df, slant, s = _frustum_geometry(f, self.dx)
        return float(area), df, slant, s

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
        # slant ** 3 would call pow, whose last bit depends on numpy's SIMD dispatch
        t = np.pi * s * self.dx ** 2 / (slant * slant * slant)
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
            *lu, info = self.dgttrf(off, diag, off)
            if info != 0:
                return None
            delta = self.dgttrs(*lu, g)[0]
            fn = f.copy()
            fn[1:-1] -= delta
            low = fn.min()
            if low > PINCH_FLOOR and np.abs(delta).max() <= NEWTON_RTOL * fn.max():
                return fn
            for _ in range(HALVINGS):
                if low > PINCH_FLOOR:  # also rejects NaN
                    geo_n = self.geometry(fn)
                    g_n = self.gradient(geo_n)
                    merit_n = float(g_n @ g_n)
                    if merit_n < merit:
                        break
                self.backtracks += 1
                delta *= 0.5
                fn = f.copy()
                fn[1:-1] -= delta
                low = fn.min()
            else:
                return None
            f, geo, g, merit = fn, geo_n, g_n, merit_n
        return None

    def step(self, f, geo, st):
        # backtracking guard: never accept an area increase
        d = self.dgttrs(*self.lu, self.gradient(geo) / self.dx)[0]
        self.steps_taken += 1
        a = geo[0]
        for _ in range(HALVINGS):
            fn = f.copy()
            np.subtract(f[1:-1], st * d, out=fn[1:-1])
            np.maximum(fn, PINCH_FLOOR, out=fn)
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
            if neck <= NECK_FLOOR:
                return -1
            if neck >= self.neck_stable and neck > neck_prev:
                return 1
            neck_prev = neck
        raise NonConvergence(
            "basin classification exceeded its iteration cap at %s" % self.where
        )

    def segment(self, t):
        """The profiles at the parameters t on the straight segment from
        pinched to stable, one a row."""
        t = np.asarray(t, dtype=float)[:, None]
        f = (1.0 - t) * self.pinched + t * self.stable
        f[:, 0] = f[:, -1] = 1.0
        return f

    def run(self):
        """The certified saddle: (profile, geometry, argmax_t, sweep_max, Morse index)."""
        if self.classify(self.pinched) != -1 or self.classify(self.stable) != 1:
            raise NonConvergence(
                "path endpoints must fall into the pinched and stable basins at %s"
                % self.where
            )
        segment = self.segment(SWEEP_T)
        areas = _frustum_geometry(segment, self.dx)[0]
        best = int(np.argmax(areas))
        saddle = self.newton(segment[best])
        if saddle is None:
            raise NonConvergence("Newton's method found no critical profile at %s" % self.where)
        geo = self.geometry(saddle)
        index = self.certify(saddle, geo)
        if index is None:
            raise NonConvergence(
                "the critical profile at %s is no certified mountain pass" % self.where
            )
        # t = 0 and t = 1 sample the two path ends bit for bit
        if geo[0] < max(areas[0], areas[-1]):
            raise NonConvergence("width fell below an endpoint area at %s" % self.where)
        return saddle, geo, float(SWEEP_T[best]), float(areas[best]), index

    def index_one_mode(self, diag, off):
        """The lowest eigenvector of the symmetric tridiagonal (diag, off)
        when its lowest eigenvalue is negative and the next one is not,
        else None.

        One LAPACK dstebz call over (-inf, VU], VU the largest negative
        double, counts the negative eigenvalues by Sturm sequences (Barth,
        Martin & Wilkinson 1967) and bisects only those: at index 1, the
        lowest eigenvalue alone.  Its eigenvector is read by inverse
        iteration (dstein).  A LAPACK failure reads as no such eigenvector.
        """
        # ABSTOL 0 is LAPACK's default, ulp times the 1-norm: dstein's
        # convergence test is not scale-free, and on a matrix of small norm
        # a looser shift fails it even where its vector is right (the block
        # [[5e-4, 1e-3], [1e-3, 5e-4]] with ABSTOL 1e-12 returns info 1)
        count, lam, block, split, info = self.dstebz(
            diag, off, 1, -math.inf, -math.ulp(0.0), 0, 0, 0.0, b"B"
        )
        if info != 0 or count != 1:
            return None
        vecs, info = self.dstein(diag, off, lam[:1], block, split)
        return vecs[:, 0] if info == 0 else None

    def certify(self, f, geo):
        """Mountain-pass certificate of the critical profile f.

        Returns 1, its Morse index, when f has index 1 and separates the basins:
        f - eps*v descends to the pinched floor and f + eps*v to the stable
        catenoid, v the negative eigenvector (sup norm 1, widening the neck).
        Returns None otherwise.
        """
        v = self.index_one_mode(*self.hessian(geo))
        if v is None:
            return None
        v /= v[np.argmax(np.abs(v))]
        if v[self.mid - 1] < 0.0:
            v = -v
        nudge = np.zeros_like(f)
        nudge[1:-1] = CERT_NUDGE * f.min() * v
        below, above = f - nudge, f + nudge
        if self.classify(below) != -1 or self.classify(above) != 1:
            return None
        return 1


def mountain_pass_width(r, h):
    """Saddle area of the two-circle problem found from an actual sweep.

    The sweep is the straight segment from the pinched surrogate to the
    stable catenoid on 201 nodes; the returned width matches the
    closed-form unstable catenoid area to the engine's discretization
    error, with the realizing profile attached.  The engine runs in units
    of r, at (1, h/r), where no area overflows; the width and sweep_max
    scale back by r^2 and the profile by r.
    """
    CatenoidSpec(r=r, h=h)  # refuses r and h outside the domain by name
    engine = _WidthEngine(h / r, 201)
    engine.where = "r = %s, h = %s" % (r, h)
    profile, geo, argmax_t, sweep_max, index = engine.run()
    if not geo[0] <= sweep_max:
        raise NonConvergence("width exceeds the sweep's sampled maximum at %s" % engine.where)
    return WidthResult(
        width=r * r * geo[0],
        argmax_t=argmax_t,
        sweep_max=r * r * sweep_max,
        profile_at_max=ProfileCurve(x_nodes=r * engine.x, f_values=r * profile),
        iterations=engine.steps_taken,
        backtracks=engine.backtracks,
        classify_calls=engine.classify_calls,
        morse_index=index,
        newton_iterations=engine.newton_iterations,
    )

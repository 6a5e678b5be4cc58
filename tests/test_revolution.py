import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, solve_banded

from catsweep import cli
from catsweep.acceptance import EXCESS_GRID, width_excess, width_run
from catsweep.catenoid import CatenoidSpec, excess_over_disks, solve_parameters
from catsweep.errors import NoCatenoid, NonConvergence
from catsweep.revolution import (
    PINCH_FLOOR,
    STEP0,
    STEP_MAX,
    SWEEP_T,
    ProfileCurve,
    _WidthEngine,
    _frustum_geometry,
    mountain_pass_width,
)

# closed-form unstable-catenoid areas, regenerated with an independent
# brentq + identity oracle
WIDTH_TABLE = {
    (1.0, 0.3): 6.440613278353349,
    (1.0, 0.5): 6.845655394310629,
}

# naive 2*pi*h^2 excess over the true saddle excess at r=1 (same oracle)
EXCESS_RATIO_TABLE = {
    1e-2: 7.820848294150,
    1e-3: 10.419315937515,
    1e-4: 12.944008203762,
    1e-5: 15.425320024527,
    1e-6: 17.877824555674,
    1e-7: 20.309716721026,
}
EXCESS_SLOPE = 0.7623457020

# engine outputs (width, argmax_t) at (r, h), frozen when the saddle was
# first certified there; faster or smaller saddle searches must reproduce
# them bit for bit; argmax_t is the sample of SWEEP_T with the largest area
FROZEN_WIDTHS = {
    (1.0, 0.5): (6.845683234092074, 0.4375),
    (1.0, 0.3): (6.440627367375724, 0.3125),
    (1.0, 0.2): (6.343639028936107, 0.1875),
    (1.0, 0.1): (6.2955996755467485, 0.1),
    (1.0, 0.65): (7.4590498234972475, 0.625),
    (1.0, 0.66): (7.519753035231725, 0.625),
    (1.0, 0.662): (7.532806986606643, 0.625),
    (1.0, 0.6626): (7.536847156123236, 0.625),
    (2.0, 1.0): (27.382732936368296, 0.4375),
}


# the geometric nodes of SWEEP_T, 10^((k - 24)/4) for k = 0..24, bit for
# bit: built from Python floats, they read the same under numpy's AVX-512
# and AVX2 loops, where np.geomspace(1e-6, 1, 25) differs between the two
# at k = 1, 4 and 19; CI runs this file under both
SWEEP_T_GEOMETRIC = (
    "0x1.0c6f7a0b5ed8dp-20", "0x1.dd5a6e3869738p-20", "0x1.a86f0875fcf94p-19",
    "0x1.7961810874a9fp-18", "0x1.4f8b588e368f1p-17", "0x1.2a5884e341e83p-16",
    "0x1.09456549be1bdp-15", "0x1.d7b9e14a91d46p-15", "0x1.a36e2eb1c432dp-14",
    "0x1.74eea61c12623p-13", "0x1.4b96be9c2da2cp-12", "0x1.26d42cce9b24cp-11",
    "0x1.0624dd2f1a9fcp-10", "0x1.d22a4fa316facp-10", "0x1.9e7c6e43390b7p-9",
    "0x1.7089380241edfp-8", "0x1.47ae147ae147bp-7", "0x1.235a71c5ee5ccp-6",
    "0x1.030dc4ea03a72p-5", "0x1.ccab8602d2697p-5", "0x1.999999999999ap-4",
    "0x1.6c310e3769f3fp-3", "0x1.43d136248490fp-2", "0x1.1feb33c1c381ep-1",
    "0x1.0000000000000p+0",
)


def test_sweep_nodes_are_pinned():
    geometric = [float.fromhex(x) for x in SWEEP_T_GEOMETRIC]
    assert SWEEP_T.tolist() == sorted(set(geometric) | {k / 16 for k in range(17)})
    # at h = 0.05 Newton starts from the geometric node k = 19
    res = mountain_pass_width(1.0, 0.05)
    got = (res.width, res.argmax_t, res.iterations, res.newton_iterations)
    assert got == (6.285838949444977, geometric[19], 129, 15)


def _catenoid_profile(r, h, c, n_nodes=201):
    # the catenoid c cosh(x/c) over [-h, h], its ends pinned to radius r
    x = np.linspace(-h, h, n_nodes)
    f = c * np.cosh(x / c)
    f[0] = f[-1] = r
    return ProfileCurve(x_nodes=x, f_values=f)


def _area(p):
    return _frustum_geometry(p.f_values, float(p.x_nodes[1] - p.x_nodes[0]))[0]


def _gradient_norm(res):
    # the L2 norm of the area gradient density at the reported saddle: the
    # discrete first variation per unit length, comparable across resolutions
    x, f = res.profile_at_max.x_nodes, res.profile_at_max.f_values
    dx = float(x[1] - x[0])
    _, df, slant, s = _frustum_geometry(f, dx)
    q = s * df / slant
    g = np.pi * (slant - q)[1:] + np.pi * (slant + q)[:-1]
    return math.sqrt(float(g @ g) / dx)


@functools.lru_cache(maxsize=None)
def _width(r, h):
    # one engine run per (r, h), shared by the tests that only read it
    return mountain_pass_width(r, h)


def test_cylinder_area_exact():
    x = np.linspace(-0.1, 0.1, 51)
    p = ProfileCurve(x_nodes=x, f_values=np.ones_like(x))
    assert _area(p) == pytest.approx(0.4 * math.pi, rel=1e-14)


def test_cone_area_exact():
    # straight profile: quadrature and derivative are both exact
    x = np.linspace(0.0, 1.0, 101)
    f = 1.0 + 0.5 * x
    p = ProfileCurve(x_nodes=x, f_values=f)
    # frustum: pi*(r1+r2)*slant
    expect = math.pi * (1.0 + 1.5) * math.sqrt(1.0 + 0.25)
    assert _area(p) == pytest.approx(expect, rel=1e-12)


def test_revolution_area_second_order():
    sol = solve_parameters(CatenoidSpec(r=1.0, h=0.3))
    exact = WIDTH_TABLE[(1.0, 0.3)]
    errs = []
    for n in (101, 201, 401):
        p = _catenoid_profile(1.0, 0.3, sol.c_unstable, n)
        err = abs(_area(p) - exact)
        errs.append(err)
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert 1.8 < order1 < 2.2
    assert 1.8 < order2 < 2.2


def test_segment_ends():
    engine = _WidthEngine(0.3, 101)
    first, mid, last = engine.segment([0.0, 0.37, 1.0])
    for f in (first, mid, last):
        assert f[0] == 1.0 and f[-1] == 1.0
    # interior of the pinched end sits on the pinch floor
    assert np.all(first[1:-1] <= 1e-4 + 1e-12)
    sol = solve_parameters(CatenoidSpec(r=1.0, h=0.3))
    x = engine.x
    assert np.max(np.abs(last[1:-1] - sol.c_stable * np.cosh(x[1:-1] / sol.c_stable))) < 1e-12


@pytest.mark.parametrize("r,h", [(1.0, 0.5), (1.0, 0.3)])
def test_mountain_pass_width_matches_closed_form(r, h):
    res = _width(r, h)
    exact = WIDTH_TABLE[(r, h)]
    assert abs(res.width - exact) / exact < 5e-3
    # the frustum discretization at 201 nodes is much tighter than that
    assert abs(res.width - exact) / exact < 1e-4
    assert 0.0 < res.argmax_t < 1.0
    sol = solve_parameters(CatenoidSpec(r=r, h=h))
    x = res.profile_at_max.x_nodes
    target = sol.c_unstable * np.cosh(x / sol.c_unstable)
    assert np.max(np.abs(res.profile_at_max.f_values - target)) < 1e-2 * r
    assert res.iterations > 0
    assert _gradient_norm(res) <= 1e-4
    assert res.classify_calls > 0


@pytest.mark.parametrize(
    "r,h",
    [pytest.param(1.0, h, id=str(h)) for h in (0.5, 0.3, 0.2, 0.1, 0.65, 0.66, 0.662, 0.6626)]
    + [(2.0, 1.0)],
)
def test_width_excess_within_discretization_error(r, h):
    # the excess over two disks is the quantity the estimate is about; at
    # 201 nodes the frustum rule alone puts it within 2e-4 of the closed form,
    # also at h = 0.66 to 0.6626, just under the critical ratio 0.66274
    res = _width(r, h)
    sol = solve_parameters(CatenoidSpec(r=r, h=h))
    excess_ref = excess_over_disks(r, h, sol.c_unstable)
    assert abs((res.width - 2.0 * math.pi * r * r) / excess_ref - 1.0) <= 2e-4
    assert res.morse_index == 1
    assert _gradient_norm(res) <= 1e-10
    assert res.newton_iterations >= 1
    # the two path ends and the certificate's two nudges, nothing else
    assert res.classify_calls == 4
    assert res.width <= res.sweep_max
    assert (res.width, res.argmax_t) == FROZEN_WIDTHS[(r, h)]


def _recording_classify(monkeypatch):
    # wrap the basin classification, keeping a copy of every profile it
    # sees with its verdict
    seen = []
    plain = _WidthEngine.classify

    def classify(self, f):
        g = f.copy()
        verdict = plain(self, f)
        seen.append((g, verdict))
        return verdict

    monkeypatch.setattr(_WidthEngine, "classify", classify)
    return seen


def test_no_profile_classified_twice(monkeypatch):
    seen = _recording_classify(monkeypatch)
    res = mountain_pass_width(1.0, 0.5)
    keys = [f.tobytes() for f, _ in seen]
    assert len(keys) == res.classify_calls
    assert len(set(keys)) == len(keys)


def test_width_counts_are_deterministic():
    res = mountain_pass_width(1.0, 0.5)
    ref = _width(1.0, 0.5)
    counts = ("iterations", "backtracks", "classify_calls", "newton_iterations")
    assert [getattr(res, k) for k in counts] == [getattr(ref, k) for k in counts]
    row = width_run(1.0, 0.5).rows[0]
    assert [row[k] for k in counts] == [getattr(ref, k) for k in counts]


@pytest.mark.parametrize("stage", ["newton", "certify"])
def test_failed_saddle_is_a_named_failure(stage, monkeypatch, capsys):
    # a failed Newton solve or certificate reports no width; the error
    # names the problem, and the CLI gives one verification-failure line
    monkeypatch.setattr(_WidthEngine, stage, lambda self, *args: None)
    with pytest.raises(NonConvergence, match="h = 0.5"):
        mountain_pass_width(1.0, 0.5)
    assert cli.run(["width", "run", "--h", "0.5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("verification failure:")
    assert "h = 0.5" in err[0]


def test_width_above_the_sampled_sweep_is_a_named_failure(monkeypatch):
    # the segment is a sweepout whose largest area bounds the width, so a
    # width above its best sample is refused by name
    plain = _WidthEngine.run

    def run(self):
        saddle, geo, argmax_t, _, index = plain(self)
        return saddle, geo, argmax_t, 0.5 * geo[0], index

    monkeypatch.setattr(_WidthEngine, "run", run)
    with pytest.raises(NonConvergence, match="h = 0.5"):
        mountain_pass_width(1.0, 0.5)


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(s=st.floats(min_value=0.5, max_value=2.0))
def test_width_scales_with_the_circles(s):
    # area is 2-homogeneous, so the certified saddle of the scaled problem
    # is the scaled saddle
    scaled = mountain_pass_width(s * 1.0, s * 0.5)
    assert scaled.width == pytest.approx(s * s * _width(1.0, 0.5).width, rel=1e-9)


def test_width_exceeds_endpoint_areas():
    res = _width(1.0, 0.5)
    stable = _catenoid_profile(1.0, 0.5, solve_parameters(CatenoidSpec(r=1.0, h=0.5)).c_stable)
    assert res.width > _area(stable) - 1e-9
    assert res.width > 2.0 * math.pi * 1.0 ** 2 * 0.9  # near two disks from the pinched end


def test_width_rejects_overtall_gap():
    with pytest.raises(NoCatenoid):
        mountain_pass_width(1.0, 0.7)


def _random_profiles():
    rng = np.random.default_rng(7)
    x = np.linspace(-0.3, 0.3, 101)
    for _ in range(5):
        f = 0.8 + 0.3 * rng.random(101)
        f[0] = 1.0
        f[-1] = 1.0
        yield ProfileCurve(x_nodes=x, f_values=f)


def _reference_descent(p, r, steps):
    # reference descent, written plainly: np.diff geometry recomputed per
    # step, the gradient scatter-added onto the nodes, and a fresh banded
    # solve of (I - d^2/dx^2) on every step; the engine must match it bit
    # for bit, since it reorders none of this arithmetic
    dx = p.x_nodes[1] - p.x_nodes[0]
    inner = p.x_nodes.size - 2
    band = np.zeros((3, inner))
    band[0, 1:] = -1.0 / dx ** 2
    band[1, :] = 1.0 + 2.0 / dx ** 2
    band[2, :-1] = -1.0 / dx ** 2

    def area(f):
        df = np.diff(f)
        slant = np.sqrt(dx * dx + df * df)
        return float(np.pi * np.sum((f[:-1] + f[1:]) * slant))

    f = p.f_values.copy()
    a = area(f)
    st = STEP0
    areas = [a]
    for _ in range(steps):
        df = np.diff(f)
        slant = np.sqrt(dx * dx + df * df)
        s = f[:-1] + f[1:]
        g = np.zeros_like(f)
        g[:-1] += np.pi * (slant - s * df / slant)
        g[1:] += np.pi * (slant + s * df / slant)
        d = solve_banded((1, 1), band, g[1:-1] / dx)
        for _ in range(60):
            fn = f.copy()
            fn[1:-1] = f[1:-1] - st * d
            np.clip(fn, PINCH_FLOOR * r, None, out=fn)
            an = area(fn)
            if an <= a:
                f, a, st = fn, an, min(st * 1.3, STEP_MAX)
                break
            st *= 0.5
        areas.append(a)
    return f, areas


def _engine_on_grid(p):
    # an engine at r = 1 whose grid is p's
    return _WidthEngine(float(p.x_nodes[-1]), p.x_nodes.size)


def _descend(p, steps):
    # the engine's area descent from p: (final radii, per-step areas)
    engine = _engine_on_grid(p)
    f = p.f_values.copy()
    geo = engine.geometry(f)
    st = STEP0
    areas = [geo[0]]
    for _ in range(steps):
        f, geo, st, _ = engine.step(f, geo, st)
        areas.append(geo[0])
    return f, areas


def _interior_hessian(p):
    engine = _engine_on_grid(p)
    return engine, engine.hessian(engine.geometry(p.f_values))


def test_hessian_matches_central_differences():
    eps = 1e-6
    for p in _random_profiles():
        descent, (diag, off) = _interior_hessian(p)
        exact = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        fd = np.empty_like(exact)
        for j in range(diag.size):
            fp, fm = p.f_values.copy(), p.f_values.copy()
            fp[j + 1] += eps
            fm[j + 1] -= eps
            gp = descent.gradient(descent.geometry(fp))
            gm = descent.gradient(descent.geometry(fm))
            fd[:, j] = (gp - gm) / (2.0 * eps)
        # relative to the largest entry: these rough profiles have slopes
        # near 50, so the entries reach ~1.7e3
        assert np.max(np.abs(fd - exact)) <= 1e-7 * np.max(np.abs(exact))


def test_certificate_index_matches_the_full_spectrum():
    # the certificate reads only the two lowest eigenvalues; the count of
    # negative ones in the full spectrum must be 1 exactly when it accepts
    # the index, and certify refuses every other count
    sol = solve_parameters(CatenoidSpec(r=1.0, h=0.5))
    saddle = _width(1.0, 0.5).profile_at_max
    stable = _catenoid_profile(1.0, 0.5, sol.c_stable)
    cases = [(saddle, 1), (stable, 0)] + [(p, None) for p in _random_profiles()]
    for p, index in cases:
        engine, (diag, off) = _interior_hessian(p)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        count = int(np.sum(np.linalg.eigvalsh(dense) < 0.0))
        lam = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1), eigvals_only=True)
        assert (lam[0] < 0.0 <= lam[1]) == (count == 1)
        if index is not None:
            assert count == index
        else:
            # the rough profiles are far from critical: many negative directions
            assert count >= 20
        if count != 1:
            assert engine.certify(p.f_values, engine.geometry(p.f_values)) is None


@functools.cache
def _spectral_engine():
    # an engine for its bound LAPACK routines alone
    return _WidthEngine(0.5, 201)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    entries=st.integers(min_value=3, max_value=40).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
            st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1),
        )
    ),
    index=st.sampled_from([0, 1, 2]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_index_one_mode_matches_eigh_tridiagonal(entries, index, scale):
    # the certificate's Sturm count and lone eigenpair against the two
    # lowest eigenpairs of eigh_tridiagonal, on tridiagonals shifted to
    # index 0, 1 or 2 with zero in the middle of a gap of more than 1e-2 of
    # the spectrum's width, so that neither the count nor the eigenvector
    # is decided by rounding
    diag, off = scale * np.array(entries[0]), scale * np.array(entries[1])
    lam = eigh_tridiagonal(diag, off, eigvals_only=True)
    k = max(index, 1)
    assume(lam[k] - lam[k - 1] > 1e-2 * (lam[-1] - lam[0]))
    shift = lam[0] - 0.5 * (lam[1] - lam[0]) if index == 0 else 0.5 * (lam[k - 1] + lam[k])
    diag = diag - shift
    low, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
    assert (low[0] < 0.0 <= low[1]) == (index == 1)
    v = _spectral_engine().index_one_mode(diag, off)
    assert (v is not None) == (index == 1)
    if v is not None:
        ref = vecs[:, 0]
        assert np.max(np.abs(np.copysign(1.0, v @ ref) * v - ref)) <= 1e-12


def test_certificate_accepts_only_the_saddle():
    engine = _WidthEngine(0.5, 201)
    saddle = _width(1.0, 0.5).profile_at_max.f_values
    assert engine.certify(saddle, engine.geometry(saddle)) == 1
    # index 0: the stable catenoid is no mountain pass
    assert engine.certify(engine.stable, engine.geometry(engine.stable)) is None


def test_descent_matches_reference_bit_for_bit():
    for p in _random_profiles():
        out, areas = _descend(p, steps=200)
        ref_f, ref_areas = _reference_descent(p, 1.0, steps=200)
        assert np.array(areas).tobytes() == np.array(ref_areas).tobytes()
        assert out.tobytes() == ref_f.tobytes()


def test_descent_never_increases_area():
    for p in _random_profiles():
        _, areas = _descend(p, steps=200)
        diffs = np.diff(areas)
        assert np.all(diffs <= 1e-12)
        assert areas[-1] < areas[0]


def test_descent_respects_boundary():
    x = np.linspace(-0.3, 0.3, 101)
    f = np.full(101, 0.9)
    f[0] = 1.0
    f[-1] = 1.0
    out, _ = _descend(ProfileCurve(x_nodes=x, f_values=f), steps=50)
    assert out[0] == 1.0
    assert out[-1] == 1.0


def test_excess_ratio_table():
    grid = sorted(EXCESS_RATIO_TABLE, reverse=True)
    assert tuple(grid) == EXCESS_GRID
    ratios = []
    for h in grid:
        c = solve_parameters(CatenoidSpec(r=1.0, h=h)).c_unstable
        ratios.append(2.0 * math.pi * h * h / excess_over_disks(1.0, h, c))
        assert ratios[-1] == pytest.approx(EXCESS_RATIO_TABLE[h], abs=1e-6)
    assert ratios == sorted(ratios)
    assert width_excess().rows[0]["slope"] == pytest.approx(EXCESS_SLOPE, abs=1e-8)


def test_excess_slope_in_log_band():
    assert 0.75 <= width_excess().rows[0]["slope"] <= 1.25

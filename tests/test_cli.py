import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catsweep
from catsweep import acceptance, cli
from catsweep.acceptance import CriterionResult
from catsweep.catenoid import R_MAX
from catsweep.errors import BudgetViolated, NonConvergence


def _run_from_source(argv):
    # a fresh interpreter on this checkout's source, the way an installed
    # wrapper would run; stderr shows any uncaught exception as a traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(catsweep.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable] + argv, capture_output=True, text=True, env=env
    )


def test_solve_pass_exit_zero(capsys):
    code = cli.run(["catenoid", "solve", "--r", "1", "--h", "0.1", "--json"])
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    row = body["rows"][0]
    assert set(row) >= {"area", "c_unstable", "c_stable", "area_unstable", "area_stable"}
    assert body["summary"]["budget"] == 1.0
    assert body["summary"]["passed"] is True


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.run(["catenoid", "solve", "--r", "1"])
    assert exc.value.code == 1


def test_fermi_quad_takes_no_grid(capsys):
    # the form is read one Fourier mode at a time, with no chart grid to size
    with pytest.raises(SystemExit) as exc:
        cli.run(["fermi", "quad", "--n", "64"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "unrecognized arguments: --n 64" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.run(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("h", ["1e-20", "1e-200", "1e-300"])
def test_solve_passes_at_tiny_h(h, capsys):
    # area and bound both round to 2*pi here; the verdict reads the excesses
    code = cli.run(["catenoid", "solve", "--r", "1", "--h", h, "--json"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0
    assert body["summary"]["passed"] is True
    assert body["summary"]["margin"] > 0.0


def test_solve_fails_a_wide_neck_at_tiny_h(capsys, monkeypatch):
    # a neck three times too wide breaks the bound; below h ~ 1e-161 both
    # unscaled excesses underflow to 0, so only the scaled verdict sees it
    solve = acceptance.solve_parameters

    def widened(spec):
        sol = solve(spec)
        return dataclasses.replace(sol, c_unstable=3.0 * sol.c_unstable)

    monkeypatch.setattr(acceptance, "solve_parameters", widened)
    code = cli.run(["catenoid", "solve", "--r", "1", "--h", "1e-200", "--json"])
    body = json.loads(capsys.readouterr().out)
    assert body["summary"]["passed"] is False
    assert code == 2


def test_config_error_exit_one(capsys):
    code = cli.run(["catenoid", "solve", "--r", "1", "--h", "0.9"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_tolerance_miss_exit_two(capsys):
    # a real shortfall: at h = 0.05 the width's excess is 2.65e-4 off
    code = cli.run(["width", "run", "--h", "0.05", "--json"])
    assert code == 2
    body = json.loads(capsys.readouterr().out)
    assert body["summary"]["passed"] is False
    assert body["rows"][0]["area"] > acceptance.WIDTH_EXCESS_TOL


def test_budget_violation_exit_two(monkeypatch, capsys):
    def boom(*a, **k):
        raise BudgetViolated("synthetic")

    monkeypatch.setattr(acceptance, "assemble_doubled_sweepout", boom)
    code = cli.run(["doubling", "sweep", "--m", "2"])
    assert code == 2
    assert "verification failure" in capsys.readouterr().err


def test_json_output_deterministic(capsys):
    cli.run(["fermi", "quad", "--json"])
    first = capsys.readouterr().out
    cli.run(["fermi", "quad", "--json"])
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)


FAST_COMMANDS = {
    "catenoid-solve": ["catenoid", "solve", "--r", "1", "--h", "0.1"],
    "catenoid-scan": ["catenoid", "scan"],
    "width-excess": ["width", "excess"],
    "fermi-quad": ["fermi", "quad"],
    "cutoff-disk": ["cutoff", "disk", "--t", "0.01"],
    "neck-fit": ["neck", "fit", "--n", "3"],
    "width-run": ["width", "run", "--h", "0.5"],
}


# sha256 of each command's --json bytes: a change that only deletes or
# reorganizes code must not move a report byte.  The bytes depend on the
# SIMD loops numpy dispatches to on the CPU that runs it, not only on
# numpy's version: with AVX2 loops only (NPY_DISABLE_CPU_FEATURES="X86_V4
# AVX512_ICL AVX512_SPR") the witness mesh bytes of tests/test_doubling.py
# move in their last bits, while every hash here reads the same under both
# dispatches, and CI runs this file under both
FROZEN_JSON_SHA256 = {
    "catenoid-solve": "3bba6c24bcca84b824b86818c78722d86d65b70af6d1df3344635a9ad268abb8",
    "catenoid-scan": "b160f61a45c93af0e624f9e084f7a9ccc83d2a9689aabdf4ddb1d517e6f2abfa",
    "width-excess": "299daeddd102cdfb641d775c44f053ce45c99d07201cf99489cbf359875340c6",
    "fermi-quad": "4c877028c668eeb9a8703dad63d351271ae0b1fb6be9ddda23d22ecbe9cd39b5",
    "cutoff-disk": "bd095c9efb26a3c31bb6fb3a3d7d3d930cea015156eb5a92106b7a2d7f691b7d",
    "neck-fit": "80b952bd72e236b479fb24d7f172e93b5574f61b8a940f7af4f32febfde2b507",
    "neck-fit-n2": "b89ac33621c7d0b78676a7e9911d57628ed86d69150805f86e23f92a9d79897d",
    "neck-fit-n6": "7f8da1a3797c8dedfe88af96a25e27f5d1b60b29966bb7d24d7823bb40525d0d",
    "width-run": "c675c0ab46e99d655ec1d30545090aa4f3b3e9b530df31931379283280fba411",
    "doubling-sweep": "236cb65d00ebca9ea19d9123f9e2f9fcfb02d5d94ec9aade6df0ae3a75042dac",
    "doubling-sweep-m3": "7f62ea718a6f50dde8a93490749f8a3507be12f4386349e2be361db44200cf3c",
    "cutoff-torus": "e1006749b8a0b240d730db0cee624410a5b3cc32bc5e82dc0974ab5af43dc83f",
    "fermi-tubes": "c34d2613e2e39dccb6ea47d91af3db1621cd2cc63e30459be33b29ad7c711828",
}
BYTE_STABLE_COMMANDS = dict(
    FAST_COMMANDS,
    **{
        "doubling-sweep": ["doubling", "sweep", "--m", "2"],
        "doubling-sweep-m3": ["doubling", "sweep", "--m", "3"],
        "cutoff-torus": ["cutoff", "torus"],
        "fermi-tubes": ["fermi", "tubes"],
        "neck-fit-n2": ["neck", "fit", "--n", "2"],
        "neck-fit-n6": ["neck", "fit", "--n", "6"],
    },
)


@pytest.mark.parametrize("name", BYTE_STABLE_COMMANDS)
def test_json_bytes_frozen(name, capsys):
    assert cli.run(BYTE_STABLE_COMMANDS[name] + ["--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_JSON_SHA256[name]


@pytest.mark.parametrize("argv", FAST_COMMANDS.values(), ids=FAST_COMMANDS.keys())
def test_stamp_outside_hash(argv, capsys):
    cli.run(argv + ["--json"])
    plain = json.loads(capsys.readouterr().out)
    cli.run(argv + ["--json", "--stamp", "2026-08-23"])
    stamped = json.loads(capsys.readouterr().out)
    assert plain["meta"]["timestamp"] is None
    assert stamped["meta"]["timestamp"] == "2026-08-23"
    assert plain["meta"]["config_hash"] == stamped["meta"]["config_hash"]
    del plain["meta"]["timestamp"], stamped["meta"]["timestamp"]
    assert plain == stamped


# argv, and the fragment of the one-line message naming the bad value
BAD_INPUTS = {
    "doubling-n-0": (["doubling", "sweep", "--m", "2", "--n", "0"], "n = 0"),
    # the finest grid is surfaces.MAX_GRID_N = 512; no test builds one
    "doubling-n-516": (["doubling", "sweep", "--m", "2", "--n", "516"], "at most 512, got n = 516"),
    "doubling-n-indivisible": (
        ["doubling", "sweep", "--m", "2", "--n", "7"], "got n = 7, m = 2"
    ),
    "tubes-h-negative": (["fermi", "tubes", "--h", "-1"], "got h = -1.0"),
    "tubes-h-underflow": (["fermi", "tubes", "--h", "1e-300"], "h = 1e-300 is too small"),
    "tubes-h-0.8": (["fermi", "tubes", "--h", "0.8"], "below pi/4, got h = 0.8"),
    # below 5.3e-7 the margin, about 69 h^2, is the budget's rounding
    "tubes-h-1e-8": (["fermi", "tubes", "--h", "1e-8"], "--h must be at least 5.3e-07"),
    "tubes-h-1e-150": (["fermi", "tubes", "--h", "1e-150"], "at least 5.3e-07, below which"),
    "tubes-h-nan": (["fermi", "tubes", "--h", "nan"], "--h must be finite, got h = nan"),
    "solve-h-inf": (["catenoid", "solve", "--r", "1", "--h", "inf"], "--h must be finite, got h = inf"),
    "solve-h-subnormal": (["catenoid", "solve", "--r", "1", "--h", "1e-310"], "h/r = 1e-310"),
    "width-h-negative": (["width", "run", "--h", "-0.1"], "h = -0.1"),
    "width-h-overtall": (["width", "run", "--h", "0.7"], "h/r = 0.7 exceeds"),
    "scan-r-negative": (["catenoid", "scan", "--r", "-1"], "r = -1.0"),
    "solve-r-0": (["catenoid", "solve", "--r", "0", "--h", "0.1"], "r = 0.0"),
    "solve-r-overflow": (["catenoid", "solve", "--r", "1e200", "--h", "0.5"], "r = 1e+200 exceeds"),
    "scan-r-overflow": (["catenoid", "scan", "--r", "1e160"], "r = 1e+160 exceeds"),
    "width-r-underflow": (["width", "run", "--r", "1e-160", "--h", "5e-161"], "r = 1e-160 is below"),
    "solve-h-1": (
        ["catenoid", "solve", "--r", "10", "--h", "1"], "-log h > 0, got h = 1.0"
    ),
    "cutoff-torus-t-2": (["cutoff", "torus", "--t", "2"], "got t = 2.0"),
    # an m = 3 band must fit in its symmetry cell, inscribed radius pi/(3 sqrt 2)
    "cutoff-torus-t-0.75": (["cutoff", "torus", "--t", "0.75"], "neck radius 0.75 leaves the"),
    "cutoff-torus-t-tiny": (["cutoff", "torus", "--t", "1e-300"], "got t = 1e-300"),
    "cutoff-disk-t-2": (["cutoff", "disk", "--t", "2"], "got t = 2.0"),
    "cutoff-disk-t-tiny": (["cutoff", "disk", "--t", "1e-300"], "got t = 1e-300"),
    "neck-fit-n-1": (["neck", "fit", "--n", "1"], "got n = 1"),
    "doubling-m-1": (["doubling", "sweep", "--m", "1"], "got m = 1"),
    # the default grid 8 m passes MAX_GRID_N = 512 past m = 64; --n was not given
    "doubling-m-65": (["doubling", "sweep", "--m", "65"], "--m must be at most 64 when --n"),
    "doubling-m-100": (["doubling", "sweep", "--m", "100"], "got m = 100"),
    "doubling-epsilon-negative": (
        ["doubling", "sweep", "--m", "2", "--epsilon", "-1"], "got epsilon = -1.0"
    ),
    "doubling-delta-0.7": (
        ["doubling", "sweep", "--m", "2", "--delta", "0.7"], "got delta = 0.7"
    ),
    "doubling-epsilon-0": (
        ["doubling", "sweep", "--m", "2", "--epsilon", "0"], "--epsilon must be positive"
    ),
}


def _assert_one_line_error(code, err, named):
    assert code == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("argv, named", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_one_line_exit_one(argv, named, capsys):
    # in-process: an uncaught exception would fail the test with its traceback
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    _assert_one_line_error(code, capsys.readouterr().err, named)


def test_largest_accepted_radius(capsys):
    # at R_MAX the areas reach 2*pi*R_MAX^2 = max/2 and stay finite
    r = repr(R_MAX)
    assert cli.run(["catenoid", "scan", "--r", r, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["passed"] is True
    assert cli.run(["catenoid", "solve", "--r", r, "--h", "0.5", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert math.isfinite(row["area_unstable"]) and row["area_unstable"] > 1e307
    code = cli.run(["catenoid", "scan", "--r", repr(math.nextafter(R_MAX, math.inf))])
    _assert_one_line_error(code, capsys.readouterr().err, "exceeds")


@pytest.mark.parametrize("r", [1000.0, 1e-3, R_MAX], ids=["1000", "1e-3", "R_MAX"])
def test_width_run_in_units_of_r(r, capsys):
    # the width engine runs at (1, h/r) and the excess in units of r, so
    # every r gives the excess error of r = 1, up to the rounding of h/r
    assert cli.run(["width", "run", "--r", repr(r), "--h", repr(0.5 * r), "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["morse_index"] == 1 and math.isfinite(row["width"])
    assert row["area"] == pytest.approx(acceptance.width_run(1.0, 0.5).rows[0]["area"], rel=1e-9)


@pytest.mark.parametrize("m, epsilon", [(2, "1e-15"), (2, "1e-300"), (3, "1e-300"),
                                        (4, "1e-300"), (2, "5e-324")])
def test_witness_genus_at_any_positive_tube_radius(m, epsilon, capsys):
    # the witness collar is laid out from ring indices, so the genus holds
    # at every positive radius, down to the smallest subnormal cap
    assert cli.run(["doubling", "sweep", "--m", str(m), "--epsilon", epsilon, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["regular_chi"] == -2 * m * m


@pytest.mark.parametrize("t", [5e-39, 1e-100])
def test_cutoff_disk_down_to_a_normal_t_squared(t, capsys):
    # the ring sum needs only t^2 to be a normal double
    assert cli.run(["cutoff", "disk", "--t", repr(t), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["area"] <= 1e-15


def test_width_run_below_the_domain_fails_by_name(capsys):
    # the width engine's domain at r = 1 ends between h = 0.008 and 0.007:
    # below it the saddle found is no certified mountain pass.  At 0.008 the
    # saddle certifies, but its excess misses the tolerance: a printed report
    assert cli.run(["width", "run", "--h", "0.008", "--json"]) == 2
    body = json.loads(capsys.readouterr().out)
    assert body["rows"][0]["morse_index"] == 1
    assert body["summary"]["passed"] is False
    code = cli.run(["width", "run", "--h", "0.007"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("verification failure:")
    assert "h = 0.007" in err[0]


def test_bad_input_through_module_entry_point():
    argv, named = BAD_INPUTS["doubling-m-1"]
    proc = _run_from_source(["-m", "catsweep.cli"] + argv)
    _assert_one_line_error(proc.returncode, proc.stderr, named)


def test_csv_output(capsys):
    code = cli.run(["cutoff", "disk", "--t", "0.01", "--csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "area,energy,reference,t"
    assert len(lines) == 2


def test_out_writes_file_atomically(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code = cli.run(["neck", "fit", "--n", "4", "--out", str(path)])
    assert code == 0
    body = json.loads(path.read_text())
    assert body["meta"]["command"] == "neck-fit"
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]


def test_neck_control_dimension(capsys):
    assert cli.run(["neck", "fit", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_tubes_margin_read_above_the_floor(capsys):
    # the margin holds the first row's excised disks, 4 pi t^4 cos 2h at
    # t = 0.05, and h^2 times the offset's gain less the necks' cost; at
    # h = 1e-5 that second part over h^2 reads 74.7447, its value at
    # h = 1e-4 to within the margin's rounding over h^2 (an ulp of 4*pi^2
    # is 7.1e-15, 7.1e-5 h^2 here)
    kappas = []
    for h in (1e-4, 1e-5):
        assert cli.run(["fermi", "tubes", "--h", repr(h), "--json"]) == 0
        s = json.loads(capsys.readouterr().out)["summary"]
        disks = 4.0 * math.pi * 0.05 ** 4 * math.cos(2.0 * h)
        kappas.append((s["margin"] - disks) / (h * h))
    assert kappas[1] == pytest.approx(kappas[0], abs=2e-4)
    assert kappas[1] == pytest.approx(74.7447, abs=2e-4)


def test_verify_all_exit_codes(monkeypatch, capsys):
    good = CriterionResult(1, "x", True, "d", 0.0, 1.0)
    bad = CriterionResult(2, "y", False, "d", 0.0, 1.0)
    monkeypatch.setattr(cli.acceptance, "run_all", lambda: [good, good])
    assert cli.run(["verify-all"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli.acceptance, "run_all", lambda: [good, bad])
    assert cli.run(["verify-all"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "1/2" in out


def test_verify_all_reports_a_raised_error_as_a_failure(monkeypatch, capsys):
    # a CatsweepError inside one criterion is that criterion's FAIL line;
    # the others still run, and nothing reaches stderr
    def raising():
        raise NonConvergence("no root within 60 steps")

    monkeypatch.setattr(
        acceptance,
        "_CRITERIA",
        (("raises", raising, 1.0), ("passes", lambda: (True, "fine"), 1.0)),
    )
    assert cli.run(["verify-all"]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("[ 1] FAIL")
    assert lines[0].endswith("raises: NonConvergence: no root within 60 steps")
    assert lines[1].startswith("[ 2] PASS")
    assert lines[2] == "1/2 criteria passed"
    assert captured.err == ""


def _loaded_after(statement, prefix):
    # a fresh interpreter runs the statement, then lists the loaded modules
    # under prefix; every command would pay their import before it starts
    code = (
        "import sys\n%s\n"
        "print(*sorted(m for m in sys.modules if m.startswith(%r)), file=sys.stderr)"
        % (statement, prefix)
    )
    proc = _run_from_source(["-c", code])
    return proc, proc.stderr.split()


def test_cli_import_leaves_scipy_unloaded():
    proc, loaded = _loaded_after("import catsweep.cli", "scipy")
    assert proc.returncode == 0 and loaded == [], proc.stderr


def test_doubling_sweep_leaves_scipy_unloaded():
    # the doubled assembly calls no LAPACK or sparse routine
    run = "from catsweep import cli\nassert cli.run(%r) == 0" % (
        ["doubling", "sweep", "--m", "2", "--json"],)
    proc, loaded = _loaded_after(run, "scipy")
    assert proc.returncode == 0 and loaded == [], proc.stderr


def test_checks_criteria_leave_scipy_unloaded():
    # every criterion but the width's (3) and the doubled family's (9):
    # the second variation and the Jacobi spectrum need numpy.linalg only,
    # and the cutoff energies and the tube family integrate polar bands
    run = ("from catsweep import acceptance\n"
           "assert all(acceptance.run_criterion(i).ok for i in (1, 2, 4, 5, 6, 7, 8, 10))")
    proc, loaded = _loaded_after(run, "scipy")
    assert proc.returncode == 0 and loaded == [], proc.stderr


@pytest.mark.parametrize("statement", [
    "import catsweep.cli",
    "from catsweep import cli\nassert cli.run(['doubling', 'sweep', '--m', '2', '--json']) == 0",
], ids=["import", "doubling-sweep"])
def test_numpy_ma_stays_unloaded(statement):
    # numpy's set routines (np.unique, np.union1d, np.setdiff1d) import
    # numpy.ma; the package sorts and compares neighbours instead
    proc, loaded = _loaded_after(statement, "numpy.ma.")
    assert proc.returncode == 0 and loaded == [], proc.stderr


def test_width_run_leaves_scipy_sparse_unloaded():
    # the width engine needs scipy.linalg's tridiagonal routines only
    run = "from catsweep import cli\nassert cli.run(%r) == 0" % (
        ["width", "run", "--h", "0.5", "--json"],)
    proc, loaded = _loaded_after(run, "scipy.sparse")
    assert proc.returncode == 0 and loaded == [], proc.stderr


@pytest.mark.skipif(
    shutil.which("catsweep") is None, reason="catsweep executable not installed"
)
def test_console_script_installed():
    exe = shutil.which("catsweep")
    assert exe is not None
    proc = subprocess.run(
        [exe, "neck", "fit", "--n", "5", "--json"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["passed"] is True


def test_console_script_entry_point():
    # what the installed catsweep wrapper runs, checked without installing it
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["catsweep"]
    assert target == "catsweep.cli:main"
    mod, attr = target.split(":")
    code = (
        "import sys, importlib; "
        "sys.exit(getattr(importlib.import_module(%r), %r)())" % (mod, attr)
    )
    proc = _run_from_source(["-c", code, "neck", "fit", "--n", "5", "--json"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["passed"] is True

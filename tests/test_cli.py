import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catsweep
from catsweep import cli
from catsweep.acceptance import CriterionResult
from catsweep.errors import BudgetViolated


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
    assert set(row) >= {"area", "c_unstable", "c_stable", "area_stable", "bound_value"}
    assert body["summary"]["passed"] is True


def test_usage_error_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.run(["catenoid", "solve", "--r", "1"])
    assert exc.value.code == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.run(["--help"])
    assert exc.value.code == 0


def test_config_error_exit_one(capsys):
    code = cli.run(["catenoid", "solve", "--r", "1", "--h", "0.9"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_tolerance_miss_exit_two(capsys):
    code = cli.run(
        ["width", "run", "--r", "1", "--h", "0.3", "--tolerance", "1e-9", "--json"]
    )
    assert code == 2
    body = json.loads(capsys.readouterr().out)
    assert body["summary"]["passed"] is False


def test_budget_violation_exit_two(monkeypatch, capsys):
    def boom(*a, **k):
        raise BudgetViolated("synthetic")

    monkeypatch.setattr(cli, "assemble_doubled_sweepout", boom)
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
    "quad-step-0": (["fermi", "quad", "--step", "0"], "step = 0"),
    "quad-n-0": (["fermi", "quad", "--n", "0"], "n = 0"),
    "tubes-n-0": (["fermi", "tubes", "--n", "0"], "n = 0"),
    "cutoff-torus-n-0": (["cutoff", "torus", "--n", "0"], "n = 0"),
    "doubling-n-0": (["doubling", "sweep", "--m", "2", "--n", "0"], "n = 0"),
    "tubes-h-nan": (["fermi", "tubes", "--n", "8", "--h", "nan"], "--h must be finite, got h = nan"),
    "width-tolerance-nan": (
        ["width", "run", "--h", "0.5", "--tolerance", "nan"],
        "--tolerance must be finite, got tolerance = nan",
    ),
    "solve-h-inf": (["catenoid", "solve", "--r", "1", "--h", "inf"], "--h must be finite, got h = inf"),
    "width-tolerance-negative": (
        ["width", "run", "--h", "0.5", "--tolerance", "-1"], "tolerance = -1.0"
    ),
    "width-h-negative": (["width", "run", "--h", "-0.1"], "h = -0.1"),
    "width-h-overtall": (["width", "run", "--h", "0.7"], "h/r = 0.7 exceeds"),
    "scan-r-negative": (["catenoid", "scan", "--r", "-1"], "r = -1.0"),
    "cutoff-disk-t-2": (["cutoff", "disk", "--t", "2"], "got t = 2.0"),
    "neck-fit-n-1": (["neck", "fit", "--n", "1"], "got n = 1"),
    "doubling-m-1": (["doubling", "sweep", "--m", "1"], "got m = 1"),
    "doubling-epsilon-negative": (
        ["doubling", "sweep", "--m", "2", "--epsilon", "-1"], "got epsilon = -1.0"
    ),
    "doubling-delta-0.7": (
        ["doubling", "sweep", "--m", "2", "--delta", "0.7"], "got delta = 0.7"
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

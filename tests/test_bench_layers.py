"""The benchmark's view of the package.

`perfbench/tracing.py` rebinds the `(module, function)` pairs it lists and
reads counts off their results; a rename or deletion in the package would
crash a traced benchmark run, so these names are checked here.  The
workloads' own checks run here too, each operation's verdict a pass, so
that a regression they would catch fails the suite before it fails a
benchmark run.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

from catsweep.doubling import doubled_slice
from catsweep.revolution import WidthResult

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_traced_layers_exist(tracing):
    for module, name in tracing.LAYERS:
        assert callable(getattr(importlib.import_module("catsweep." + module), name))


def test_traced_results_carry_their_counts(tracing):
    assert "iterations" in {f.name for f in dataclasses.fields(WidthResult)}
    sl = doubled_slice(0.2, 2)
    assert len(sl.vertices) > 0 and len(sl.triangles) > 0


def test_doubling_workload_passes_its_check(workloads):
    for op in workloads.build("doubling", 0):
        verdict = op.check(op.run())
        assert verdict.status == "pass", verdict.detail


@pytest.mark.parametrize("workload", ["checks", "width"])
def test_workload_passes_its_check(workloads, workload):
    ops = workloads.build(workload, 0)
    assert ops
    for op in ops:
        verdict = op.check(op.run())
        assert verdict.status == "pass", verdict.detail

"""Self-tests of the benchmark: span arithmetic, metric names, tracing
coverage, and that tracing leaves catsweep's outputs unchanged.

    python3 -m pytest -q perfbench
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from catsweep import doubling, fermi, mesh, revolution  # noqa: E402
from catsweep.acceptance import CriterionResult, run_criterion  # noqa: E402
from catsweep.report import report_to_json  # noqa: E402
from catsweep.surfaces import clifford_torus  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_doubling_stage_times_from_spans():
    spans = [
        Span("doubling.assemble_doubled_sweepout", 0.0, 10.0, -1, 0),
        Span("doubling.doubled_slice", 1.0, 3.0, 0, 0, {"vertices": 5, "triangles": 7}),
        Span("mesh.euler_characteristic", 2.0, 2.5, 1, 0),
        Span("fermi.two_sided_tube_family", 4.0, 8.0, 0, 0),
        Span("mesh.geodesic_distances", 5.0, 7.0, 3, 0),
        Span("fermi.two_sided_tube_family", 20.0, 21.0, -1, 1),
    ]
    got = {k: v["value"] for k, v in tracing.layer_metrics(spans, 1).items()}
    assert got["doubling.stage.pair_s"] == 2.0
    assert got["doubling.stage.graph_necks_s"] == 4.0
    assert got["doubling.stage.collapse_s"] == 4.0
    assert got["doubling.doubled_slice.self_s"] == 1.5
    assert got["fermi.two_sided_tube_family.calls"] == 2
    assert got["fermi.two_sided_tube_family.self_s"] == 3.0
    assert got["doubling.slice_vertices"] == 5
    assert got["doubling.slice_triangles"] == 7


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for metrics in (run.END_TO_END, tracing.PER_LAYER):
        for name in metrics:
            assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer = tracing.layer_metrics([], 1)
    assert list(layer) == list(tracing.PER_LAYER)


def test_summary_percentile_keeps_ten_samples_beyond():
    assert "p50" not in run.summarize([1.0] * 19)
    assert run.summarize(list(range(20)))["p50"] == 9
    got = run.summarize(list(range(100)))
    assert got["p90"] == 89 and got["n"] == 100 and got["median"] == 49.5


def test_wrapped_function_hit_through_mesh_and_fermi():
    cl = clifford_torus(16)
    original = mesh.geodesic_distances
    tr = tracing.Tracer()
    with tracing.traced(tr):
        assert fermi.geodesic_distances is mesh.geodesic_distances is not original
        mesh.geodesic_distances(cl, 0)
        fermi.geodesic_distances(cl, 1)
        fermi.build_cutoff(cl, 2, 0.05)
    assert mesh.geodesic_distances is original
    assert fermi.geodesic_distances is original
    names = [(sp.name, sp.parent) for sp in tr.spans]
    assert names == [
        ("mesh.geodesic_distances", -1),
        ("mesh.geodesic_distances", -1),
        ("fermi.build_cutoff", -1),
        ("mesh.geodesic_distances", 2),
    ]


def test_tracing_leaves_width_unchanged():
    plain = revolution.mountain_pass_width(1.0, 0.5)
    tr = tracing.Tracer()
    with tracing.traced(tr):
        traced = revolution.mountain_pass_width(1.0, 0.5)
    assert traced.width == plain.width
    assert traced.iterations == plain.iterations
    assert (traced.profile_at_max.f_values == plain.profile_at_max.f_values).all()
    width_spans = [sp for sp in tr.spans if sp.name == "revolution.mountain_pass_width"]
    assert width_spans[0].counts == {"descent_steps": plain.iterations}


def test_tracing_leaves_doubling_report_bytes_unchanged():
    # one slice from each stage: pair, graph necks, collapse
    grid = [0.1, 0.3, 0.45]
    plain = report_to_json(doubling.assemble_doubled_sweepout(2, t_grid=grid))
    tr = tracing.Tracer()
    with tracing.traced(tr):
        traced = report_to_json(doubling.assemble_doubled_sweepout(2, t_grid=grid))
    assert traced == plain
    names = {sp.name for sp in tr.spans}
    assert {"doubling.doubled_slice", "fermi.two_sided_tube_family"} <= names


def test_criterion_2_is_a_known_failure():
    res = run_criterion(2)
    assert not res.ok
    assert workloads.check_criterion(res).status == "known_fail"
    moved = CriterionResult(2, res.title, False, res.detail.replace("0.8292", "0.8391"),
                            res.elapsed, res.limit)
    assert workloads.check_criterion(moved).status == "fail"
    other = CriterionResult(7, "x", False, res.detail, 0.0, 1.0)
    assert workloads.check_criterion(other).status == "fail"


def test_seed_permutes_order_only():
    base = [op.name for op in workloads.build("checks", 0)]
    assert [op.name for op in workloads.build("checks", 0)] == base
    orders = {tuple(op.name for op in workloads.build("checks", s)) for s in range(8)}
    assert len(orders) > 1
    assert all(sorted(o) == sorted(base) for o in orders)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "width", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""

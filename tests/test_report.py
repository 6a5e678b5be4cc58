import json

import pytest

from catsweep.report import (
    config_hash,
    make_report,
    report_to_csv,
    report_to_json,
    write_atomic,
)


def _sample():
    rows = [
        {"t": 0.3, "area": 1.5},
        {"t": 0.1, "area": 2.0},
        {"t": 0.2, "area": 1.75},
    ]
    return make_report("demo", {"r": 1.0, "h": 0.3}, rows, budget=2.5)


def test_summary_fields():
    rep = _sample()
    assert rep.summary["sup_area"] == 2.0
    assert rep.summary["budget"] == 2.5
    assert rep.summary["margin"] == 0.5
    assert rep.summary["passed"] is True
    assert [row["t"] for row in rep.rows] == [0.1, 0.2, 0.3]


def test_budget_equality_fails():
    rep = make_report("demo", {}, [{"t": 0.0, "area": 1.0}], budget=1.0)
    assert rep.summary["passed"] is False
    assert rep.summary["margin"] == 0.0


def test_json_is_byte_stable_and_parseable():
    a = report_to_json(_sample())
    b = report_to_json(_sample())
    assert a == b
    parsed = json.loads(a)
    assert parsed["summary"]["sup_area"] == 2.0
    assert parsed["meta"]["command"] == "demo"
    # keys come out sorted at every level
    assert list(parsed) == sorted(parsed)
    assert list(parsed["summary"]) == sorted(parsed["summary"])


def test_float_format_repr_roundtrip():
    val = 0.1 + 0.2
    rep = make_report("demo", {}, [{"t": 0.0, "area": val}], budget=1.0)
    parsed = json.loads(report_to_json(rep))
    assert parsed["rows"][0]["area"] == val


def test_hash_ignores_timestamp():
    stamped = _sample()
    stamped.meta["timestamp"] = "2024-01-01T00:00:00Z"
    assert _sample().meta["timestamp"] is None
    assert _sample().meta["config_hash"] == stamped.meta["config_hash"]
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    assert len(config_hash({})) == 16


def test_nonfinite_rejected():
    rep = make_report("demo", {}, [{"t": 0.0, "area": float("nan")}], budget=1.0)
    with pytest.raises(ValueError):
        report_to_json(rep)


def test_csv_output():
    text = report_to_csv(_sample())
    lines = text.strip().split("\n")
    assert lines[0] == "area,t"
    assert len(lines) == 4
    assert lines[1].startswith("2") and lines[1].endswith("0.10000000000000001")


def test_write_atomic(tmp_path):
    target = tmp_path / "out.json"
    write_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    write_atomic(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []

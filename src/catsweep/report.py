"""Report containers and deterministic serialization.

Reports hold a parameter grid, per-slice rows and a sup/budget summary.
Serialization is byte-stable: keys are emitted in sorted order, floats in
17-significant-digit scientific-free form, and no wall-clock data enters
the hashed body (a timestamp can be attached on request, outside the hash).
"""

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass

from .errors import DomainError


@dataclass
class SweepoutReport:
    meta: dict
    rows: list
    summary: dict


def _canonical(obj):
    # stable float text; 17 significant digits round-trip float64 exactly
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("non-finite float in report")
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(k) + ":" + _canonical(v) for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    raise TypeError("unserializable report entry of type %s" % type(obj).__name__)


def config_hash(params):
    return hashlib.sha256(_canonical(params).encode()).hexdigest()[:16]


def make_report(command, params, rows, budget):
    """Assemble a report with a computed summary.

    rows: list of dicts each holding at least 't' and a finite 'area' (a
    NaN is refused, as max() would skip it unless it came first).  The
    summary records the sup over rows, the budget, the margin and a pass flag.
    The timestamp starts empty; the caller may set it, outside the hash.
    """
    for row in rows:
        if not math.isfinite(row["area"]):
            raise DomainError("%s: non-finite area %s at t = %s" % (command, row["area"], row["t"]))
    rows = sorted(rows, key=lambda row: row["t"])
    sup = max(row["area"] for row in rows) if rows else 0.0
    summary = {
        "sup_area": float(sup),
        "budget": float(budget),
        "margin": float(budget - sup),
        "passed": bool(sup < budget),
    }
    meta = {
        "command": command,
        "config_hash": config_hash(params),
        "params": params,
        "timestamp": None,
    }
    return SweepoutReport(meta=meta, rows=rows, summary=summary)


def report_to_json(report):
    body = {"meta": report.meta, "rows": report.rows, "summary": report.summary}
    return _canonical(body) + "\n"


def report_to_csv(report):
    buf = io.StringIO()
    keys = sorted({k for row in report.rows for k in row})
    writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
    writer.writeheader()
    for row in report.rows:
        writer.writerow({k: format(v, ".17g") if isinstance(v, float) else v for k, v in row.items()})
    return buf.getvalue()


def write_atomic(path, text):
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

"""Spans around calls into catsweep's public functions, and the layer
metrics derived from them.

Tracing lives entirely in the benchmark: `traced` rebinds every
`catsweep.*` module attribute that is one of the functions in `LAYERS`
to a wrapper that records a span, and restores the originals on exit.
A module that imported a function by name (`fermi.geodesic_distances`)
holds the same object as its home module, so both call paths are
traced.  Private helpers (`_WidthEngine.classify`, `_collapse_area`,
`_spherical_triangle_areas`, `_slice_index_map`) are deliberately left
unwrapped: their time shows up as self time of the public caller.
"""

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from workloads import CHECK_CRITERIA

# (module, function) pairs whose calls become spans
LAYERS = (
    ("revolution", "mountain_pass_width"),
    ("catenoid", "solve_parameters"),
    ("surfaces", "product_torus"),
    ("surfaces", "clifford_torus"),
    ("mesh", "geodesic_distances"),
    ("mesh", "euler_characteristic"),
    ("mesh", "triangle_areas"),
    ("mesh", "cotan_stiffness"),
    ("mesh", "level_set_perimeter"),
    ("fermi", "jacobi_lowest"),
    ("fermi", "build_cutoff"),
    ("fermi", "two_sided_tube_family"),
    ("doubling", "assemble_doubled_sweepout"),
    ("doubling", "doubled_slice"),
)

# work counts read from the public return value of a traced call
_COUNTERS = {
    "revolution.mountain_pass_width": lambda res: {"descent_steps": res.iterations},
    "doubling.doubled_slice": lambda res: {
        "vertices": len(res.vertices),
        "triangles": len(res.triangles),
    },
}

# name -> unit, in output order; every traced run reports all of them
PER_LAYER = {
    "revolution.mountain_pass_width.calls": "count",
    "revolution.mountain_pass_width.s": "s",
    "revolution.descent_steps": "count",
    "revolution.step_us": "us",
    "revolution.width_rel_err": "ratio",
    "revolution.width_excess_rel_err": "ratio",
    "catenoid.solve_parameters.calls": "count",
    "catenoid.solve_parameters.s": "s",
    "surfaces.product_torus.calls": "count",
    "surfaces.product_torus.s": "s",
    "surfaces.clifford_torus.calls": "count",
    "surfaces.clifford_torus.s": "s",
    "mesh.geodesic_distances.calls": "count",
    "mesh.geodesic_distances.s": "s",
    "mesh.euler_characteristic.calls": "count",
    "mesh.euler_characteristic.s": "s",
    "mesh.triangle_areas.calls": "count",
    "mesh.triangle_areas.s": "s",
    "mesh.cotan_stiffness.calls": "count",
    "mesh.cotan_stiffness.s": "s",
    "mesh.level_set_perimeter.calls": "count",
    "mesh.level_set_perimeter.s": "s",
    "fermi.jacobi_lowest.s": "s",
    "fermi.build_cutoff.s": "s",
    "fermi.two_sided_tube_family.calls": "count",
    "fermi.two_sided_tube_family.s": "s",
    "fermi.two_sided_tube_family.self_s": "s",
    "doubling.assemble_doubled_sweepout.s": "s",
    "doubling.assemble_doubled_sweepout.self_s": "s",
    "doubling.doubled_slice.calls": "count",
    "doubling.doubled_slice.s": "s",
    "doubling.doubled_slice.self_s": "s",
    "doubling.stage.pair_s": "s",
    "doubling.stage.graph_necks_s": "s",
    "doubling.stage.collapse_s": "s",
    "doubling.slice_vertices": "count",
    "doubling.slice_triangles": "count",
    "doubling.margin_frac": "ratio",
    **{"acceptance.criterion_%d.s" % i: "s" for i in CHECK_CRITERIA},
    "process.wall_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root span
    op: int      # operation id within the run
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans in memory; single-threaded, like the workloads."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(res)
            return res

        return traced_call


@contextmanager
def traced(tracer):
    """Rebind every catsweep module attribute that is a traced function."""
    modules = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "catsweep" or name.startswith("catsweep."))
    ]
    saved = []
    try:
        for mod_name, fn_name in LAYERS:
            orig = getattr(sys.modules["catsweep." + mod_name], fn_name)
            wrapper = tracer.wrap("%s.%s" % (mod_name, fn_name), orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def self_times(spans):
    """Each span's duration minus the durations of its child spans.

    The tracer is single-threaded and stack-based, so children never
    overlap each other or outlast their parent.
    """
    out = [sp.duration for sp in spans]
    for sp in spans:
        if sp.parent >= 0:
            out[sp.parent] -= sp.duration
    return out


def layer_metrics(spans, n_passes, *, values=None, wall_s=0.0, cpu_s=0.0,
                  overhead_frac=0.0):
    """Per-pass layer metrics named as in `PER_LAYER`.

    `values` maps a metric name to the values the operation checks gave
    for it: accuracy figures and each criterion's `CriterionResult.elapsed`.
    Layers and values a workload never produces report 0.
    """
    values = values or {}
    selfs = self_times(spans)
    calls, total, self_total, counts = {}, {}, {}, {}
    stage_pair = stage_necks = 0.0
    for sp, st in zip(spans, selfs):
        calls[sp.name] = calls.get(sp.name, 0) + 1
        total[sp.name] = total.get(sp.name, 0.0) + sp.duration
        self_total[sp.name] = self_total.get(sp.name, 0.0) + st
        for key, val in sp.counts.items():
            counts[key] = counts.get(key, 0) + val
        if sp.parent >= 0 and spans[sp.parent].name == "doubling.assemble_doubled_sweepout":
            if sp.name == "doubling.doubled_slice":
                stage_pair += sp.duration
            elif sp.name == "fermi.two_sided_tube_family":
                stage_necks += sp.duration

    raw = {}
    for mod_name, fn_name in LAYERS:
        name = "%s.%s" % (mod_name, fn_name)
        raw[name + ".calls"] = calls.get(name, 0)
        raw[name + ".s"] = total.get(name, 0.0)
        raw[name + ".self_s"] = self_total.get(name, 0.0)
    steps = counts.get("descent_steps", 0)
    raw["revolution.descent_steps"] = steps
    raw["doubling.stage.pair_s"] = stage_pair
    raw["doubling.stage.graph_necks_s"] = stage_necks
    raw["doubling.stage.collapse_s"] = raw["doubling.assemble_doubled_sweepout.self_s"]
    raw["doubling.slice_vertices"] = counts.get("vertices", 0)
    raw["doubling.slice_triangles"] = counts.get("triangles", 0)
    for i in CHECK_CRITERIA:
        name = "acceptance.criterion_%d.s" % i
        raw[name] = sum(values.get(name, ()))

    out = {}
    for name, unit in PER_LAYER.items():
        if name in raw:
            out[name] = {"value": raw[name] / n_passes, "unit": unit}
    width_s = raw["revolution.mountain_pass_width.s"]
    out["revolution.step_us"] = {
        "value": 1e6 * width_s / steps if steps else 0.0, "unit": "us"
    }
    for name, worst in (
        ("revolution.width_rel_err", max),
        ("revolution.width_excess_rel_err", max),
        ("doubling.margin_frac", min),
    ):
        got = values.get(name)
        out[name] = {"value": worst(got) if got else 0.0, "unit": PER_LAYER[name]}
    out["process.wall_s"] = {"value": wall_s, "unit": "s"}
    out["process.cpu_s"] = {"value": cpu_s, "unit": "s"}
    out["trace.overhead_frac"] = {"value": overhead_frac, "unit": "ratio"}
    return {name: out[name] for name in PER_LAYER}

#!/usr/bin/env python3
"""Run one catsweep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload width --seed 1 --seconds 10 --trace 0

Run from the repository root; catsweep is imported from `src/`.  Whole
passes over the workload's operations repeat until `--seconds` have
elapsed (at least one pass), and every operation's output is checked.

`--trace 0` reports the end-to-end metrics: `setup_s` (median over fresh
set-up processes, half before the passes and half after), `wall_s`
(median pass) and `peak_rss_mb`.  `--trace 1` repeats pairs of one
untraced pass and one pass with spans around the public functions in
`tracing.LAYERS`, and reports the per-layer metrics; the spans are
written to `perfbench/out/`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it describe the run.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# half of the set-up probes run before the passes and half after, so one
# run's setup_s is not a single reading of how fast the host is just then
SETUP_PROBES = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit; every untraced run reports all of them
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def cap_blas_threads(nproc):
    """Set the BLAS pools to nproc threads through this process's environment.

    Must run before numpy is imported; child processes inherit the cap.
    Inherited values are overwritten, so the caller's environment cannot
    change what is measured.
    """
    cap = {var: nproc for var in BLAS_THREAD_VARS}
    os.environ.update({var: str(nproc) for var in BLAS_THREAD_VARS})
    return cap


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(nproc, cap):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _openblas_threads(),
        "blas_thread_cap": cap,
    }


def summarize(samples):
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    for permille in (999, 990, 900, 750, 500):
        rank = -(-permille * n // 1000)  # nearest-rank, 1-based
        if n - rank >= 10:
            out["p%g" % (permille / 10)] = ordered[rank - 1]
            break
    return out


def measure_setup(workload, seed, probes):
    """Seconds from process start to the first operation, per fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
        samples.append(elapsed)
    return samples


def run_passes(ops, seconds, tracer=None):
    """Repeat whole passes until `seconds` have elapsed, at least one.

    Returns the wall seconds of each pass and, per operation run, its
    name, seconds and verdict.  Checks run outside the timed region.
    """
    from workloads import Verdict

    pass_s, records = [], []
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds:
        outcomes = []
        t_pass = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            t_op = time.perf_counter()
            try:
                res, err = op.run(), None
            except Exception:  # an operation failing is a measured outcome
                res, err = None, traceback.format_exc(limit=3)
            outcomes.append((op, res, err, time.perf_counter() - t_op))
        pass_s.append(time.perf_counter() - t_pass)
        for op, res, err, op_s in outcomes:
            verdict = Verdict("fail", err) if err else op.check(res)
            records.append((op.name, op_s, verdict))
    return pass_s, records


def _tally(records):
    attempted = len(records)
    failed = sum(1 for _, _, v in records if v.status == "fail")
    values = {}
    for _, _, v in records:
        for key, val in v.values.items():
            values.setdefault(key, []).append(val)
    return attempted, failed, values


def _describe(records):
    """One entry per distinct operation: statuses, times and last detail."""
    ops = {}
    for name, op_s, v in records:
        entry = ops.setdefault(name, {"status": [], "s": [], "detail": ""})
        if v.status not in entry["status"]:
            entry["status"].append(v.status)
        entry["s"].append(op_s)
        entry["detail"] = v.detail.strip().splitlines()[-1] if v.detail else ""
    return ops


def run(workload, seed, seconds, trace, nproc, cap):
    import tracing
    import workloads

    ops = workloads.build(workload, seed)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "order": [op.name for op in ops],
        "machine": machine_info(nproc, cap),
    }
    if not trace:
        setup = measure_setup(workload, seed, SETUP_PROBES // 2)
        pass_s, records = run_passes(ops, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += measure_setup(workload, seed, SETUP_PROBES - SETUP_PROBES // 2)
        report["setup_s"] = summarize(setup)
        report["wall_s"] = summarize(pass_s)
        figures = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(pass_s),
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: {"value": figures[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        # pairs of one untraced and one traced pass, in an order that
        # alternates from pair to pair and seed to seed, so that host drift
        # does not show up as tracing overhead
        tracer = tracing.Tracer()
        plain_s, pass_s, plain_records, records, overheads = [], [], [], [], []
        cpu_s = 0.0
        start = time.perf_counter()
        while not overheads or time.perf_counter() - start < 2 * seconds:
            pair = {}
            for with_trace in (False, True) if (seed + len(overheads)) % 2 == 0 else (True, False):
                if with_trace:
                    cpu0 = time.process_time()
                    with tracing.traced(tracer):
                        pair[True] = run_passes(ops, 0, tracer)
                    cpu_s += time.process_time() - cpu0
                else:
                    pair[False] = run_passes(ops, 0)
            (untraced,), untraced_records = pair[False]
            (traced,), traced_records = pair[True]
            plain_s.append(untraced)
            pass_s.append(traced)
            plain_records += untraced_records
            records += traced_records
            overheads.append((traced - untraced) / untraced)
        _, _, values = _tally(records)
        metrics = tracing.layer_metrics(
            tracer.spans,
            len(pass_s),
            values=values,
            wall_s=sum(pass_s) / len(pass_s),
            cpu_s=cpu_s / len(pass_s),
            overhead_frac=statistics.median(overheads),
        )
        report["untraced_wall_s"] = summarize(plain_s)
        report["traced_wall_s"] = summarize(pass_s)
        report["trace_pairs"] = len(overheads)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / ("trace-%s-seed%d.json" % (workload, seed))
        spans_path.write_text(json.dumps([asdict(sp) for sp in tracer.spans]) + "\n")
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        records = plain_records + records

    attempted, failed, values = _tally(records)
    report["error_rate"] = failed / attempted
    report["known_fail"] = sorted({n for n, _, v in records if v.status == "known_fail"})
    report["operations"] = _describe(records)
    report["accuracy"] = {
        k: v for k, v in values.items() if not k.startswith("acceptance.")
    }
    for name, entry in report["operations"].items():
        print("# %-14s %-18s median %9.3f s  %s" % (
            name, "/".join(entry["status"]), statistics.median(entry["s"]), entry["detail"]))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("width", "doubling", "checks"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "catsweep" / "__init__.py").is_file():
        print("perfbench: no catsweep sources under %s" % SRC, file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cap = cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run(args.workload, args.seed, args.seconds, args.trace, nproc, cap)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every action runs a computation whose report phrases its verdict as a
sup-versus-budget comparison, and exits 0 on pass, 2 on a verification
failure, 1 on a usage or configuration error.  The exit code reads the
report's `passed` and nothing else.  Reports serialize to byte-stable
JSON (or CSV) and can be written atomically to a file.  The commands that
the verification battery checks compute their reports in `acceptance`,
so the handlers here only map arguments.
"""

import argparse
import math
import sys

from . import acceptance
from .doubling import assemble_doubled_sweepout, default_schedule
from .errors import BudgetViolated, CatsweepError, NonConvergence, SolverFailure
from .report import report_to_csv, report_to_json, write_atomic
from .surfaces import clifford_torus


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _cmd_doubling_sweep(args):
    given = {k: getattr(args, k) for k in ("epsilon", "delta") if getattr(args, k) is not None}
    return assemble_doubled_sweepout(args.m, schedule=default_schedule(**given), n=args.n)


def _emit(rep, args):
    text = report_to_csv(rep) if args.csv else report_to_json(rep)
    if args.out:
        write_atomic(args.out, text)
    if args.json or args.csv:
        sys.stdout.write(text)
    else:
        s = rep.summary
        sys.stdout.write(
            "command: %s\nrows: %d  sup: %.17g  budget: %.17g  margin: %.17g\nresult: %s\n"
            % (
                rep.meta["command"],
                len(rep.rows),
                s["sup_area"],
                s["budget"],
                s["margin"],
                "PASS" if s["passed"] else "FAIL",
            )
        )


def _verify_all(args):
    results = acceptance.run_all()
    for res in results:
        sys.stdout.write(res.line() + "\n")
    n_fail = sum(1 for res in results if not res.ok)
    sys.stdout.write(
        "%d/%d criteria passed\n" % (len(results) - n_fail, len(results))
    )
    return 2 if n_fail else 0


def _add_output_flags(p):
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p.add_argument("--out", help="write the report to this path atomically")
    p.add_argument("--stamp", help="timestamp string for the report metadata")


def build_parser():
    parser = _Parser(prog="catsweep", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    cat = subs.add_parser("catenoid", help="catenoid solve/scan")
    cat_sub = cat.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = cat_sub.add_parser("solve", help="solve the two-ring problem at one (r, h)")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=lambda a: acceptance.catenoid_solve(a.r, a.h))
    p = cat_sub.add_parser("scan", help="verify the excess estimate over the halving grid")
    p.add_argument("--r", type=float, default=1.0)
    _add_output_flags(p)
    p.set_defaults(handler=lambda a: acceptance.catenoid_scan(a.r))

    wid = subs.add_parser("width", help="sweepout width computations")
    wid_sub = wid.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = wid_sub.add_parser("run", help="mountain-pass width excess vs the closed form")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--h", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=lambda a: acceptance.width_run(a.r, a.h))
    p = wid_sub.add_parser("excess", help="naive vs optimal excess scaling slope")
    p.add_argument("--r", type=float, default=1.0)
    _add_output_flags(p)
    p.set_defaults(handler=lambda a: acceptance.width_excess(a.r))

    fer = subs.add_parser("fermi", help="normal-graph expansions on the middle torus")
    fer_sub = fer.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = fer_sub.add_parser("quad", help="quadratic area coefficient check")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--step", type=float, default=0.05)
    _add_output_flags(p)
    p.set_defaults(handler=lambda a: acceptance.fermi_quad(a.n, a.step))
    p = fer_sub.add_parser("tubes", help="two-sided tube family with one puncture pair")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--h", type=float, default=0.05)
    _add_output_flags(p)
    p.set_defaults(handler=lambda a: acceptance.fermi_tubes(a.n, a.h))

    cut = subs.add_parser("cutoff", help="log-cutoff energies")
    cut_sub = cut.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = cut_sub.add_parser("disk", help="flat-disk energy vs the closed form")
    p.add_argument("--t", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=lambda a: acceptance.cutoff_disk(a.t))
    p = cut_sub.add_parser("torus", help="middle-torus energy vs the fitted bound")
    p.add_argument("--t", type=float, default=0.05)
    p.add_argument("--n", type=int, default=64)
    _add_output_flags(p)
    p.set_defaults(handler=lambda a: acceptance.cutoff_torus(clifford_torus(a.n), a.t))

    dbl = subs.add_parser("doubling", help="equivariant doubled sweepout")
    dbl_sub = dbl.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = dbl_sub.add_parser("sweep", help="assemble the family and check the budget")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_doubling_sweep)

    nek = subs.add_parser("neck", help="higher-dimensional neck cost scaling")
    nek_sub = nek.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = nek_sub.add_parser("fit", help="fit the cost exponent for one dimension")
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=lambda a: acceptance.neck_fit(a.n))

    p = subs.add_parser("verify-all", help="run the whole verification battery")
    p.set_defaults(handler=None, verify=True)

    return parser


def run(argv):
    args = build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            sys.stderr.write("error: --%s must be finite, got %s = %r\n" % (name, name, value))
            return 1
    if getattr(args, "verify", False):
        return _verify_all(args)
    try:
        rep = args.handler(args)
    except (BudgetViolated, NonConvergence, SolverFailure) as exc:
        sys.stderr.write("verification failure: %s\n" % exc)
        return 2
    except CatsweepError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    rep.meta["timestamp"] = args.stamp
    try:
        _emit(rep, args)
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    return 0 if rep.summary["passed"] else 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

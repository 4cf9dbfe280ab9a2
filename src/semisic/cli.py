"""Command-line interface.

Subcommands: construct, verify, dual, region, bloch, search, spectrum.
main() hands the arguments after a command name straight to that command's
subparser, with the top-level "unrecognized arguments" error for leftovers; the
top-level parser, whose matching costs about a subparser's parse, runs only for
no arguments, -h or an unknown command.
Exit codes: 0 success, 1 semantic negative (failed verification, inconsistent
probabilities, no verified search hit under --require-solution), 2 usage, parse,
or out-of-range errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import documents, dual, model, qubit, search
from .bloch import bloch_to_probs, probs_to_bloch
from .errors import InconsistentProbabilities, NotSemiSic


def parse_number(text: str) -> float:
    """Accept decimals like 0.07 or 8e-2 and exact fractions like 2/25, rounded once."""
    text = text.strip()
    try:  # float() rounds a decimal once too, in a twentieth of Fraction's time
        value = float(Fraction(text) if "/" in text else text)
    except (ValueError, ZeroDivisionError, OverflowError):
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a number or fraction: {text!r}")
    return value


def _print_report(report: model.VerificationReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(vars(report)))  # one line, fields in declaration order
        return
    print(f"classification: {report.classification}")
    print(f"fitted_b: {report.fitted_b:.12g}")
    print(f"k: {report.k}")
    print(f"max_violation: {report.max_violation:.6g}")
    print(f"worst_condition: {report.worst_condition}")
    for name in ("equi_dev", "comp_dev", "psd_dev", "herm_dev", "trace_dev"):
        print(f"{name}: {getattr(report, name):.6g}")
    print(f"is_ic: {'yes' if report.is_ic else 'no'}")
    print(f"all_rank_one: {'yes' if report.all_rank_one else 'no'}")
    print(f"equiangular: {'yes' if report.equiangular else 'no'}")
    classes = ", ".join(f"{t:.12g} x{c}" for t, c in report.trace_classes)
    print(f"trace_classes: {classes}")


def cmd_construct(args) -> int:
    point = qubit.family_point(args.b)
    povm = qubit._member(point)
    meta = {"source": "construct", "r": point.r, "theta": point.theta}
    documents.save_povm(sys.stdout if args.out is None else args.out, povm, b=point.b,
                        k=point.params.k, metadata=meta)
    return 0


def cmd_verify(args) -> int:
    doc = documents.load_povm(args.infile)
    report = model.verify(doc.povm)
    _print_report(report, args.json)
    return 0 if report.classification != model.NOT_SEMI_SIC else 1


def _verified_dual(infile) -> tuple[dual.DualFrame, model.VerificationReport]:
    """Load a POVM document, verify it once, and build its dual frame."""
    povm = documents.load_povm(infile).povm
    report = model.verify(povm)
    if report.classification == model.NOT_SEMI_SIC:
        raise NotSemiSic(f"input is not a semi-SIC ({model._refusal(report)})")
    params = model.SemiSicParams.from_b(povm.dim, report.fitted_b, report.k)
    return dual.dual_basis(povm, params), report


def cmd_dual(args) -> int:
    frame, report = _verified_dual(args.infile)
    documents.save_dual_frame(sys.stdout if args.out is None else args.out, frame,
                              metadata={"fitted_b": report.fitted_b})
    return 0


def cmd_region(args) -> int:
    frame, _ = _verified_dual(args.infile)
    scan = dual.region_grid(frame, args.resolution)
    dual.write_region_csv(scan, sys.stdout if args.out is None else args.out)
    print(f"{int(scan.feasible.sum())} of {len(scan)} grid points feasible", file=sys.stderr)
    return 0


def cmd_bloch(args) -> int:
    point = qubit.family_point(args.b)
    if args.to_probs is not None:
        values = bloch_to_probs(np.array(args.to_probs), point)
    else:
        values = probs_to_bloch(np.array(args.to_bloch), point)
    # both maps are accurate to about 1e-10, so magnitudes below 1e-12 are rounding noise
    print(" ".join(f"{v:.12g}" if abs(v) >= 1e-12 else "0" for v in values))
    return 0


def cmd_search(args) -> int:
    config = search.SearchConfig(d=args.d, k=args.k, b=args.b, restarts=args.restarts,
                                 max_iterations=args.max_iterations, seed=args.seed,
                                 residual_goal=args.residual_goal)
    report = search.run_search(config)
    if args.out is not None:
        report.save(args.out)
    stops = ", ".join(f"{report.stop_reasons.count(r)} {r}" for r in search.STOP_REASONS
                      if r in report.stop_reasons)
    print(f"best residual: {report.best_residual:.6e} "
          f"({report.restarts_run} restarts, gradient check {report.gradient_check:.2e}; "
          f"stopped: {stops})")
    if report.best_povm is not None:
        print(f"solution found: classification {report.classification}, "
              f"k = {report.observed_k}")
    else:
        print("no candidate reached the residual goal")
    solved = report.classification in (model.SIC, model.STRICT_SEMI_SIC)
    return 1 if args.require_solution and not solved else 0


def cmd_spectrum(args) -> int:
    ks = model.admissible_k(args.d)
    print(f"{'k':>4}  {'b':>12}  {'a-':>10}  {'a+':>10}  "
          f"{'b (float)':>22}  {'a- (float)':>22}  {'a+ (float)':>22}")
    for k in ks:
        b = model.b_from_k_exact(args.d, k)
        lo, hi = model.trace_values_exact(args.d, k)
        print(f"{k:>4}  {str(b):>12}  {str(lo):>10}  {str(hi):>10}  "
              f"{float(b):>22.17g}  {float(lo):>22.17g}  {float(hi):>22.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semisic",
        description="Equiangular rank-one POVMs: construction, verification, "
                    "dual frames, feasibility regions, and numerical search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the qubit family member with overlap b")
    p.add_argument("--b", type=parse_number, required=True,
                   help="pairwise overlap, in (1/16, 1/12]; fractions like 2/25 accepted")
    p.add_argument("--out", help="output POVM JSON path (default: stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="classify a POVM document")
    p.add_argument("--in", dest="infile", required=True, help="POVM JSON path")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dual", help="compute the dual frame of a POVM document")
    p.add_argument("--in", dest="infile", required=True, help="POVM JSON path")
    p.add_argument("--out", help="output dual-frame JSON path (default: stdout)")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("region", help="scan the qubit feasibility region to CSV")
    p.add_argument("--in", dest="infile", required=True, help="POVM JSON path")
    p.add_argument("--resolution", type=int, required=True, help="simplex grid resolution")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("bloch", help="map between Bloch vectors and outcome probabilities")
    p.add_argument("--b", type=parse_number, required=True, help="family overlap")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-probs", nargs=3, type=parse_number, metavar=("RX", "RY", "RZ"),
                       help="Bloch vector to probabilities")
    group.add_argument("--to-bloch", nargs=4, type=parse_number, metavar=("Q1", "Q2", "Q3", "Q4"),
                       help="probabilities to Bloch vector")
    # Python < 3.13 argparse takes "-1e-05" for an option; read any "-" followed
    # by a digit or ".digit" as a negative number, as later argparse does
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.set_defaults(func=cmd_bloch)

    p = sub.add_parser("search", help="multi-start numerical search")
    p.add_argument("--d", type=int, required=True, help="Hilbert space dimension")
    p.add_argument("--k", type=int, required=True, help="small-trace element count")
    p.add_argument("--b", type=parse_number, default=None,
                   help="target overlap (required for d=2 unless k=4)")
    defaults = {f.name: f.default for f in dataclasses.fields(search.SearchConfig)}
    p.add_argument("--restarts", type=int, default=defaults["restarts"],
                   help="random starts, descended as one batch (default: %(default)s)")
    p.add_argument("--max-iterations", type=int, default=defaults["max_iterations"],
                   help="L-BFGS iterations per restart before it stops at the cap "
                        "(default: %(default)s)")
    p.add_argument("--seed", type=int, default=defaults["seed"],
                   help="seed of the one draw that gives every start (default: %(default)s)")
    p.add_argument("--residual-goal", type=float, default=defaults["residual_goal"],
                   help="a restart stops once its objective is below this; the best "
                        "such hit is polished and verified (default: %(default)s)")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--require-solution", action="store_true",
                   help="exit 1 unless a hit meets the residual goal and passes verify")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("spectrum", help="admissible (k, b, a-, a+) table for a dimension")
    p.add_argument("--d", type=int, required=True, help="Hilbert space dimension (>= 3)")
    p.set_defaults(func=cmd_spectrum)

    return parser


# Building the parser costs more than most commands; parsing leaves it
# unchanged, so one instance and its subparsers serve every main() call in a process.
@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no arguments, -h or an unknown command
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    # semantic negatives first: they subclass ValueError, like every
    # usage, document and range error of the package (exit 2)
    except (NotSemiSic, InconsistentProbabilities) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

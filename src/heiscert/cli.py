"""Command-line front end.

Subcommands: verify (run suites, write certificates and a report),
replay (recompute a stored certificate), orbit (emit a sampled parameter
CSV), jordan (Jordan partition of one element's image), hilbert (metric
log-argument between two interior points of a polytope file).

Exit codes: 0 on PASS/MATCH, 1 on any FAIL/MISMATCH, 2 on configuration
or IO errors.  HEISCERT_OUT sets the default certificate directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .convexity import sample_orbit
from .heis import HeisElement, get_representation
from .linalg import integer_nilpotent_ranks, jordan_partition
from .metric import hilbert_log_argument, load_polytope
from .rationals import format_rational, parse_rational
from .suites import MATCH, PASS, SUITE_ORDER, RunConfig, replay, run_suite

DEFAULT_OUT = os.environ.get("HEISCERT_OUT", "certificates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heiscert",
        description=("exact-arithmetic verification of a unipotent group "
                     "acting on convex projective domains"))
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", action="append", choices=SUITE_ORDER,
                        help="suite to run (repeatable; default: all)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default=DEFAULT_OUT,
                        help="certificate directory "
                             "(default: $HEISCERT_OUT or ./certificates)")

    rep_cmd = sub.add_parser("replay", help="recompute a certificate file")
    rep_cmd.add_argument("certificate", type=Path)

    orbit = sub.add_parser("orbit", help="emit sampled orbit parameters")
    orbit.add_argument("--count", type=int, default=10)
    orbit.add_argument("--seed", type=int, default=0)

    jordan = sub.add_parser("jordan",
                            help="Jordan partition of one element's image")
    jordan.add_argument("--element", required=True,
                        help="comma-separated rationals a,b,c, "
                             "as --element=-7/4,3,0")
    jordan.add_argument("--rep", choices=["theta", "rho6", "rho14"],
                        default="theta")

    hilbert = sub.add_parser("hilbert",
                             help="Hilbert metric between interior points")
    hilbert.add_argument("--polytope", required=True, type=Path,
                         help="halfspace file: per line, coefficients "
                              "then bound, meaning coeffs . z <= bound")
    hilbert.add_argument("--x", required=True,
                         help="comma-separated rational coordinates, "
                              "as --x=-1/2,0")
    hilbert.add_argument("--y", required=True, help="as --x")
    return parser


def _parse_point(text: str) -> list[Fraction]:
    return [parse_rational(cell) for cell in text.split(",")]


def cmd_verify(args) -> int:
    suites = tuple(args.suite) if args.suite else SUITE_ORDER
    config = RunConfig(seed=args.seed, output_dir=Path(args.out),
                       suites=suites)
    report = run_suite(config)
    for row in report["claims"]:
        print(f"{row['verdict']:4}  {row['claim']}")
    if "warning" in report:
        print(f"warning: {report['warning']}", file=sys.stderr)
    print(f"overall: {report['overall']}  "
          f"({len(report['claims'])} claims, seed {config.seed}, "
          f"certificates in {config.output_dir})")
    return 0 if report["overall"] == PASS else 1


def cmd_replay(args) -> int:
    verdict, detail = replay(args.certificate)
    print(f"{verdict}: {detail['claim']} "
          f"(stored {detail['stored_verdict']}, "
          f"recomputed {detail['recomputed_verdict']})")
    return 0 if verdict == MATCH else 1


def cmd_orbit(args) -> int:
    sample = sample_orbit(args.count, args.seed)
    sys.stdout.write(sample.to_csv())
    return 0


def cmd_jordan(args) -> int:
    a, b, c = _parse_point(args.element)
    rep = get_representation(args.rep)
    partition = jordan_partition(integer_nilpotent_ranks(
        *rep.integer_image(HeisElement.of(a, b, c))))
    print(f"{args.rep}({format_rational(a)},{format_rational(b)},"
          f"{format_rational(c)}) jordan blocks: {partition}")
    return 0


def cmd_hilbert(args) -> int:
    polytope = load_polytope(args.polytope.read_text())
    x = _parse_point(args.x)
    y = _parse_point(args.y)
    ratio = hilbert_log_argument(polytope, x, y)
    print(f"log-argument R = {format_rational(ratio)}")
    print(f"distance (1/2) log R = {0.5 * math.log(ratio):.12g}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "verify": cmd_verify,
        "replay": cmd_replay,
        "orbit": cmd_orbit,
        "jordan": cmd_jordan,
        "hilbert": cmd_hilbert,
    }[args.command]
    try:
        return handler(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

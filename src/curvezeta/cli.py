"""Command line driver: analyze, verify and batch subcommands.

Exit codes: 0 success, 2 input error, 3 capacity exceeded, 4 verification
or internal-consistency failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (CapacityError, ConsistencyError, InconsistentCountsError,
                     InvalidMeasureError, ModelShapeError, NotDivisibleError,
                     OracleUnsupportedError, ParseError, SingularCurveError,
                     StratificationError)
from .curve import validate_model
from .finitefield import DEFAULT_CAPACITY, extension_field
from .parsing import parse_curve_spec, parse_measure_table
from .report import (PipelineResult, canonical_json, render_text,
                     run_curve_pipeline, run_table_pipeline, all_clauses)

_INPUT_ERRORS = (ParseError, ModelShapeError, SingularCurveError)
_CONSISTENCY_ERRORS = (InvalidMeasureError, ConsistencyError,
                       InconsistentCountsError, StratificationError,
                       NotDivisibleError, OracleUnsupportedError)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvezeta",
        description="Two-variable zeta function of odd-degree hyperelliptic "
                    "curves over finite fields, with exact verification of "
                    "its structural properties.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--base-change", type=_positive, default=1,
                        metavar="M", help="replace F_q by F_{q^M}")
    common.add_argument("--format", choices=("text", "machine"),
                        default="text", help="report format")
    common.add_argument("--out", metavar="PATH",
                        help="write output to a file instead of stdout")
    common.add_argument("--max-work", type=_positive, default=DEFAULT_CAPACITY,
                        metavar="BOUND",
                        help="enumeration budget (candidates per task); "
                             "places are sieved to degree 2g, and a deeper "
                             "degree only when its places are listed")
    common.add_argument("--no-timing", action="store_true",
                        help="omit timing metadata for reproducible output")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--spec", help="inline curve spec, e.g. 'p=3; f=x^3+x'")
    source.add_argument("--spec-file", metavar="PATH",
                        help="file containing one curve spec")
    source.add_argument("--measure-table", metavar="PATH",
                        help="measure table file instead of a curve")
    source.add_argument("--genus", type=_nonnegative, default=None,
                        help="expected genus (cross-checked against the input)")

    sub.add_parser("analyze", parents=[common, source],
                   help="compute the numerator and print a full report")
    sub.add_parser("verify", parents=[common, source],
                   help="run all checks, print failures only, set exit code")
    batch = sub.add_parser("batch", parents=[common],
                           help="verify every curve spec in a file")
    batch.add_argument("input", metavar="PATH",
                       help="file with one curve spec per line")
    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _run_single(args) -> PipelineResult:
    chosen = [s for s in (args.spec, args.spec_file, args.measure_table) if s]
    if len(chosen) != 1:
        raise ParseError(
            "exactly one of --spec, --spec-file, --measure-table is required")
    if args.measure_table:
        with open(args.measure_table, encoding="utf-8") as handle:
            table = parse_measure_table(handle.read())
        if args.genus is not None and args.genus != table.genus:
            raise ParseError(
                f"--genus {args.genus} contradicts the table header "
                f"genus {table.genus}")
        return run_table_pipeline(table, capacity=args.max_work,
                                  with_timing=not args.no_timing)
    if args.spec_file:
        with open(args.spec_file, encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = args.spec
    spec = parse_curve_spec(text, capacity=args.max_work)
    if args.genus is not None:
        # base change keeps the genus: check it before any work is spent
        field = extension_field(spec.p, spec.k, capacity=args.max_work)
        genus = validate_model(field, spec.f, spec.h).genus
        if args.genus != genus:
            raise ParseError(
                f"--genus {args.genus} contradicts the computed genus {genus}")
    return run_curve_pipeline(
        spec, base_change=args.base_change, capacity=args.max_work,
        with_timing=not args.no_timing)


def _cmd_analyze(args) -> int:
    result = _run_single(args)
    if args.format == "machine":
        _emit(canonical_json(result.report), args.out)
    else:
        _emit(render_text(result.report), args.out)
    return 0 if result.passed else 4


def _cmd_verify(args) -> int:
    result = _run_single(args)
    clauses = all_clauses(result.report)
    failures = [c for c in clauses if not c["passed"]]
    if args.format == "machine":
        doc = {"checks": {"total": len(clauses),
                          "failed": [c["name"] for c in failures],
                          "passed": not failures}}
        _emit(canonical_json(doc), args.out)
    else:
        lines = [f"[FAIL] {c['name']}: {c['detail']}" for c in failures]
        verdict = "pass" if not failures else "FAIL"
        lines.append(f"verification: {verdict} ({len(clauses)} checks)")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if result.passed else 4


def _cmd_batch(args) -> int:
    with open(args.input, encoding="utf-8") as handle:
        raw_lines = handle.read().splitlines()
    lines = []
    n_pass = n_fail = n_error = 0
    for lineno, raw in enumerate(raw_lines, 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            spec = parse_curve_spec(stripped, line=lineno,
                                    capacity=args.max_work)
            result = run_curve_pipeline(
                spec, base_change=args.base_change, capacity=args.max_work,
                with_timing=not args.no_timing)
        except (*_INPUT_ERRORS, *_CONSISTENCY_ERRORS, CapacityError) as exc:
            n_error += 1
            lines.append(f"line {lineno}: ERROR {type(exc).__name__}: {exc}")
            continue
        if result.passed:
            n_pass += 1
            lines.append(f"line {lineno}: PASS {stripped}")
        else:
            n_fail += 1
            failed = [c["name"] for c in all_clauses(result.report)
                      if not c["passed"]]
            lines.append(f"line {lineno}: FAIL {stripped} "
                         f"(failed: {', '.join(failed)})")
    total = n_pass + n_fail + n_error
    lines.append(f"{total} curves: {n_pass} passed, {n_fail} failed, "
                 f"{n_error} errors")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if n_fail == 0 and n_error == 0 else 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"analyze": _cmd_analyze, "verify": _cmd_verify,
               "batch": _cmd_batch}[args.command]
    try:
        return handler(args)
    # a file that cannot be read, or is not UTF-8 text, is an input error
    except (*_INPUT_ERRORS, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _CONSISTENCY_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

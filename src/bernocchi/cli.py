"""Command-line surface: compute, verify, table, bench, cache.

Exit status contract: 0 = success/agreement, 1 = usage or I/O error,
2 = verification dissent.  All output except bench timings is
deterministic; --deterministic zeroes the timing fields so that every
format is byte-stable.
"""
from __future__ import annotations

import argparse
import os
import sys

from .cache import cache_dir, cache_file
from .exact import format_rational
from .formulas import (
    B0,
    B1,
    FormulaId,
    bernoulli_from_tangent,
    formula_value,
    genocchi_theorem,
    tangent_numbers,
)
from .harness import Verdict, bench, report_to_json, verify_range
from .stirling import shared_triangle, triangle_build, triangle_save

FORMATS = ("plain", "csv", "json")
BENCH_HEADER = "formula,n,reps,median_ns,value"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bernocchi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one formula at one index")
    p_compute.add_argument("formula", help="formula identifier (case-insensitive)")
    p_compute.add_argument("n", type=int)
    p_compute.add_argument("--format", choices=FORMATS, default="plain")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="differential verification report")
    p_verify.add_argument("--max-n", type=int, required=True)
    p_verify.add_argument("--strict", action="store_true",
                          help="any dissent, even from an untrusted formula, fails")
    p_verify.add_argument("--format", choices=FORMATS, default="plain")
    p_verify.add_argument("--deterministic", action="store_true",
                          help="no effect: verify output carries no timing fields; "
                          "accepted so that scripts written for bench also run verify")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="emit a value table")
    p_table.add_argument("kind", choices=("bernoulli", "genocchi", "stirling"))
    p_table.add_argument("max_n", type=int)
    p_table.add_argument("--format", choices=FORMATS, default="plain")
    p_table.set_defaults(func=cmd_table)

    p_bench = sub.add_parser("bench", help="time the trusted formulas")
    p_bench.add_argument("--max-n", type=int, required=True)
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--format", choices=FORMATS, default="plain")
    p_bench.add_argument("--deterministic", action="store_true",
                         help="zero the timing column for snapshot testing")
    p_bench.set_defaults(func=cmd_bench)

    p_cache = sub.add_parser("cache", help="manage the on-disk Stirling triangle")
    p_cache.add_argument("action", choices=("build", "path", "clear"))
    p_cache.add_argument("max_n", type=int, nargs="?")
    p_cache.set_defaults(func=cmd_cache)

    return parser


def _print_json(value) -> None:
    import json  # loaded only when JSON is printed

    print(json.dumps(value, indent=2))


def _print_csv(fields, rows) -> None:
    print(",".join(fields))
    for row in rows:
        print(",".join(map(str, row)))


def _parse_formula(name: str) -> FormulaId:
    try:
        return FormulaId(name.upper())
    except ValueError:
        known = ", ".join(fid.value for fid in FormulaId)
        raise ValueError(f"unknown formula {name!r}; known formulas: {known}") from None


def cmd_compute(args) -> int:
    fid = _parse_formula(args.formula)
    value = format_rational(formula_value(fid, args.n))
    fields, row = ("formula", "n", "value"), (fid.value, args.n, value)
    if args.format == "plain":
        print(value)
    elif args.format == "csv":
        _print_csv(fields, [row])
    else:
        _print_json(dict(zip(fields, row)))
    return 0


def _dissents(record, sep: str) -> str:
    """The record's dissents as FORMULA=value joined by sep.  Each value has % , ; " CR LF
    written %25 %2C %3B %22 %0D %0A: no field is quoted, urllib.parse.unquote decodes it."""

    def encode(value: str) -> str:
        for c in '%,;"\r\n':  # % first, so no escape is encoded twice
            value = value.replace(c, f"%{ord(c):02X}")
        return value

    return sep.join(f"{fid.value}={encode(v)}" for fid, v in record.dissenting)


def cmd_verify(args) -> int:
    if args.max_n < 0:
        raise ValueError("--max-n must be nonnegative")
    report = verify_range(args.max_n)
    if args.format == "json":
        print(report_to_json(report))
    elif args.format == "csv":
        rows = (
            (r.n, format_rational(r.consensus), ";".join(f.value for f in r.agreeing),
             _dissents(r, ";"))
            for r in report.records
        )
        _print_csv(("n", "consensus", "agreeing", "dissenting"), rows)
    else:
        print(f"max_n: {report.max_n}")
        print(f"verdict: {report.verdict.value}")
        print(f"agreements: {report.agreements}  dissents: {report.dissents}")
        for record in report.records:
            line = f"n={record.n} consensus={format_rational(record.consensus)}"
            line += f" agreeing={','.join(fid.value for fid in record.agreeing)}"
            if record.dissenting:
                line += " dissenting=" + _dissents(record, ",")
            print(line)
    if report.verdict is Verdict.TRUSTED_DISSENT_FOUND:
        return 2
    if args.strict and report.dissents:
        return 2
    return 0


def cmd_table(args) -> int:
    if args.max_n < 0:
        raise ValueError("max_n must be nonnegative")
    kind = args.kind
    if kind == "stirling":
        rows = shared_triangle(args.max_n).rows
        if args.format == "json":
            _print_json({"kind": kind, "rows": [list(row) for row in rows]})
        elif args.format == "csv":
            cells = ((n, k, v) for n, row in enumerate(rows) for k, v in enumerate(row))
            _print_csv(("n", "k", "value"), cells)
        else:
            for row in rows:
                print(",".join(str(v) for v in row))
        return 0

    if kind == "bernoulli":
        # B_2k from one pass of tangent numbers; B_n = 0 at odd n >= 3, since
        # x/(e^x - 1) + x/2 is even.
        tangents = tangent_numbers(args.max_n // 2)
        entries = [(0, B0), (1, B1)][: args.max_n + 1]
        entries += [
            (n, 0 if n % 2 else bernoulli_from_tangent(n // 2, tangents[n // 2]))
            for n in range(2, args.max_n + 1)
        ]
    else:
        entries = [(n, genocchi_theorem(n)) for n in range(1, args.max_n + 1)]
    fields, rows = ("n", "value"), ((n, format_rational(v)) for n, v in entries)
    if args.format == "json":
        _print_json({"kind": kind, "rows": [dict(zip(fields, row)) for row in rows]})
    elif args.format == "csv":
        _print_csv(fields, rows)
    else:
        for n, v in rows:
            print(f"{n} {v}")
    return 0


def _bench_indices(max_n: int) -> list[int]:
    indices = []
    n = 8
    while n <= max_n:
        indices.append(n)
        n *= 2
    return indices


def cmd_bench(args) -> int:
    if args.max_n < 0:
        raise ValueError("--max-n must be nonnegative")
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    trusted = [fid for fid in FormulaId if fid.trusted]
    records = bench(trusted, _bench_indices(args.max_n), args.reps)
    if args.deterministic:
        records = [r._replace(median_ns=0) for r in records]
    fields = BENCH_HEADER.split(",")
    rows = [(r.formula.value, r.n, r.repetitions, r.median_ns, r.value) for r in records]
    if args.format == "json":
        _print_json([dict(zip(fields, row)) for row in rows])
    else:  # the bench contract is CSV; plain and csv coincide
        _print_csv(fields, rows)
    return 0


def cmd_cache(args) -> int:
    if args.action == "build":
        if args.max_n is None or args.max_n < 0:
            raise ValueError("cache build requires a nonnegative max_n")
        cache_dir().mkdir(parents=True, exist_ok=True)
        triangle_save(triangle_build(args.max_n), cache_file())
        print(str(cache_file()))
        return 0
    if args.max_n is not None:
        raise ValueError(f"cache {args.action} takes no max_n")
    if args.action == "path":
        print(str(cache_file()))
        return 0
    # clear is idempotent
    cache_file().unlink(missing_ok=True)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; usage errors exit 1 via _Parser
        return 0 if exc.code in (0, None) else int(exc.code)
    # Exact values may pass Python's int/str digit limit (3.10.7 on): lift it for the command.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, OverflowError) as exc:
        print(f"bernocchi: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left early (`... | head`): stop quietly, as pipeline
        # tools do.  Unflushed output goes to devnull so that the flush at
        # interpreter shutdown cannot raise again.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"bernocchi: i/o error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

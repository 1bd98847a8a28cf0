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

# Each command imports the library names it runs, so that --help, a usage
# error and every command load only the modules they need (README,
# "Start-up and exit").

FORMATS = ("plain", "csv", "json")
BENCH_HEADER = "formula,n,reps,median_ns,value"
# Largest verify --max-n accepted.  verify_range grows about as n^3 in time
# and memory (README, "CLI"): at 500 that is some 10-16 s and a Stirling
# triangle of 1000 rows, about 0.25 GB; much past it a run cannot finish.
VERIFY_CEILING = 500
# Largest table MAX_N accepted, per kind (README, "CLI").  bernoulli grows
# about as n^3 in time (some 12 s at 5000); genocchi and stirling read the
# Stirling rows one at a time, stirling printing each (80 MB of text at 600).
TABLE_CEILINGS = {"bernoulli": 5000, "genocchi": 1000, "stirling": 600}
# Largest cache build MAX_N accepted (README, "CLI").  Writing the triangle
# grows about as n^3.8 in time and its file about as n^3 log n: 11 s, 0.2 GB
# and a 414 MB file at 1000; 1200 would take some 22 s and 0.7 GB of disk.
CACHE_CEILING = 1000
# Largest bench --max-n accepted (README, "CLI").  bench times the indices
# 8, 16, 32, ... up to max_n, so every max_n up to 1023 stops at 512: 2.6 s
# and 0.23 GB, against 21.5 s and 1.8 GB once 1024 is timed too.
BENCH_CEILING = 1023
# Largest bench --reps accepted (README, "CLI").  Time grows linearly with
# it, 0.35-0.55 s per repetition at --max-n BENCH_CEILING: 25 took 12.6 s.
BENCH_REPS_CEILING = 25


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
    p_table.add_argument("kind", choices=tuple(TABLE_CEILINGS))
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


def _print_csv(fields, rows) -> None:
    print(",".join(fields))
    for row in rows:
        print(",".join(map(str, row)))


def _print_json(value) -> None:
    """Write json.dumps(value, indent=2) and a newline, piece by piece, so a
    streamed array is never held whole."""
    from .exact import _json_text

    sys.stdout.writelines(_json_text(value))
    sys.stdout.write("\n")


def _parse_formula(name: str) -> FormulaId:
    from .formulas import FormulaId

    try:
        return FormulaId(name.upper())
    except ValueError:
        known = ", ".join(fid.value for fid in FormulaId)
        raise ValueError(f"unknown formula {name!r}; known formulas: {known}") from None


def cmd_compute(args) -> int:
    from .exact import format_rational
    from .formulas import formula_value

    fid = _parse_formula(args.formula)
    if args.n > fid.ceiling:  # set per row from measured growth (README, "CLI")
        raise ValueError(f"n must be at most {fid.ceiling} for compute {fid.value}")
    value = format_rational(formula_value(fid, args.n))
    record = {"formula": fid.value, "n": args.n, "value": value}
    if args.format == "plain":
        print(value)
    elif args.format == "csv":
        _print_csv(record, [record.values()])
    else:
        _print_json(record)
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
    if args.max_n > VERIFY_CEILING:
        raise ValueError(f"--max-n must be at most {VERIFY_CEILING}")
    from .exact import format_rational
    from .harness import Verdict, report_to_json, verify_range

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
    kind = args.kind
    if args.max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if args.max_n > TABLE_CEILINGS[kind]:
        raise ValueError(f"max_n must be at most {TABLE_CEILINGS[kind]} for table {kind}")
    if kind == "bernoulli":
        rows = _bernoulli_rows(args.max_n)
    else:
        from .stirling import _walk_rows

        rows = _walk_rows(args.max_n)  # one row at a time
    if kind == "genocchi":
        from .formulas import _genocchi_from_row

        rows = ((n, str(_genocchi_from_row(n, row))) for n, row in enumerate(rows) if n)
    elif kind == "stirling":
        if args.format == "json":
            _print_json({"kind": kind, "rows": rows})
        elif args.format == "csv":
            print("n,k,value")
            for n, row in enumerate(rows):
                sys.stdout.write("".join([f"{n},{k},{v}\n" for k, v in enumerate(row)]))
        else:
            for row in rows:
                print(",".join(str(v) for v in row))
        return 0
    if args.format == "json":
        _print_json({"kind": kind, "rows": ({"n": n, "value": v} for n, v in rows)})
    elif args.format == "csv":
        _print_csv(("n", "value"), rows)
    else:
        for n, v in rows:
            print(f"{n} {v}")
    return 0


def _bernoulli_rows(max_n: int):
    """(n, text of B_n) for n = 0..max_n, in integers alone: the constants
    B_0 = 1 and B_1 = -1/2, B_n at even n >= 2 from one pass of the tangent
    numbers, each reduced once as it is written, and 0 at odd n >= 3, since
    x/(e^x - 1) + x/2 is even."""
    from math import gcd

    from .exact import _ratio_text
    from .tangent import even_bernoulli_terms

    yield from [(0, "1"), (1, "-1/2")][: max_n + 1]
    for n, numerator, denominator in even_bernoulli_terms(max_n):
        divisor = gcd(numerator, denominator)
        yield n, _ratio_text(numerator // divisor, denominator // divisor)
        if n < max_n:
            yield n + 1, "0"


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
    if args.max_n > BENCH_CEILING:
        raise ValueError(f"--max-n must be at most {BENCH_CEILING}")
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    if args.reps > BENCH_REPS_CEILING:
        raise ValueError(f"--reps must be at most {BENCH_REPS_CEILING}")
    from .formulas import FormulaId
    from .harness import bench

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
    from .cache import cache_dir, cache_file

    if args.action == "build":
        if args.max_n is None or args.max_n < 0:
            raise ValueError("cache build requires a nonnegative max_n")
        if args.max_n > CACHE_CEILING:
            raise ValueError(f"max_n must be at most {CACHE_CEILING} for cache build")
        from .stirling import triangle_build, triangle_save

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
        if sys.stdout is None:  # started with stdout closed (`>&-`): fail before any work
            raise OSError("standard output is closed")
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
    """Run main() as a process: `python -m bernocchi.cli` and the `bernocchi`
    script.  Once main() has returned, flush stdout and stderr and end the
    process with os._exit, skipping the interpreter's teardown, which does no
    work a user can see: bernocchi registers no atexit handler and starts no
    thread (README, "Start-up and exit").  If main() raises, the exception
    takes the interpreter's usual path; if a flush fails, sys.exit does."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()

"""CLI surface: subcommands, formats, exit-status contract, cache behavior."""
import errno
import hashlib
import json
import os
import subprocess
import sys
import time
import urllib.parse
from fractions import Fraction
from pathlib import Path

import pytest

import bernocchi
from bernocchi import cli, formulas, reset_caches, stirling
from bernocchi.cache import cache_file
from bernocchi.cli import main
from bernocchi.exact import format_rational
from bernocchi.formulas import FormulaId, bernoulli_series_oracle, formula_value
from bernocchi.harness import Verdict, verify_range


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ENV = dict(os.environ, PYTHONPATH=str(Path(bernocchi.__file__).parent.parent))


def cli_process(*argv, stdout=subprocess.PIPE, stdout_closed=False):
    """Run `python -m bernocchi.cli argv` as a real process, which exits through entry()."""
    command = [sys.executable, "-m", "bernocchi.cli", *argv]
    if stdout_closed:
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
    return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, env=ENV, timeout=60)


def test_compute_genocchi(capsys):
    code, out, err = run(capsys, "compute", "GENOCCHI_THEOREM_16", "12")
    assert (code, out, err) == (0, "2073\n", "")


def test_compute_bernoulli_formula(capsys):
    code, out, _ = run(capsys, "compute", "STIRLING_SINGLE_10", "1")
    assert (code, out) == (0, "-1/2\n")


def test_compute_is_case_insensitive(capsys):
    code, out, _ = run(capsys, "compute", "genocchi_theorem_16", "12")
    assert (code, out) == (0, "2073\n")


def test_compute_inapplicable_index(capsys):
    code, out, err = run(capsys, "compute", "FAULHABER_RECURSION_13", "3")
    assert code == 1
    assert out == ""
    assert "not applicable" in err


def test_compute_rejects_inapplicable_index_before_building_rows(capsys):
    reset_caches()
    code, out, err = run(capsys, "compute", "DOUBLE_STIRLING_15", "999")
    assert (code, out) == (1, "")
    assert "not applicable" in err
    assert len(stirling._shared_rows) == 1


def test_compute_unknown_formula(capsys):
    code, _, err = run(capsys, "compute", "NO_SUCH_FORMULA", "2")
    assert code == 1
    assert "unknown formula" in err


def test_compute_csv_and_json(capsys):
    code, out, _ = run(capsys, "compute", "SERIES_ORACLE", "4", "--format", "csv")
    assert code == 0
    assert out == "formula,n,value\nSERIES_ORACLE,4,-1/30\n"
    code, out, _ = run(capsys, "compute", "SERIES_ORACLE", "4", "--format", "json")
    assert code == 0
    assert '"value": "-1/30"' in out


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "20")
    assert code == 0
    assert "ALL_TRUSTED_AGREE" in out
    assert "TANGENT_DOUBLE_14_AS_PRINTED=1/3" in out

    code, _, _ = run(capsys, "verify", "--max-n", "20", "--strict")
    assert code == 2  # the untrusted dissent is promoted

    code, _, _ = run(capsys, "verify", "--max-n", "0")
    assert code == 0

    code, _, _ = run(capsys, "verify", "--max-n", "1", "--strict")
    assert code == 0  # no even index >= 2, hence nothing dissents

    code, out, _ = run(capsys, "verify", "--max-n", "2", "--strict")
    assert code == 2  # a single dissent, the untrusted row's at n = 2, is enough
    assert "agreements: 20  dissents: 1" in out.splitlines()


def test_verify_exits_two_on_a_trusted_dissent(capsys, replace_row):
    ratio = formulas.bernoulli_stirling_ratio
    replace_row(FormulaId.STIRLING_RATIO_12, lambda n: ratio(n) + (n == 3))
    report = verify_range(4)
    assert report.verdict is Verdict.TRUSTED_DISSENT_FOUND
    assert report.records[3].dissenting == ((FormulaId.STIRLING_RATIO_12, "1"),)
    code, out, _ = run(capsys, "verify", "--max-n", "4")  # no --strict
    assert code == 2
    assert "TRUSTED_DISSENT_FOUND" in out


def test_a_value_planted_in_a_swept_row_reaches_verify_and_compute(capsys, replace_row):
    higgins = formulas.bernoulli_higgins
    replace_row(FormulaId.HIGGINS_9, lambda n: Fraction(1, 7) if n == 5 else higgins(n))
    assert dict(formulas.bernoulli_sweep(FormulaId.HIGGINS_9, 8))[5] == Fraction(1, 7)
    report = verify_range(8)  # reads HIGGINS_9 through its sweep
    dissents = [(r.n, d) for r in report.records for d in r.dissenting if d[0] is FormulaId.HIGGINS_9]
    assert dissents == [(5, (FormulaId.HIGGINS_9, "1/7"))]
    assert run(capsys, "verify", "--max-n", "8")[0] == 2  # no --strict
    assert run(capsys, "compute", "HIGGINS_9", "5") == (0, "1/7\n", "")


def test_verify_rejects_negative_max(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "-3")
    assert code == 1
    assert "error" in err


def test_verify_output_is_stable(capsys):
    first = run(capsys, "verify", "--max-n", "12", "--format", "json")
    second = run(capsys, "verify", "--max-n", "12", "--format", "json")
    assert first == second
    first = run(capsys, "verify", "--max-n", "12", "--format", "csv")
    second = run(capsys, "verify", "--max-n", "12", "--format", "csv")
    assert first == second


def test_verify_json_bytes_are_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "40", "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "040054917728d287f46eb9f0fcc8bc8dbe5514db4f0efe51650e0e8edbe98705"


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("plain", "9fb2be6daca9bcfd722d06bc285c849f8dde3ba63631cb1929f42ce15fcaf763"),
        ("csv", "6c52ed33a6efe3f17e08dc410a0735dccb87bc9a34c23ca3a8a012c17117e53e"),
    ],
)
def test_verify_plain_and_csv_bytes_are_pinned(capsys, fmt, digest):
    code, out, _ = run(capsys, "verify", "--max-n", "40", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_json_bytes_are_pinned_at_the_benchmark_size(capsys):
    # The command the verify-sweep workload of perfbench/run.py times.
    code, out, _ = run(capsys, "verify", "--max-n", "100", "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "0d43f037adff7f15844770d68c22a08ac1e5b4e30b63d81c5bbfb16f68b2bd6a"


BENCH_64 = ("bench", "--max-n", "64", "--reps", "1", "--deterministic")


@pytest.mark.parametrize(
    "argv, digest",
    [
        pytest.param(
            ("compute", "GENOCCHI_THEOREM_16", "18", "--format", "csv"),
            "347b011f1f020808f267c2cfd05483b72e5e6417e96f03c2597b4e08c0b8a533",
            id="compute-csv",
        ),
        pytest.param(
            ("table", "bernoulli", "300", "--format", "plain"),
            "d32ff4b77848dbcbddca1f3fae929f17854df1a924d238417e64f0cac3eeb6ba",
            id="bernoulli-plain",
        ),
        pytest.param(
            ("table", "bernoulli", "300", "--format", "csv"),
            "acfe300dc2f0da30e0390417d5b002c7a5e3933e4ccb8ef104ab30f8952c8ab3",
            id="bernoulli-csv",
        ),
        pytest.param(
            ("table", "bernoulli", "300", "--format", "json"),
            "9774743be824a0d965f52ab905c3f491a85babfbb9378631aba28f1b8eb02428",
            id="bernoulli-json",
        ),
        # The constant rows B_0 and B_1 alone, and a table that ends on an odd zero.
        pytest.param(
            ("table", "bernoulli", "0", "--format", "plain"),
            "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424",
            id="bernoulli-0-plain",
        ),
        pytest.param(
            ("table", "bernoulli", "0", "--format", "csv"),
            "a5605f9189aa3dffabd475ddaf043742e1da7a9fa7e45f3ce1bda8d78de74776",
            id="bernoulli-0-csv",
        ),
        pytest.param(
            ("table", "bernoulli", "0", "--format", "json"),
            "8303a53b6a68e3eb96475caa18c8ca02d48a5d2a1e98f5083548afbee79c410d",
            id="bernoulli-0-json",
        ),
        pytest.param(
            ("table", "bernoulli", "1", "--format", "plain"),
            "a70bf7b37a9982fdb05c6d7feabdbbd2116154845a48ec07059cec0c9b8426c1",
            id="bernoulli-1-plain",
        ),
        pytest.param(
            ("table", "bernoulli", "1", "--format", "csv"),
            "58149fe9509fa464a1782e5f14a4b730e377ba1e6f32e4de37cd7441eb0e810a",
            id="bernoulli-1-csv",
        ),
        pytest.param(
            ("table", "bernoulli", "1", "--format", "json"),
            "11845daf9347d6296c2639f9331675b1899d073ce25a094e944707bbd4fe6e2a",
            id="bernoulli-1-json",
        ),
        pytest.param(
            ("table", "bernoulli", "3", "--format", "plain"),
            "c6bb2ca59cf0277f5f735b7f3d086d06ce5fa374c9a951e2890243f82d9cca8e",
            id="bernoulli-3-plain",
        ),
        pytest.param(
            ("table", "bernoulli", "3", "--format", "csv"),
            "7ed7aa9796957269a46d059b8d57e53a4d52feca0a2fc4115814bf2c5d0daeef",
            id="bernoulli-3-csv",
        ),
        pytest.param(
            ("table", "bernoulli", "3", "--format", "json"),
            "ef5634639be0c5d577afe438d8bf27e0d0f5c82cca53f2834b1f75c0e3319040",
            id="bernoulli-3-json",
        ),
        pytest.param(
            ("table", "genocchi", "120", "--format", "plain"),
            "7ce6067f54eed23a0f22dda8b9b5eec6d3a1fb734001d57a1009f745c93b2f1e",
            id="genocchi-plain",
        ),
        pytest.param(
            ("table", "genocchi", "120", "--format", "csv"),
            "f55557c390c3d7dbf6b82b7b03fd2b216cb2b2c367298749eb270409199bef9f",
            id="genocchi-csv",
        ),
        pytest.param(
            ("table", "stirling", "40", "--format", "plain"),
            "c66d8429d0a1eb7a893b17f9f9900dd7d62f0878537cbcd7b0a7bfa81d44ef4f",
            id="stirling-plain",
        ),
        pytest.param(
            ("table", "stirling", "40", "--format", "csv"),
            "145e1357cd0ad3022f39dbab1ec98977fc75a95c90098bbf8a7542d0a3165b1c",
            id="stirling-csv",
        ),
        pytest.param(
            ("table", "stirling", "40", "--format", "json"),
            "1a786ae7e1dc8657f48d1d5538da3384a32f733c72fffd3f78b0b6541b8c2be0",
            id="stirling-json",
        ),
        pytest.param(
            (*BENCH_64, "--format", "plain"),
            "90e56e3755041229829f30295b5dd049a727abf47088c50e7a3b2fbfcedcd477",
            id="bench-plain",
        ),
        pytest.param(
            (*BENCH_64, "--format", "csv"),
            "90e56e3755041229829f30295b5dd049a727abf47088c50e7a3b2fbfcedcd477",
            id="bench-csv",
        ),
        pytest.param(
            (*BENCH_64, "--format", "json"),
            "480b276f986529df11113e2239da63a51858fdef2c237bcb4affdab48f2db7c7",
            id="bench-json",
        ),
    ],
)
def test_output_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SEPARATOR_MESSAGE = 'rows up to 3; row 4 requested,\r\nsee "log" at 100%3B'


def _separator_dissents(field, sep):
    entries = [entry.split("=", 1) for entry in field.split(sep)]
    return [(fid, urllib.parse.unquote(value)) for fid, value in entries]


@pytest.mark.parametrize("fmt", ["csv", "plain"])
def test_verify_encodes_the_list_separator_in_a_dissent(capsys, replace_row, fmt):
    # The message holds all six encoded characters: % , ; " CR LF.
    def failing(n):
        raise ValueError(SEPARATOR_MESSAGE)

    replace_row(FormulaId.STIRLING_RATIO_12, failing)
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--format", fmt)
    assert code == 2
    lines = out.splitlines()
    assert not any('"' in line for line in lines)
    if fmt == "csv":
        assert lines[0] == "n,consensus,agreeing,dissenting"
        assert [len(line.split(",")) for line in lines] == [4] * 6
        sep, field = ";", lines[3].split(",")[3]
    else:
        assert len(lines) == 3 + 5
        line = next(line for line in lines if line.startswith("n=2 "))
        sep, field = ",", line.split(" dissenting=", 1)[1]
    # Upper-case hex, as the README documents; unquote alone would accept either case.
    encoded = 'rows up to 3%3B row 4 requested%2C%0D%0Asee %22log%22 at 100%253B'
    assert field == (
        f"STIRLING_RATIO_12=ERROR: ValueError: {encoded}{sep}TANGENT_DOUBLE_14_AS_PRINTED=1/3"
    )
    assert _separator_dissents(field, sep) == [
        ("STIRLING_RATIO_12", f"ERROR: ValueError: {SEPARATOR_MESSAGE}"),
        ("TANGENT_DOUBLE_14_AS_PRINTED", "1/3"),
    ]


NEWLINE_MESSAGE = "first line\nn=2 consensus=0 agreeing= dissenting="


@pytest.mark.parametrize("fmt", ["csv", "plain"])
def test_verify_encodes_a_line_break_in_a_dissent(capsys, replace_row, fmt):
    messages = [NEWLINE_MESSAGE.replace("\n", "\r\n"), NEWLINE_MESSAGE]  # at n = 0 and n = 1

    def failing(n):
        raise ValueError(messages[n])

    replace_row(FormulaId.STIRLING_RATIO_12, failing)
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--format", fmt)
    assert code == 2
    lines = out.splitlines()  # splits at CR as well as LF
    if fmt == "csv":
        assert len(lines) == 3  # the header, then one line per record
        dissents = [_separator_dissents(line.split(",", 3)[3], ";") for line in lines[1:]]
    else:
        assert len(lines) == 5  # three summary lines, then one per record
        dissents = [_separator_dissents(line.split(" dissenting=", 1)[1], ",") for line in lines[3:]]
    assert dissents == [[("STIRLING_RATIO_12", f"ERROR: ValueError: {m}")] for m in messages]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("table", "bernoulli", "-1"), "max_n must be nonnegative"),
        (("bench", "--max-n", "-1"), "--max-n must be nonnegative"),
    ],
)
def test_negative_sizes_exit_one_with_the_message(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"bernocchi: error: {message}\n")


def test_verify_refuses_a_max_n_above_the_ceiling_before_any_work(capsys, monkeypatch):
    # CI verifies at 200, the benchmark at 100 and the tests at 120 at most.
    assert cli.VERIFY_CEILING >= 200
    calls = []

    def recording(max_n):
        calls.append(max_n)
        return verify_range(0)

    monkeypatch.setattr("bernocchi.harness.verify_range", recording)
    assert run(capsys, "verify", "--max-n", str(cli.VERIFY_CEILING))[0] == 0
    assert calls == [cli.VERIFY_CEILING]
    for fmt in cli.FORMATS:
        start = time.perf_counter()
        result = run(capsys, "verify", "--max-n", str(cli.VERIFY_CEILING + 1), "--format", fmt)
        assert time.perf_counter() - start < 1
        assert result == (1, "", f"bernocchi: error: --max-n must be at most {cli.VERIFY_CEILING}\n")
    assert calls == [cli.VERIFY_CEILING]  # no refused request reached verify_range


@pytest.mark.parametrize(
    "kind, kernel, stand_in, least",
    [
        # CI prints bernoulli to 2100 and genocchi to 600, the benchmark
        # bernoulli to 500; the tests print stirling to 120 at most.
        pytest.param(
            "bernoulli", "bernocchi.tangent.even_bernoulli_terms", lambda max_n: iter(()), 2100,
            id="bernoulli",
        ),
        pytest.param(
            "genocchi", "bernocchi.formulas._genocchi_from_row", lambda k, row: 0, 600, id="genocchi"
        ),
        pytest.param(
            "stirling", "bernocchi.stirling._walk_rows", lambda max_n: iter([(1,)]), 120,
            id="stirling",
        ),
    ],
)
def test_table_refuses_a_max_n_above_its_ceiling_before_any_work(
    capsys, monkeypatch, kind, kernel, stand_in, least
):
    ceiling = cli.TABLE_CEILINGS[kind]
    assert ceiling >= least
    calls = []

    def recording(*args):
        calls.append(args)
        return stand_in(*args)

    monkeypatch.setattr(kernel, recording)
    assert run(capsys, "table", kind, str(ceiling))[0] == 0
    reached = len(calls)
    assert reached
    message = f"bernocchi: error: max_n must be at most {ceiling} for table {kind}\n"
    for fmt in cli.FORMATS:
        start = time.perf_counter()
        result = run(capsys, "table", kind, str(ceiling + 1), "--format", fmt)
        assert time.perf_counter() - start < 1
        assert result == (1, "", message)
    assert len(calls) == reached  # no refused request reached the kernel


@pytest.mark.parametrize(
    "command, ceiling_name, kernel, stand_in, least, message",
    [
        # The compute-cached workload of perfbench/run.py builds the cache at 300.
        pytest.param(
            ("cache", "build"), "CACHE_CEILING", "bernocchi.stirling._walk_rows",
            lambda max_n, walk=stirling._walk_rows: walk(0), 300,
            "max_n must be at most {} for cache build",
            id="cache-build",
        ),
        # The pinned bench-* cases above run bench --max-n 64.
        pytest.param(
            ("bench", "--max-n"), "BENCH_CEILING", "bernocchi.harness.bench",
            lambda formulas, indices, reps: [], 64, "--max-n must be at most {}",
            id="bench",
        ),
        # tests/test_acceptance.py and the README example run bench --reps 3.
        pytest.param(
            ("bench", "--max-n", "8", "--reps"), "BENCH_REPS_CEILING", "bernocchi.harness.bench",
            lambda formulas, indices, reps: [], 3, "--reps must be at most {}",
            id="bench-reps",
        ),
    ],
)
def test_cache_build_and_bench_refuse_a_size_above_the_ceiling_before_any_work(
    capsys, monkeypatch, command, ceiling_name, kernel, stand_in, least, message
):
    ceiling = getattr(cli, ceiling_name)
    assert ceiling >= least
    calls = []

    def recording(*args):
        calls.append(args)
        return stand_in(*args)

    monkeypatch.setattr(kernel, recording)
    start = time.perf_counter()
    result = run(capsys, *command, str(ceiling + 1))
    assert time.perf_counter() - start < 1
    assert result == (1, "", f"bernocchi: error: {message.format(ceiling)}\n")
    assert calls == []  # the refused request reached no kernel
    assert not cache_file().parent.exists()
    assert run(capsys, *command, str(ceiling))[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("fid", FormulaId, ids=lambda fid: fid.value)
def test_compute_refuses_an_index_above_the_row_ceiling_before_any_work(capsys, replace_row, fid):
    # CI computes up to 2100 on BRENT_HARVEY_TANGENT, 1000 on HIGGINS_9 and
    # 400 on FAULHABER_RECURSION_13; a ceiling is even where the row is.
    assert fid.ceiling >= {"BRENT_HARVEY_TANGENT": 2100, "HIGGINS_9": 1000}.get(fid.value, 400)
    assert formulas.is_applicable(fid, fid.ceiling)
    calls = []

    def refuse(n):
        raise AssertionError(f"{fid.value} ran on a refused index")

    replace_row(fid, refuse)
    message = f"bernocchi: error: n must be at most {fid.ceiling} for compute {fid.value}\n"
    for n in (fid.ceiling + 1, fid.ceiling + 2, 10**22):
        for fmt in cli.FORMATS:
            start = time.perf_counter()
            assert run(capsys, "compute", fid.value, str(n), "--format", fmt) == (1, "", message)
            assert time.perf_counter() - start < 1

    def stand_in(n):
        calls.append(n)
        return Fraction(0)

    replace_row(fid, stand_in)
    assert run(capsys, "compute", fid.value, str(fid.ceiling)) == (0, "0\n", "")
    assert calls == [fid.ceiling]  # the ceiling itself is accepted


@pytest.mark.parametrize(
    "formula, n, message",
    [
        pytest.param("HIGGINS_9", 10**20, "too large to convert", id="HIGGINS_9"),
        pytest.param("GOULD_DOUBLE_11", 10**19, "factorial() argument", id="GOULD_DOUBLE_11"),
        pytest.param("STIRLING_RATIO_12", 10**19, "factorial() argument", id="STIRLING_RATIO_12"),
    ],
)
def test_compute_overflow_exits_one_at_once(capsys, formula, n, message):
    # compute refuses such an index at the row's ceiling; the library call
    # has no ceiling and still fails at once on the size that overflows.
    reset_caches()
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", formula, str(n))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == f"bernocchi: error: n must be at most {FormulaId(formula).ceiling} for compute {formula}\n"
    start = time.perf_counter()
    with pytest.raises(OverflowError, match=message.replace("(", r"\(").replace(")", r"\)")):
        formula_value(FormulaId(formula), n)
    assert time.perf_counter() - start < 1
    assert len(stirling._shared_rows) == 1  # failed before any triangle row was built


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this interpreter has no int/str digit limit"
)
def test_cli_prints_a_value_past_the_int_str_digit_limit(capsys):
    # B_600's numerator has 946 digits, above the smallest limit Python allows.
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = format_rational(formula_value(FormulaId.BRENT_HARVEY_TANGENT, 600)) + "\n"
        sys.set_int_max_str_digits(640)
        assert run(capsys, "compute", "BRENT_HARVEY_TANGENT", "600") == (0, want, "")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(previous)


def test_verify_csv_layout(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,consensus,agreeing,dissenting"
    assert lines[1].startswith("0,1,")
    assert lines[3].endswith("TANGENT_DOUBLE_14_AS_PRINTED=1/3")


def test_verify_accepts_deterministic_flag(capsys):
    plain = run(capsys, "verify", "--max-n", "4")
    deterministic = run(capsys, "verify", "--max-n", "4", "--deterministic")
    assert plain == deterministic


def test_table_genocchi(capsys):
    code, out, _ = run(capsys, "table", "genocchi", "18")
    assert code == 0
    values = {}
    for line in out.splitlines():
        n, value = line.split()
        values[int(n)] = int(value)
    assert values[8] == 17
    assert values[12] == 2073
    assert values[18] == -28820619
    assert all(values[n] == 0 for n in range(1, 19) if n % 2 and n > 1)


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_table_genocchi_reads_one_row_at_a_time(capsys, fmt):
    # The command applies theorem (16) to each row of the Stirling walk, so
    # the shared triangle stays at row 0, and prints what genocchi_theorem gives.
    reset_caches()
    code, out, err = run(capsys, "table", "genocchi", "60", "--format", fmt)
    assert stirling._shared_rows == [(1,)]
    values = [(n, format_rational(formulas.genocchi_theorem(n))) for n in range(1, 61)]
    want = {
        "plain": "".join(f"{n} {v}\n" for n, v in values),
        "csv": "n,value\n" + "".join(f"{n},{v}\n" for n, v in values),
        "json": json.dumps(
            {"kind": "genocchi", "rows": [{"n": n, "value": v} for n, v in values]}, indent=2
        ) + "\n",
    }[fmt]
    assert (code, out, err) == (0, want, "")


def test_table_bernoulli(capsys):
    code, out, _ = run(capsys, "table", "bernoulli", "4")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 -1/2", "2 1/6", "3 0", "4 -1/30"]


def test_table_bernoulli_equals_the_oracle_at_every_index(capsys):
    code, out, _ = run(capsys, "table", "bernoulli", "600")
    assert code == 0
    assert out.splitlines() == [
        f"{n} {format_rational(bernoulli_series_oracle(n))}" for n in range(601)
    ]


@pytest.mark.parametrize("max_n", range(4))
def test_table_bernoulli_smallest_sizes(capsys, max_n):
    # B_0 and B_1 are constants, B_2 the first tangent-number value, B_3 the
    # first odd-index zero.
    values = ["1", "-1/2", "1/6", "0"][: max_n + 1]
    plain = "".join(f"{n} {v}\n" for n, v in enumerate(values))
    csv = "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values))
    rows = [{"n": n, "value": v} for n, v in enumerate(values)]
    json_out = json.dumps({"kind": "bernoulli", "rows": rows}, indent=2) + "\n"
    for fmt, want in (("plain", plain), ("csv", csv), ("json", json_out)):
        assert run(capsys, "table", "bernoulli", str(max_n), "--format", fmt) == (0, want, "")


def test_table_stirling(capsys):
    code, out, _ = run(capsys, "table", "stirling", "4")
    assert code == 0
    assert out.splitlines()[-1] == "0,1,7,6,1"


def test_table_csv_and_json(capsys):
    code, out, _ = run(capsys, "table", "bernoulli", "2", "--format", "csv")
    assert code == 0
    assert out == "n,value\n0,1\n1,-1/2\n2,1/6\n"
    code, out, _ = run(capsys, "table", "stirling", "2", "--format", "csv")
    assert out == "n,k,value\n0,0,1\n1,0,0\n1,1,1\n2,0,0\n2,1,1\n2,2,1\n"
    code, out, _ = run(capsys, "table", "genocchi", "2", "--format", "json")
    assert '"value": "-1"' in out


@pytest.mark.parametrize(
    "argv, value",
    [
        (("compute", "GENOCCHI_THEOREM_16", "18"),
         {"formula": "GENOCCHI_THEOREM_16", "n": 18, "value": "-28820619"}),
        (("table", "genocchi", "0"), {"kind": "genocchi", "rows": []}),
        (("table", "genocchi", "3"),
         {"kind": "genocchi", "rows": [{"n": 1, "value": "1"}, {"n": 2, "value": "-1"},
                                       {"n": 3, "value": "0"}]}),
        (("table", "stirling", "0"), {"kind": "stirling", "rows": [[1]]}),
        (("bench", "--max-n", "7"), []),
        (("bench", "--max-n", "8", "--reps", "1", "--deterministic"), None),
    ],
    ids=["compute", "genocchi-empty", "genocchi", "stirling-one-row", "bench-empty", "bench"],
)
def test_json_output_is_json_dumps_of_its_value(capsys, argv, value):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    parsed = json.loads(out)
    if value is not None:
        assert parsed == value
    assert out == json.dumps(parsed, indent=2) + "\n"


def test_table_output_is_stable(capsys):
    for fmt in ("plain", "csv", "json"):
        first = run(capsys, "table", "genocchi", "10", "--format", fmt)
        second = run(capsys, "table", "genocchi", "10", "--format", fmt)
        assert first == second


def test_bench_csv_schema(capsys):
    code, out, _ = run(capsys, "bench", "--max-n", "16", "--reps", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "formula,n,reps,median_ns,value"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9 * 2  # nine trusted formulas at n in {8, 16}
    assert all(len(row) == 5 for row in rows)
    stirling_single_at_8 = [r for r in rows if r[0] == "STIRLING_SINGLE_10" and r[1] == "8"]
    assert stirling_single_at_8[0][4] == "-1/30"
    assert "TANGENT_DOUBLE_14_AS_PRINTED" not in {r[0] for r in rows}


def test_bench_deterministic_zeroes_timing(capsys):
    first = run(capsys, "bench", "--max-n", "8", "--reps", "2", "--deterministic")
    second = run(capsys, "bench", "--max-n", "8", "--reps", "2", "--deterministic")
    assert first == second
    for line in first[1].splitlines()[1:]:
        assert line.split(",")[3] == "0"


def test_bench_rejects_bad_reps(capsys):
    code, _, err = run(capsys, "bench", "--max-n", "8", "--reps", "0")
    assert code == 1
    assert "reps" in err


def test_cache_build_path_clear(capsys):
    code, out, _ = run(capsys, "cache", "build", "12")
    assert code == 0
    assert cache_file().is_file()

    code, out, _ = run(capsys, "cache", "path")
    assert code == 0
    assert out.strip() == str(cache_file())

    code, _, _ = run(capsys, "cache", "clear")
    assert code == 0
    assert not cache_file().exists()

    # clearing an empty cache stays successful
    code, _, _ = run(capsys, "cache", "clear")
    assert code == 0


def test_cache_build_writes_each_row_without_building_the_triangle(capsys, monkeypatch, tmp_path):
    expected = tmp_path / "expected.txt"
    stirling.triangle_save(stirling.triangle_build(60), expected)

    def refused(max_n):
        raise AssertionError("cache build built the whole triangle")

    monkeypatch.setattr(stirling, "triangle_build", refused)
    assert run(capsys, "cache", "build", "60") == (0, f"{cache_file()}\n", "")
    assert cache_file().read_bytes() == expected.read_bytes()


def test_cache_build_requires_max_n(capsys):
    code, _, err = run(capsys, "cache", "build")
    assert code == 1
    assert "max_n" in err


def test_cache_path_and_clear_reject_max_n(capsys):
    assert run(capsys, "cache", "build", "4")[0] == 0
    for action in ("path", "clear"):
        code, out, err = run(capsys, "cache", action, "4")
        assert (code, out) == (1, "")
        assert "max_n" in err
    assert cache_file().is_file()  # the rejected clear removed nothing


def test_cache_transparency(capsys):
    cold = run(capsys, "verify", "--max-n", "10", "--format", "json")
    assert run(capsys, "cache", "build", "25")[0] == 0
    warm = run(capsys, "verify", "--max-n", "10", "--format", "json")
    assert cold[0] == warm[0] == 0
    assert cold[1] == warm[1]

    cold_table = run(capsys, "table", "stirling", "6")
    run(capsys, "cache", "clear")
    warm_table = run(capsys, "table", "stirling", "6")
    assert cold_table == warm_table


def test_cache_ignores_corrupt_file(capsys):
    run(capsys, "cache", "build", "12")
    path = cache_file()
    path.write_text(path.read_text().replace("4 2 7", "4 2 8"))
    code, out, _ = run(capsys, "table", "stirling", "4")
    assert code == 0
    assert out.splitlines()[-1] == "0,1,7,6,1"  # falls back to computing


NO_CACHE_COMMANDS = [
    ("compute", "HIGGINS_9", "10"),
    ("compute", "STIRLING_RATIO_12", "6"),
    ("verify", "--max-n", "6"),
    ("table", "genocchi", "6"),
    ("table", "stirling", "6"),
    ("bench", "--max-n", "8", "--deterministic"),
]


def test_no_command_reads_the_cache_file(capsys, monkeypatch):
    without_file = [run(capsys, *argv) for argv in NO_CACHE_COMMANDS]
    assert run(capsys, "cache", "build", "12")[0] == 0
    read_text = Path.read_text

    def guarded_read_text(self, *args, **kwargs):
        if self == cache_file():
            raise AssertionError(f"{self} was read")
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", guarded_read_text)
    with pytest.raises(AssertionError):
        cache_file().read_text()
    for argv, expected in zip(NO_CACHE_COMMANDS, without_file):
        code, out, _ = run(capsys, *argv)
        assert code == expected[0] == 0, argv
        assert out == expected[1], argv


def test_cache_dir_falls_back_to_xdg_then_home(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("BERNOCCHI_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    code, out, _ = run(capsys, "cache", "path")
    assert (code, out) == (0, f"{tmp_path}/bernocchi/stirling2.txt\n")

    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path))
    code, out, _ = run(capsys, "cache", "path")
    assert (code, out) == (0, f"{tmp_path}/.cache/bernocchi/stirling2.txt\n")


def test_cache_unwritable_directory(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setenv("BERNOCCHI_CACHE_DIR", str(blocker / "sub"))
    code, _, err = run(capsys, "cache", "build", "4")
    assert code == 1
    assert "error" in err


def test_usage_errors_exit_one(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "verify")[0] == 1  # --max-n is required
    assert run(capsys, "compute", "SERIES_ORACLE", "x")[0] == 1
    assert run(capsys, "table", "euler", "4")[0] == 1
    assert run(capsys, "verify", "--max-n", "4", "--format", "yaml")[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "verify", "--help")[0] == 0


def test_broken_pipe_exits_quietly():
    # ~450 kB of output, far more than a pipe holds, so writes after the
    # reader has gone must hit a broken pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "bernocchi.cli", "table", "stirling", "120"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ENV,
    )
    assert proc.stdout.readline() == b"1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


def test_a_cli_process_writes_every_byte_to_a_file_and_a_pipe(capsys, tmp_path):
    # ~450 kB, more than any stdio or pipe buffer holds: the process must not
    # exit before its last write has been flushed.
    code, expected, _ = run(capsys, "table", "stirling", "120")
    assert code == 0
    path = tmp_path / "table.txt"
    with open(path, "wb") as out:
        to_file = cli_process("table", "stirling", "120", stdout=out)
    to_pipe = cli_process("table", "stirling", "120")
    assert to_file.returncode == to_pipe.returncode == 0
    assert path.read_bytes() == to_pipe.stdout == expected.encode()
    assert to_file.stderr == to_pipe.stderr == b""


def test_a_cli_process_exits_two_on_a_strict_dissent():
    # TANGENT_DOUBLE_14_AS_PRINTED dissents at n = 2.
    assert cli_process("verify", "--max-n", "2", "--strict").returncode == 2


@pytest.mark.parametrize("argv", [("frobnicate",), ("verify", "--max-n", "-1")])
def test_a_cli_process_exits_one_with_one_error_line(argv):
    proc = cli_process(*argv)
    *usage, error = proc.stderr.decode().splitlines()
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert all(line.startswith(("usage: ", " ")) for line in usage)  # argparse's, if any
    assert error.startswith("bernocchi") and ": error: " in error


@pytest.mark.parametrize("argv", [("verify", "--max-n", "3"), ("cache", "path")])
def test_a_cli_process_with_stdout_closed_exits_one_without_a_traceback(argv):
    proc = cli_process(*argv, stdout_closed=True)
    assert proc.returncode == 1
    assert proc.stderr == b"bernocchi: i/o error: standard output is closed\n"


def test_help_with_stdout_closed_goes_to_stderr():
    proc = cli_process("--help", stdout_closed=True)
    assert proc.returncode == 0
    assert proc.stderr.startswith(b"usage: bernocchi")


class _Stream:
    def __init__(self, name, events, error=None):
        self.name, self.events, self.error = name, events, error

    def flush(self):
        self.events.append(f"flush {self.name}")
        if self.error is not None:
            raise self.error


@pytest.fixture
def events(monkeypatch):
    """A list of the flushes and os._exit calls made, in order; os._exit
    records its code in place of exiting."""
    calls = []
    monkeypatch.setattr(os, "_exit", lambda code: calls.append(f"exit {code}"))
    return calls


def test_entry_flushes_both_streams_before_it_exits(monkeypatch, events):
    monkeypatch.setattr(cli, "main", lambda: 2)
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    cli.entry()
    assert events == ["flush stdout", "flush stderr", "exit 2"]
    events.clear()
    monkeypatch.setattr(sys, "stdout", None)  # started with stdout closed
    cli.entry()
    assert events == ["flush stderr", "exit 2"]


def test_entry_leaves_an_exception_from_main_to_the_interpreter(monkeypatch, events):
    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", broken)
    with pytest.raises(RuntimeError, match="boom"):
        cli.entry()
    assert events == []


@pytest.mark.parametrize("error", [OSError(errno.EIO, "flush failed"), ValueError("closed file")])
def test_entry_falls_back_to_sys_exit_when_a_flush_fails(monkeypatch, events, error):
    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events, error))
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 1
    assert events == ["flush stdout"]


def test_bernocchi_leaves_nothing_for_the_skipped_teardown_to_run():
    # entry() skips atexit handlers and the join of non-daemon threads.
    probe = (
        "import atexit, importlib, pkgutil, sys, threading, bernocchi; "
        "before = atexit._ncallbacks(); "
        "[importlib.import_module(f'bernocchi.{m.name}') for m in pkgutil.iter_modules(bernocchi.__path__)]; "
        "code = bernocchi.cli.main(['verify', '--max-n', '4']); "
        "print(before, atexit._ncallbacks(), threading.active_count(), code, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=ENV, timeout=60, check=True
    )
    before, after, threads, code = proc.stderr.split()
    assert (after, threads, code) == (before, "1", "0")

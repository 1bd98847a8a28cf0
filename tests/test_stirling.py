"""Stirling triangle: three computation routes, enumeration oracle, disk format."""
import hashlib
import random
import sys
import time
from math import comb, factorial

import pytest

from bernocchi import reset_caches, stirling
from bernocchi.stirling import (
    StirlingTriangle,
    TriangleFormatError,
    TriangleInvariantError,
    TriangleVersionError,
    set_partitions,
    shared_triangle,
    stirling_enumerate,
    stirling_explicit,
    stirling_via_series,
    triangle_build,
    triangle_load,
    triangle_save,
)


def test_partition_enumerator_lists_all_of_three():
    blocks = [sorted(sorted(block) for block in p) for p in set_partitions([1, 2, 3])]
    blocks.sort()
    assert blocks == [
        [[1], [2], [3]],
        [[1], [2, 3]],
        [[1, 2], [3]],
        [[1, 2, 3]],
        [[1, 3], [2]],
    ]


def test_enumeration_oracle_values():
    assert stirling_enumerate(4, 2) == 7
    assert stirling_enumerate(5, 1) == 1
    assert stirling_enumerate(0, 0) == 1
    assert stirling_enumerate(3, 2) == 3
    assert stirling_enumerate(5, 7) == 0


def test_enumeration_oracle_is_capped():
    with pytest.raises(ValueError):
        stirling_enumerate(11, 3)


def test_triangle_rows():
    t = triangle_build(4)
    assert t.row(0) == (1,)
    assert t.row(1) == (0, 1)
    assert t.row(4) == (0, 1, 7, 6, 1)


def test_triangle_matches_enumeration():
    t = triangle_build(8)
    for n in range(9):
        for k in range(n + 1):
            assert t.value(n, k) == stirling_enumerate(n, k)


def test_triangle_value_conventions():
    t = triangle_build(5)
    assert t.value(3, 5) == 0  # k > n
    with pytest.raises(ValueError):
        t.value(6, 1)  # row not built
    with pytest.raises(ValueError):
        t.value(-1, 0)
    with pytest.raises(ValueError):
        t.row(-1)


def test_triangle_value_rejects_a_negative_column():
    # Without its own check, a negative k would read the row from its end.
    t = triangle_build(5)
    for n in range(6):
        for k in (-1, -n - 1):
            with pytest.raises(ValueError):
                t.value(n, k)


def test_shared_triangle_rejects_a_negative_size():
    shared_triangle(10)
    with pytest.raises(ValueError):
        shared_triangle(-5)
    with pytest.raises(ValueError):
        shared_triangle(-1)


def test_explicit_sum_values():
    assert stirling_explicit(3, 2) == 3  # (1/2)(-2*1 + 1*8)
    assert stirling_explicit(4, 2) == 7  # (1/2)(-2*1 + 16)
    assert stirling_explicit(5, 5) == 1
    assert stirling_explicit(0, 0) == 1
    assert stirling_explicit(4, 0) == 0
    assert stirling_explicit(2, 6) == 0


def explicit_reference(k, m):
    """(1/m!) sum_{l=1..m} (-1)^(m-l) C(m,l) l^k as printed, one comb per term."""
    if m == 0:
        return 1 if k == 0 else 0
    total = sum((-1) ** (m - l) * comb(m, l) * l**k for l in range(1, m + 1))
    quotient, remainder = divmod(total, factorial(m))
    assert remainder == 0
    return quotient


EXPLICIT_LIMIT = 60
ALL_PAIRS = [(n, k) for n in range(1, EXPLICIT_LIMIT + 1) for k in range(1, n + 1)]
CALL_ORDERS = {
    "row-major": ALL_PAIRS,
    "descending": ALL_PAIRS[::-1],
    "interleaved-exponents": [
        pair
        for n, k in ALL_PAIRS
        if n < EXPLICIT_LIMIT
        for pair in ((n, k), (n + 1, k))
    ],
    "shuffled": random.Random(24).sample(ALL_PAIRS, len(ALL_PAIRS)),
}


@pytest.mark.parametrize("order", CALL_ORDERS)
def test_explicit_sum_equals_the_triangle_in_any_call_order(order):
    # The kept difference table must serve every order of calls: columns
    # grown one at a time, read back below its last column, and restarted
    # for each new exponent.
    reset_caches()
    t = triangle_build(EXPLICIT_LIMIT)
    for n, k in CALL_ORDERS[order]:
        assert stirling_explicit(n, k) == t.value(n, k), (n, k)


def test_explicit_sum_never_changes_a_committed_list():
    # Growing the table builds new lists and replaces the kept tuple whole,
    # so the lists of the table it replaced keep their contents.
    reset_caches()
    t = triangle_build(12)
    assert stirling_explicit(12, 5) == t.value(12, 5)
    exponent, tops, diagonal = stirling._power_table
    before = (list(tops), list(diagonal))
    assert (exponent, len(tops), len(diagonal)) == (12, 6, 6)
    assert stirling_explicit(12, 9) == t.value(12, 9)
    assert (tops, diagonal) == before
    assert [len(kept) for kept in stirling._power_table[1:]] == [10, 10]


def test_explicit_sum_equals_the_binomial_sum_as_printed():
    reset_caches()
    for n in range(41):
        for k in range(n + 1):
            assert stirling_explicit(n, k) == explicit_reference(n, k), (n, k)
    for n, k in ((200, 100), (300, 7)):
        reset_caches()
        assert stirling_explicit(n, k) == explicit_reference(n, k), (n, k)


def test_series_route_values():
    assert stirling_via_series(4, 2) == 7
    assert stirling_via_series(3, 3) == 1
    assert stirling_via_series(2, 3) == 0


def test_series_route_rejects_small_order():
    with pytest.raises(ValueError):
        stirling_via_series(5, 2, order=4)
    with pytest.raises(ValueError):
        stirling_via_series(3, 0)


def test_series_route_answers_above_the_diagonal_without_building_powers():
    reset_caches()
    stirling_via_series(3, 2)
    kept = len(stirling._expm1_rows)
    assert stirling_via_series(3, 10**4) == 0
    assert len(stirling._expm1_rows) == kept


def test_series_route_refuses_an_n_above_its_limit_before_any_row(monkeypatch):
    # The tests build series rows to 120, perfbench/crosscheck.py to 60.
    assert stirling.SERIES_LIMIT >= 120
    calls = []

    def recording(n):
        calls.append(n)
        return [0] * (n + 1)

    monkeypatch.setattr(stirling, "_expm1_row", recording)
    message = rf"^series route capped at n <= {stirling.SERIES_LIMIT}$"
    for n, k in ((stirling.SERIES_LIMIT + 1, 1), (1200, 1200)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            stirling_via_series(n, k)
        assert time.perf_counter() - start < 1
    assert calls == []  # no refused request reached the rows
    assert stirling_via_series(stirling.SERIES_LIMIT, 1) == 0
    assert calls == [stirling.SERIES_LIMIT]


def test_series_route_needs_no_stack_per_power():
    reset_caches()
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        assert stirling_via_series(60, 60) == 1
    finally:
        sys.setrecursionlimit(limit)


def test_three_routes_agree():
    limit = 16  # the full sweep to 40 runs in the acceptance suite
    t = triangle_build(limit)
    for n in range(limit + 1):
        for k in range(n + 1):
            value = t.value(n, k)
            if k >= 1:
                assert stirling_explicit(n, k) == value
                assert stirling_via_series(n, k, order=limit) == value


def test_series_route_matches_the_triangle_on_large_rows():
    t = triangle_build(120)
    for n in (100, 120):
        assert tuple(stirling_via_series(n, k) for k in range(1, n + 1)) == t.row(n)[1:]


def test_series_route_memo_holds_one_row_per_n_whatever_the_order():
    reset_caches()
    for n in range(1, 121):
        stirling_via_series(n, max(1, n // 2))
    stirling_via_series(60, 30, order=120)
    assert len(stirling._expm1_rows) == 121
    t = triangle_build(120)
    for n in range(121):
        for k in range(1, n + 1):
            assert stirling_via_series(n, k) == t.value(n, k)


def test_series_route_raises_on_a_remainder(monkeypatch):
    good = stirling._expm1_row

    def off_by_one(n):
        row = list(good(n))
        row[4] += 1
        return row

    monkeypatch.setattr(stirling, "_expm1_row", off_by_one)
    with pytest.raises(ArithmeticError, match=r"S\(9,4\)"):
        stirling_via_series(9, 4)


def test_explicit_sum_raises_on_a_remainder(monkeypatch):
    monkeypatch.setattr(stirling, "factorial", lambda m: 7)  # 3! is 6
    with pytest.raises(ArithmeticError, match=r"^sum for S\(5,3\) not divisible by 3!$"):
        stirling_explicit(5, 3)


def test_row_sums_satisfy_bell_recurrence():
    t = triangle_build(16)
    bell = [sum(t.row(n)) for n in range(17)]
    for n in range(16):
        assert bell[n + 1] == sum(comb(n, k) * bell[k] for k in range(n + 1))


def test_shared_triangle_grows_and_snapshots():
    small = shared_triangle(3)
    big = shared_triangle(12)
    assert small.max_n == 3
    assert big.row(3) == small.row(3)
    assert big.value(12, 3) == triangle_build(12).value(12, 3)


def test_triangle_record_contract():
    assert StirlingTriangle._fields == ("max_n", "rows")
    first, second = shared_triangle(5), shared_triangle(5)
    assert first == second
    assert hash(first) == hash(second)
    with pytest.raises(AttributeError):
        first.max_n = 6
    with pytest.raises(AttributeError):
        first.extra = 6


def test_save_load_round_trip(tmp_path):
    t = triangle_build(10)
    path = tmp_path / "triangle.txt"
    triangle_save(t, path)
    assert triangle_load(path) == t


def test_save_bytes_are_pinned(tmp_path):
    path = tmp_path / "stirling2.txt"
    triangle_save(triangle_build(40), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "cb6d0beaa62e4ee3ae178f3b6b7c2e5cf682d058a75ec8aba17f59cb146d824b"


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(TriangleFormatError):
        triangle_load(path)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("NOTATRIANGLE v1 max_n=2\nEND 0\n")
    with pytest.raises(TriangleFormatError):
        triangle_load(path)


def test_load_version_mismatch(tmp_path):
    path = tmp_path / "v2.txt"
    triangle_save(triangle_build(2), path)
    path.write_text(path.read_text().replace("STIRLING2 v1", "STIRLING2 v2", 1))
    with pytest.raises(TriangleVersionError):
        triangle_load(path)


def test_load_missing_end(tmp_path):
    path = tmp_path / "noend.txt"
    triangle_save(triangle_build(2), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(TriangleFormatError):
        triangle_load(path)


def test_load_wrong_end_count(tmp_path):
    path = tmp_path / "count.txt"
    triangle_save(triangle_build(2), path)
    path.write_text(path.read_text().replace("END 6", "END 7"))
    with pytest.raises(TriangleFormatError):
        triangle_load(path)


def test_load_corrupted_row_length(tmp_path):
    # drop one entry line and patch the END count so only the row shape is wrong
    path = tmp_path / "short.txt"
    triangle_save(triangle_build(3), path)
    lines = path.read_text().splitlines()
    del lines[3]  # removes entry "1 1 1"
    lines[-1] = "END 9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TriangleInvariantError):
        triangle_load(path)


def test_load_tampered_value(tmp_path):
    path = tmp_path / "tampered.txt"
    triangle_save(triangle_build(4), path)
    path.write_text(path.read_text().replace("4 2 7", "4 2 8"))
    with pytest.raises(TriangleInvariantError):
        triangle_load(path)


def test_load_garbled_entry(tmp_path):
    path = tmp_path / "garbled.txt"
    triangle_save(triangle_build(2), path)
    path.write_text(path.read_text().replace("2 1 1", "2 1 one"))
    with pytest.raises(TriangleFormatError):
        triangle_load(path)


@pytest.mark.parametrize(
    "old, new, error, message",
    [
        ("max_n=2", "max_n=x", TriangleFormatError, "bad max_n"),
        ("max_n=2", "max_n=-1", TriangleFormatError, "negative max_n"),
        ("END 6", "END 6 6", TriangleFormatError, "bad END line"),
        ("END 6", "END x", TriangleFormatError, "bad END count"),
        ("2 1 1", "2 1", TriangleFormatError, "bad entry line"),
        ("2 0 0\n2 1 1", "2 1 1\n2 0 0", TriangleInvariantError, "out of place"),
        ("1 1 1", "1 1 2", TriangleInvariantError, r"S\(1,1\)"),
        ("1 0 0", "1 0 5", TriangleInvariantError, r"S\(1,0\)"),
        ("2 1 1", "2 1 -1", TriangleInvariantError, "negative entry"),
    ],
)
def test_load_rejects_a_malformed_file(tmp_path, old, new, error, message):
    path = tmp_path / "malformed.txt"
    triangle_save(triangle_build(2), path)
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    with pytest.raises(error, match=message):
        triangle_load(path)


def test_load_non_ascii_file(tmp_path):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe" + "STIRLING2 v1 max_n=0\n0 0 1\nEND 1\n".encode("utf-16-le"))
    with pytest.raises(TriangleFormatError):
        triangle_load(path)


def test_save_over_existing_file_leaves_no_temp_file(tmp_path):
    path = tmp_path / "triangle.txt"
    triangle_save(triangle_build(3), path)
    triangle_save(triangle_build(5), path)
    assert [p.name for p in tmp_path.iterdir()] == ["triangle.txt"]
    assert triangle_load(path) == triangle_build(5)


def test_failed_replace_keeps_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "stirling2.txt"
    triangle_save(triangle_build(3), path)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(stirling.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        triangle_save(triangle_build(5), path)
    assert list(tmp_path.glob(".stirling2.txt.*.tmp")) == []
    assert [p.name for p in tmp_path.iterdir()] == ["stirling2.txt"]
    assert path.read_bytes() == before


def test_failed_write_partway_keeps_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "stirling2.txt"
    triangle_save(triangle_build(3), path)
    before = path.read_bytes()
    temp_sizes = []

    class Unwritable(int):
        def __format__(self, spec):
            temp_sizes.extend(p.stat().st_size for p in tmp_path.glob(".stirling2.txt.*.tmp"))
            raise RuntimeError("cannot write")

    # Rows 0..39 fill more than one write buffer before the last row fails.
    rows = triangle_build(40).rows
    broken = StirlingTriangle(40, (*rows[:40], (*rows[40][:-1], Unwritable(1))))
    with pytest.raises(RuntimeError, match="cannot write"):
        triangle_save(broken, path)
    assert len(temp_sizes) == 1 and temp_sizes[0] > 0  # earlier rows were on disk
    assert list(tmp_path.glob(".stirling2.txt.*.tmp")) == []
    assert [p.name for p in tmp_path.iterdir()] == ["stirling2.txt"]
    assert path.read_bytes() == before


@pytest.mark.parametrize("max_n", [3000, 10**9])
def test_load_rejects_size_before_allocating(tmp_path, max_n):
    # A header claiming a huge triangle over an empty body must fail on the
    # entry count, not after sizing anything by the claim.
    path = tmp_path / "huge.txt"
    path.write_text(f"STIRLING2 v1 max_n={max_n}\nEND 0\n")
    with pytest.raises(TriangleInvariantError):
        triangle_load(path)

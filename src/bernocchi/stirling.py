"""Stirling numbers of the second kind by three independent routes.

S(n, k) counts the partitions of an n-element set into k nonempty blocks.
The workhorse is the two-term recurrence S(n,k) = k*S(n-1,k) + S(n-1,k-1);
the alternating binomial sum and the coefficient extraction from
(e^x - 1)^k / k! are verification routes, and a brute-force partition
enumerator serves as a test-scale oracle.

Conventions outside the classical range: S(0,0) = 1, S(n,0) = 0 for n >= 1,
and S(n,k) = 0 for k > n.
"""
from __future__ import annotations

import os
import threading
from itertools import accumulate
from math import comb, factorial
from operator import sub
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "StirlingTriangle",
    "TriangleFileError",
    "TriangleFormatError",
    "TriangleVersionError",
    "TriangleInvariantError",
    "triangle_build",
    "shared_triangle",
    "stirling_explicit",
    "stirling_via_series",
    "stirling_enumerate",
    "set_partitions",
    "triangle_save",
    "triangle_load",
]

ENUMERATION_LIMIT = 10
# Largest n the series route accepts.  Building the rows of e^x - 1 powers
# to n takes about n^3 products of integers that grow with n, so time grows
# about as n^4: some 7-8 s at 400, 20 s at 500 (README, "Numerical notes").
SERIES_LIMIT = 400
_FILE_MAGIC = "STIRLING2"
_FILE_VERSION = "v1"


class TriangleFileError(Exception):
    """Base class for triangle cache-file problems."""


class TriangleFormatError(TriangleFileError):
    """File is not a triangle cache at all, or is truncated/garbled."""


class TriangleVersionError(TriangleFileError):
    """File declares an unsupported cache version."""


class TriangleInvariantError(TriangleFileError):
    """File parsed, but its contents violate a triangle invariant."""


class StirlingTriangle(NamedTuple):
    """Rows S(n, 0..n) for n = 0..max_n; immutable once built."""

    max_n: int
    rows: tuple[tuple[int, ...], ...]

    def value(self, n: int, k: int) -> int:
        if k < 0:
            raise ValueError("column index must be nonnegative")
        row = self.row(n)
        return row[k] if k <= n else 0

    def row(self, n: int) -> tuple[int, ...]:
        if n < 0:
            raise ValueError("row index must be nonnegative")
        if n > self.max_n:
            raise ValueError(f"triangle holds rows up to {self.max_n}, row {n} requested")
        return self.rows[n]


def _next_row(prev: tuple[int, ...]) -> tuple[int, ...]:
    n = len(prev)
    row = [0] * (n + 1)
    for k in range(1, n):
        row[k] = k * prev[k] + prev[k - 1]
    row[n] = prev[n - 1]
    return tuple(row)


def _walk_rows(max_n: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..max_n, each built from the last by the recurrence; none is kept."""
    row = (1,)
    for _ in range(max_n):
        yield row
        row = _next_row(row)
    yield row


def triangle_build(max_n: int) -> StirlingTriangle:
    """Build rows 0..max_n with the two-term recurrence."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return StirlingTriangle(max_n, tuple(_walk_rows(max_n)))


# Session-wide row cache: formulas reuse large rows heavily, and extending
# the triangle never changes already-computed entries.
_shared_rows: list[tuple[int, ...]] = [(1,)]
_shared_lock = threading.Lock()


def shared_triangle(max_n: int) -> StirlingTriangle:
    """Snapshot of the session triangle, grown to at least max_n rows."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    with _shared_lock:
        while len(_shared_rows) <= max_n:
            _shared_rows.append(_next_row(_shared_rows[-1]))
        return StirlingTriangle(max_n, tuple(_shared_rows[: max_n + 1]))


# The forward-difference table of t^k for the last exponent k asked for,
# as (k, tops, diagonal): tops[j] = Δ^j t^k at 0 and diagonal[j] = Δ^j t^k
# at M - j for j = 0..M, where M is the last column built.  Guarded by
# _power_lock and replaced whole once per call: a step that raises changes nothing.
_power_table: tuple[int, list[int], list[int]] = (0, [1], [1])
_power_lock = threading.Lock()


def _power_difference(k: int, m: int) -> int:
    """Δ^m t^k at t = 0, with the difference table of t^k grown to column m.

    Column M+1 starts its diagonal at (M+1)^k, and entry j+1 of the new
    diagonal is entry j of the new one minus entry j of the old one, so it
    costs one power and M+1 subtractions; its last entry is Δ^(M+1) t^k at 0.
    Another exponent than the kept one starts a new table at 0^k.
    """
    global _power_table
    with _power_lock:
        exponent, tops, diagonal = _power_table
        if exponent != k:
            tops, diagonal = [0**k], [0**k]
        for top in range(len(tops), m + 1):
            diagonal = list(accumulate(diagonal, sub, initial=top**k))
            tops = [*tops, diagonal[-1]]
        _power_table = (k, tops, diagonal)
        return tops[m]


def stirling_explicit(k: int, m: int) -> int:
    """S(k, m) by the alternating binomial sum (1/m!) * sum_{l=1..m} (-1)^(m-l) C(m,l) l^k.

    The sum is the m-th forward difference of t^k at 0, so m! S(k,m) =
    Δ^m t^k(0) (Concrete Mathematics, ch. 6).  It is read off a difference
    table of 0^k, 1^k, 2^k, ... kept for the last k asked for, and divided
    once by m!; a remainder signals a bug and raises.  Column j costs one
    power and j subtractions, with no binomial and no product, so a row
    S(k, 1..k), asked in any order, costs k powers and about k^2/2
    subtractions.  A call for another k starts a new table and builds
    columns 1..m: m powers and about m^2/2 subtractions, so a lone call at
    large m costs more than the m terms of the sum would.
    """
    if k < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if m == 0:
        return 1 if k == 0 else 0
    if m > k:
        return 0
    quotient, remainder = divmod(_power_difference(k, m), factorial(m))
    if remainder:
        raise ArithmeticError(f"sum for S({k},{m}) not divisible by {m}!")
    return quotient


# Row i holds i! [x^i] (e^x - 1)^j for j = 0..i, the powers of e^x - 1 in
# the exponential basis.  No entry depends on a truncation order, so one
# triangle serves every request and grows only with n.
_expm1_rows: list[list[int]] = [[1]]
_expm1_lock = threading.Lock()


def _expm1_row(n: int) -> list[int]:
    """n! [x^n] (e^x - 1)^j for j = 0..n, grown from the highest kept row.

    In the exponential basis, multiplying by e^x - 1 is the binomial
    convolution a'_i = sum_{m<i} C(i,m) a_m (Concrete Mathematics, 7.6),
    so row i is sum_{m<i} C(i,m) times row m moved up one power.
    """
    with _expm1_lock:
        for i in range(len(_expm1_rows), n + 1):
            row = [0] * (i + 1)
            for m, prev in enumerate(_expm1_rows):
                c = comb(i, m)
                for j, a in enumerate(prev, 1):
                    row[j] += c * a
            _expm1_rows.append(row)
        return _expm1_rows[n]


def _reset_memos() -> None:
    """Forget the shared triangle rows and the rows of e^x - 1 powers past
    row 0, and the difference table of powers past column 0 of t^0."""
    global _power_table
    with _shared_lock:
        del _shared_rows[1:]
    with _expm1_lock:
        del _expm1_rows[1:]
    with _power_lock:
        _power_table = (0, [1], [1])


def stirling_via_series(n: int, k: int, order: int | None = None) -> int:
    """S(n, k) as n! times the x^n coefficient of (e^x - 1)^k / k!.

    The series is truncated at `order` (defaults to n).  The order is only
    checked: one below n cannot hold the requested coefficient and is
    rejected.  It selects no memo, since the kept rows do not depend on it.
    The power is kept n!-scaled in integers, so S(n, k) is one exact
    division by k!; a remainder signals a bug and raises.  An n above
    SERIES_LIMIT is refused before any row is built.
    """
    if n < 0 or k < 1:
        raise ValueError("requires n >= 0 and k >= 1")
    if n > SERIES_LIMIT:
        raise ValueError(f"series route capped at n <= {SERIES_LIMIT}")
    if order is not None and order < n:
        raise ValueError(f"series order {order} too small for coefficient {n}")
    if k > n:
        return 0  # (e^x - 1)^k starts at x^k
    value, remainder = divmod(_expm1_row(n)[k], factorial(k))
    if remainder:
        raise ArithmeticError(f"series route for S({n},{k}) is not divisible by {k}!")
    return value


def set_partitions(items: list) -> Iterator[list[list]]:
    """Yield every partition of items into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def stirling_enumerate(n: int, k: int) -> int:
    """S(n, k) by brute-force enumeration of set partitions; n is capped."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration oracle capped at n <= {ENUMERATION_LIMIT}")
    return sum(1 for partition in set_partitions(list(range(1, n + 1))) if len(partition) == k)


def _validate_triangle(triangle: StirlingTriangle) -> None:
    """Check the values; triangle_load has already put every entry at its (n, k)."""
    rows = triangle.rows
    for n, row in enumerate(rows):
        if any(v < 0 for v in row):
            raise TriangleInvariantError(f"negative entry in row {n}")
        if row[n] != 1:
            raise TriangleInvariantError(f"S({n},{n}) != 1")
        if row[0] != (1 if n == 0 else 0):
            raise TriangleInvariantError(f"S({n},0) has wrong value")
        if n and row != _next_row(rows[n - 1]):
            raise TriangleInvariantError(f"row {n} violates the recurrence")


def triangle_save(triangle: tuple[int, Iterable[tuple[int, ...]]], path: str | Path) -> None:
    """Write the versioned plain-text cache format (see triangle_load).

    `triangle` is any (max_n, rows) pair, such as a StirlingTriangle or
    (max_n, _walk_rows(max_n)); its rows are read once.  They are written
    one at a time to a temporary file in the same directory, which then
    replaces `path` in one step: a reader sees the old file or the new one,
    never a partial write, and a write that fails partway removes the
    temporary file.
    """
    max_n, rows = triangle
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temp, "w", encoding="ascii") as out:
            out.write(f"{_FILE_MAGIC} {_FILE_VERSION} max_n={max_n}\n")
            count = 0
            for n, row in enumerate(rows):
                out.write("".join([f"{n} {k} {value}\n" for k, value in enumerate(row)]))
                count += len(row)
            out.write(f"END {count}\n")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def triangle_load(path: str | Path) -> StirlingTriangle:
    """Load a triangle cache file.

    Format: header "STIRLING2 v1 max_n=<N>", one "<n> <k> <value>" line per
    entry with k <= n in lexicographic (n, k) order, then "END <count>".
    Raises TriangleFormatError for garbled or truncated files,
    TriangleVersionError for an unsupported version, and
    TriangleInvariantError when the parsed numbers violate an invariant.
    """
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise TriangleFormatError("file is not ASCII text") from None
    lines = text.splitlines()
    if not lines:
        raise TriangleFormatError("empty file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != _FILE_MAGIC or not header[2].startswith("max_n="):
        raise TriangleFormatError(f"bad header: {lines[0]!r}")
    if header[1] != _FILE_VERSION:
        raise TriangleVersionError(f"unsupported version {header[1]!r}")
    try:
        max_n = int(header[2][len("max_n=") :])
    except ValueError:
        raise TriangleFormatError(f"bad max_n in header: {lines[0]!r}") from None
    if max_n < 0:
        raise TriangleFormatError("negative max_n")

    body = lines[1:]
    if not body or not body[-1].startswith("END"):
        raise TriangleFormatError("missing END line")
    end_parts = body[-1].split()
    if len(end_parts) != 2 or end_parts[0] != "END":
        raise TriangleFormatError(f"bad END line: {body[-1]!r}")
    try:
        declared = int(end_parts[1])
    except ValueError:
        raise TriangleFormatError(f"bad END count: {body[-1]!r}") from None
    entries = body[:-1]
    if declared != len(entries):
        raise TriangleFormatError(f"END declares {declared} rows, file has {len(entries)}")

    # Checked before anything is sized by the declared max_n, so a bad
    # header costs nothing however large it claims the triangle to be.
    size = (max_n + 1) * (max_n + 2) // 2
    if len(entries) != size:
        raise TriangleInvariantError(
            f"expected {size} entries for max_n={max_n}, found {len(entries)}"
        )
    rows: list[list[int]] = [[] for _ in range(max_n + 1)]
    expected = ((n, k) for n in range(max_n + 1) for k in range(n + 1))
    for line, (want_n, want_k) in zip(entries, expected):
        parts = line.split()
        if len(parts) != 3:
            raise TriangleFormatError(f"bad entry line: {line!r}")
        try:
            n, k, value = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise TriangleFormatError(f"bad entry line: {line!r}") from None
        if (n, k) != (want_n, want_k):
            raise TriangleInvariantError(
                f"entry ({n},{k}) out of place, expected ({want_n},{want_k})"
            )
        rows[n].append(value)

    triangle = StirlingTriangle(max_n, tuple(tuple(row) for row in rows))
    _validate_triangle(triangle)
    return triangle

"""A fixed computation that the benchmark times next to every program run,
so that drift in the speed of a shared host can be divided out.

It has the character of bernocchi's work (a fresh interpreter doing Fraction
arithmetic on growing integers) and shares no code with it: the
Akiyama-Tanigawa table up to SIZE, in plain Fractions.

    python perfbench/calibrate.py
"""
from __future__ import annotations

from fractions import Fraction

SIZE = 220


def main() -> int:
    row: list[Fraction] = []
    for m in range(SIZE):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return 0 if row[0] == 0 else 1  # B_219 = 0


if __name__ == "__main__":
    raise SystemExit(main())

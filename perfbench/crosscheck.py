"""One cross-check pass over bernocchi's independent library routes.

    PYTHONPATH=src python perfbench/crosscheck.py

Checks, in exact arithmetic:
  * S(n, k) for 1 <= k <= n <= 60 agrees across the recurrence triangle, the
    alternating binomial sum and the series route at order 60;
  * the iterated derivative polynomial of 1/(lambda*e^(alpha*t) - 1) equals
    its Stirling closed form for k <= 30 and alpha in {1, 2, 1/2};
  * genocchi_from_derivatives(k) == genocchi_theorem(k) for 1 <= k <= 60.

Prints one JSON line: the mismatches found and the Genocchi values, which the
benchmark compares against its own reference.  Functions are looked up on
their modules at call time so that a tracing run can wrap them.
"""
from __future__ import annotations

import json
from fractions import Fraction

from bernocchi import derivatives, formulas, stirling

STIRLING_MAX_N = 60
DERIVATIVE_MAX_K = 30
ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2))
GENOCCHI_MAX_K = 60


def run() -> dict:
    mismatches = []
    triangle = stirling.triangle_build(STIRLING_MAX_N)
    for n in range(1, STIRLING_MAX_N + 1):
        for k in range(1, n + 1):
            routes = {
                triangle.value(n, k),
                stirling.stirling_explicit(n, k),
                stirling.stirling_via_series(n, k, STIRLING_MAX_N),
            }
            if len(routes) != 1:
                mismatches.append(f"S({n},{k})")
    for alpha in ALPHAS:
        for k in range(DERIVATIVE_MAX_K + 1):
            iterated = derivatives.derivative_polynomial(k, alpha)
            if iterated != derivatives.derivative_polynomial_reference(k, alpha):
                mismatches.append(f"derivative k={k} alpha={alpha}")
    values = []
    for k in range(1, GENOCCHI_MAX_K + 1):
        g = derivatives.genocchi_from_derivatives(k)
        if g != formulas.genocchi_theorem(k):
            mismatches.append(f"G_{k}")
        values.append(str(g))
    return {"mismatches": mismatches, "genocchi": values}


def main() -> int:
    print(json.dumps(run()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Exact computation and differential verification of Bernoulli, Genocchi
and Stirling-number formulas, with a CLI for tables, verification reports
and micro-benchmarks."""

from .exact import format_rational
from .polynomial import RationalPolynomial, X, interpolate
from .stirling import (
    StirlingTriangle,
    TriangleFileError,
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
from .formulas import (
    B0,
    B1,
    FormulaId,
    bernoulli_double_stirling,
    bernoulli_faulhaber_recursion,
    bernoulli_from_genocchi,
    bernoulli_from_tangent,
    bernoulli_gould_double,
    bernoulli_higgins,
    bernoulli_series_oracle,
    bernoulli_stirling_ratio,
    bernoulli_stirling_single,
    bernoulli_tangent_double_as_printed,
    euler_at_zero,
    faulhaber_coefficients,
    formula_bernoulli_value,
    formula_value,
    genocchi_from_bernoulli,
    genocchi_theorem,
    is_applicable,
    tangent_numbers,
)
from .derivatives import (
    DerivativeRule,
    LOGISTIC_RULE,
    derivative_polynomial,
    derivative_polynomial_reference,
    genocchi_from_derivatives,
    logistic_derivative_polynomial,
    logistic_derivative_polynomial_reference,
    reciprocal_expm1_rule,
)
from .harness import (
    BenchRecord,
    FormulaEvaluation,
    IndexRecord,
    Verdict,
    VerificationReport,
    bench,
    evaluate_all,
    report_to_dict,
    report_to_json,
    verify_range,
)

from . import formulas as _formulas, stirling as _stirling

__version__ = "0.1.0"


def reset_caches() -> None:
    """Clear every process-global memo, so that the next computation runs cold.

    The series oracle's integer state goes back to B_0 and B_1; the rows of
    e^x - 1 powers kept by the Stirling series route and the shared
    Stirling rows go back to row 0.  No value changes, only the time taken
    to reach it.
    """
    _formulas._reset_oracle()
    _stirling._reset_memos()

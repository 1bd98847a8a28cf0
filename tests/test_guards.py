"""Argument guards: each public function rejects an out-of-range index with ValueError."""
from fractions import Fraction

import pytest

from bernocchi import derivatives, formulas, harness, stirling

GUARDS = [
    (formulas.bernoulli_series_oracle, (-1,), "n must be nonnegative"),
    (formulas.bernoulli_higgins, (-1,), "n must be nonnegative"),
    (formulas.bernoulli_stirling_single, (-1,), "n must be nonnegative"),
    (formulas.bernoulli_gould_double, (-1,), "n must be nonnegative"),
    (formulas.bernoulli_stirling_ratio, (-1,), "n must be nonnegative"),
    (formulas.faulhaber_coefficients, (-1,), "exponent must be nonnegative"),
    (formulas.bernoulli_faulhaber_recursion, (0,), "k must be positive"),
    (formulas.bernoulli_tangent_double_as_printed, (0,), "k must be positive"),
    (formulas.bernoulli_double_stirling, (0,), "k must be positive"),
    (formulas.genocchi_theorem, (0,), "k must be positive"),
    (formulas.genocchi_from_bernoulli, (0, Fraction(1)), "n must be positive"),
    (formulas.euler_at_zero, (0,), "n must be positive"),
    (derivatives.derivative_polynomial, (-1, 1), "k must be nonnegative"),
    (derivatives.derivative_polynomial_reference, (-1, 1), "k must be nonnegative"),
    (derivatives.logistic_derivative_polynomial, (-1,), "k must be nonnegative"),
    (derivatives.logistic_derivative_polynomial_reference, (-1,), "k must be nonnegative"),
    (derivatives.genocchi_from_derivatives, (0,), "k must be positive"),
    (stirling.triangle_build, (-1,), "max_n must be nonnegative"),
    (stirling.stirling_explicit, (-1, 0), "indices must be nonnegative"),
    (stirling.stirling_explicit, (0, -1), "indices must be nonnegative"),
    (stirling.stirling_enumerate, (-1, 0), "indices must be nonnegative"),
    (stirling.stirling_enumerate, (0, -1), "indices must be nonnegative"),
    (harness.evaluate_all, (-1,), "n must be nonnegative"),
    (harness.verify_range, (-1,), "max_n must be nonnegative"),
]


@pytest.mark.parametrize(
    "function, args, message",
    GUARDS,
    ids=[f"{f.__name__}{args}" for f, args, _ in GUARDS],
)
def test_out_of_range_argument_raises_value_error(function, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(*args)

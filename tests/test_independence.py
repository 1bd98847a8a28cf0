"""Which shared inputs each route reads, and so which routes can fail together.

Every module-global binding of a shared input is wrapped to record its
name, each route is evaluated cold at a few indices, and the names it
touched must equal the table below.  A new route fails here until its
inputs are declared; the README's "Formula registry" section holds the same
table.  A row's sweep, which `verify` reads in its place, must touch the
same inputs as the row.
"""
import sys

import pytest

from bernocchi import derivatives, formulas, polynomial, reset_caches, stirling, tangent
from bernocchi.formulas import FormulaId

SHARED_INPUTS = {
    "bernoulli_series_oracle": formulas,
    "shared_triangle": stirling,
    "tangent_numbers": tangent,
    "interpolate": polynomial,
    "_expm1_row": stirling,
    "_power_difference": stirling,
}

GENOCCHI_DERIVATIVES = "genocchi_from_derivatives"

ROUTE_INPUTS = {
    FormulaId.SERIES_ORACLE: {"bernoulli_series_oracle"},
    FormulaId.HIGGINS_9: set(),
    FormulaId.STIRLING_SINGLE_10: {"shared_triangle"},
    FormulaId.GOULD_DOUBLE_11: set(),
    FormulaId.STIRLING_RATIO_12: {"shared_triangle"},
    FormulaId.FAULHABER_RECURSION_13: {"interpolate"},
    FormulaId.TANGENT_DOUBLE_14_AS_PRINTED: set(),
    FormulaId.DOUBLE_STIRLING_15: {"shared_triangle"},
    FormulaId.GENOCCHI_THEOREM_16: {"shared_triangle"},
    FormulaId.BRENT_HARVEY_TANGENT: {"tangent_numbers"},
    GENOCCHI_DERIVATIVES: set(),
}


def test_every_formula_has_a_row():
    assert set(ROUTE_INPUTS) == {*FormulaId, GENOCCHI_DERIVATIVES}


@pytest.fixture
def touched(monkeypatch):
    """The names in SHARED_INPUTS called from here on, the caches reset first."""
    names = set()

    def recording(name, function):
        def wrapper(*args, **kwargs):
            names.add(name)
            return function(*args, **kwargs)

        return wrapper

    reset_caches()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bernocchi"]
    for name, home in SHARED_INPUTS.items():
        original = getattr(home, name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recording(name, original))
    return names


@pytest.mark.parametrize("route", ROUTE_INPUTS, ids=lambda r: getattr(r, "value", r))
def test_route_reads_only_its_declared_shared_inputs(touched, route):
    for n in (1, 2, 7, 12, 20):
        if route == GENOCCHI_DERIVATIVES:
            derivatives.genocchi_from_derivatives(n)
        elif formulas.is_applicable(route, n):
            formulas.formula_value(route, n)
    assert touched == ROUTE_INPUTS[route]


SWEPT_ROUTES = [fid for fid in FormulaId if formulas.bernoulli_sweep(fid, 0) is not None]


@pytest.mark.parametrize("route", SWEPT_ROUTES, ids=lambda r: r.value)
def test_sweep_reads_only_its_declared_shared_inputs(touched, route):
    assert len(list(formulas.bernoulli_sweep(route, 20))) > 1
    assert touched == ROUTE_INPUTS[route]

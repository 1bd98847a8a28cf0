"""Which routes can fail together: `sys.setprofile` records the package functions each runs.

The independence classes are the connected components of "runs a common function".
C builtins and `fractions`, which it does not record, are the trusted base."""
import sys
from pathlib import Path

import pytest

from bernocchi import derivatives, formulas, reset_caches
from bernocchi.formulas import FormulaId

DERIVATIVES = "genocchi_from_derivatives"
# Left out, with every code object named "<...>": registry lambdas, comprehensions.
DISPATCH = {f"bernocchi.formulas.{f}" for f in ("formula_value", "is_applicable", "bernoulli_sweep")}
TRIANGLE = {"STIRLING_SINGLE_10", "STIRLING_RATIO_12", "DOUBLE_STIRLING_15", "GENOCCHI_THEOREM_16"}
# (route, a function it calls by name): the kernel, then the sweep, of each registry row.
KERNELS = [(fid.value, getattr(formulas, name)) for fid, row in formulas._REGISTRY.items()
           for entry in (row.evaluate, row.sweep) if entry for name in entry.__code__.co_names]
KERNELS.append((DERIVATIVES, derivatives.genocchi_from_derivatives))


def _key(module, code):
    """module.qualname, or module.name on Python 3.10, which has no co_qualname."""
    return f"{module}.{getattr(code, 'co_qualname', code.co_name)}"


@pytest.fixture(scope="module")
def runners():
    """Each package function that a cold run of some route calls -> the names of those routes."""
    found, previous = {}, sys.getprofile()

    def profile(frame, event, arg):
        module, code = frame.f_globals.get("__name__", ""), frame.f_code
        if event == "call" and module.split(".")[0] == "bernocchi" and code.co_name[0] != "<":
            found.setdefault(_key(module, code), set()).add(name)

    for route in [*FormulaId, DERIVATIVES]:
        name = getattr(route, "value", route)
        reset_caches()
        sys.setprofile(profile)
        try:
            for n in (1, 2, 7, 12, 20):
                if route == DERIVATIVES:
                    derivatives.genocchi_from_derivatives(n)
                elif formulas.is_applicable(route, n):
                    formulas.formula_value(route, n)
            if route != DERIVATIVES:
                list(formulas.bernoulli_sweep(route, 20) or ())
        finally:
            sys.setprofile(previous)
    return found


def _classes(runners):
    """The connected components of "runs a common function", as sets of route names."""
    classes = []
    for function, routes in runners.items():
        if function not in DISPATCH:
            joined = [c for c in classes if c & routes]
            classes = [c for c in classes if c not in joined] + [routes.union(*joined)]
    return classes


def test_the_oracle_stands_apart_and_the_triangle_rows_are_the_only_class_of_several(runners):
    assert DISPATCH <= runners.keys()  # so each name left out is still a function of formulas
    shared = {f: sorted(r) for f, r in sorted(runners.items())  # empty while both hold
              if f not in DISPATCH and len(r) > 1 and not r <= TRIANGLE}
    classes = _classes(runners)
    (anchor,) = [c for c in classes if "SERIES_ORACLE" in c]
    trusted = {r for r in anchor - {"SERIES_ORACLE"} if r == DERIVATIVES or FormulaId(r).trusted}
    assert not trusted, shared
    assert [c for c in classes if len(c) > 1] == [TRIANGLE], shared


@pytest.mark.parametrize("route, kernel", KERNELS, ids=lambda v: getattr(v, "__name__", v))
def test_the_recorder_sees_each_route_run_its_kernel_and_sweep(runners, route, kernel):
    assert route in runners.get(_key(kernel.__module__, kernel.__code__), ())


def test_the_readme_lists_the_computed_classes(runners):
    routes = set().union(*runners.values())
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    listed = [{r for r in routes if f"`{r}`" in ln} for ln in lines if ln.startswith("* Class ")]
    assert sorted(map(sorted, listed)) == sorted(map(sorted, _classes(runners)))

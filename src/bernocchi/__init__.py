"""Exact computation and differential verification of Bernoulli, Genocchi
and Stirling-number formulas, with a CLI for tables, verification reports
and micro-benchmarks.

Every name in a library module's ``__all__`` is importable from here; the
``cache`` helpers are not.  The library modules load the first time a
package attribute that is not bound yet is looked up, so ``import
bernocchi.cli`` alone loads none of them and each CLI command imports only
the modules it runs."""

import importlib as _importlib

__version__ = "0.1.0"

_LIBRARY = ("exact", "polynomial", "stirling", "tangent", "formulas", "derivatives", "harness")


def _load_library() -> None:
    """Import every library module and bind its __all__ names here.

    The whole library loads at once, not name by name: ``from bernocchi
    import *`` then binds every name, and a tracer that wraps the functions
    of the modules already imported finds all of them."""
    names = globals()
    for name in _LIBRARY:
        module = _importlib.import_module(f"{__name__}.{name}")
        names.update((attr, getattr(module, attr)) for attr in module.__all__)


def __getattr__(name: str):
    _load_library()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load_library()
    return sorted(globals())


def reset_caches() -> None:
    """Clear every process-global memo, so that the next computation runs cold.

    The series oracle's integer state goes back to B_0 and B_1; the rows of
    e^x - 1 powers kept by the Stirling series route and the shared
    Stirling rows go back to row 0; the difference table of powers kept by
    the explicit Stirling sum goes back to column 0 of t^0; the one iterate
    kept by the derivative polynomials (of any rule) and by the derivative
    route to Genocchi numbers goes back to the logistic p_0 = x.  No value
    changes, only the time taken to reach it.
    """
    from . import derivatives, formulas, stirling

    formulas._reset_oracle()
    stirling._reset_memos()
    derivatives._reset_iterate()

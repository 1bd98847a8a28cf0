"""Exact computation and differential verification of Bernoulli, Genocchi
and Stirling-number formulas, with a CLI for tables, verification reports
and micro-benchmarks.

Every name in a library module's ``__all__`` is importable from here; the
``cache`` helpers are not."""

from .exact import *
from .polynomial import *
from .stirling import *
from .formulas import *
from .derivatives import *
from .harness import *

from . import derivatives as _derivatives, formulas as _formulas, stirling as _stirling

__version__ = "0.1.0"


def reset_caches() -> None:
    """Clear every process-global memo, so that the next computation runs cold.

    The series oracle's integer state goes back to B_0 and B_1; the rows of
    e^x - 1 powers kept by the Stirling series route and the shared
    Stirling rows go back to row 0; the difference table of powers kept by
    the explicit Stirling sum goes back to column 0 of t^0; the derivative
    route's memo of Genocchi values and its last logistic iterate go back
    to G_1 and p_0 = x.  No value changes, only the time taken to reach it.
    """
    _formulas._reset_oracle()
    _stirling._reset_memos()
    _derivatives._reset_genocchi()

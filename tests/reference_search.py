"""The binary threshold search that `exactnum.least_feasible` replaced with
a galloping search over certificates, kept as it was as an oracle: it takes
a bool predicate and probes the middle index (lo + hi) // 2 of the open
range, from the whole list down.  Beside it, `decide_interleaving` as it was
before it read the diagonal-slice bound: the solver alone, on the raw pair,
so the searches it checks cannot share a slice-bound error."""

from fractions import Fraction

from permod.interleave import TermTable
from permod.presentation import PresentationError
from permod.quadsys import DEFAULT_BUDGET, solve_finite_field


def least_feasible(values, feasible):
    """The least entry of the sorted list `values` at which the monotone
    predicate `feasible` holds, or None if it holds at none.  Binary search:
    each probe is the middle index (lo + hi) // 2 of the open range."""
    lo, hi = 0, len(values) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        if feasible(values[mid]):
            best = values[mid]
            hi = mid - 1
        else:
            lo = mid + 1
    return best


def decide_interleaving(m, n, eps, budget=DEFAULT_BUDGET):
    """'yes'/'no': are M and N eps-interleaved?  eps >= 0 rational."""
    eps = Fraction(eps)
    if eps < 0:
        raise PresentationError("eps must be >= 0")
    res = solve_finite_field(TermTable(m, n).at(eps).system, budget=budget)
    return "yes" if res.status == "solvable" else "no"

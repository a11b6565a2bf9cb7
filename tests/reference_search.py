"""The binary threshold search that `exactnum.least_feasible` replaced with
a galloping search over certificates, kept as it was as an oracle: it takes
a bool predicate and probes the middle index (lo + hi) // 2 of the open
range, from the whole list down.  Beside it, `decide_by_solver`, the
decision as it was before it read the diagonal-slice bound: the solver
alone, on the raw pair, so the searches it checks cannot share a
slice-bound error.

Last, the slice-started search as it was while it held the candidates as
ExtendedRationals from `candidate_set` and turned each back into a table
level: `slice_start`, `_search_start`, `decide_interleaving` and
`interleaving_distance`.  The candidates come from the Fraction-difference
`candidate_set` of reference_interleave.py, on the minimized pair."""

import operator
from fractions import Fraction

from permod import exactnum
from permod.exactnum import INF, ExtendedRational, ext
from permod.interleave import DistanceBudgetExceeded, TermTable
from permod.onedim import bars, matchable
from permod.presentation import PresentationError
from permod.quadsys import (BudgetExceeded, DEFAULT_BUDGET, QuadSysError,
                            solve_finite_field)

import reference_interleave


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


def decide_by_solver(m, n, eps, budget=DEFAULT_BUDGET):
    """'yes'/'no': are M and N eps-interleaved?  eps >= 0 rational."""
    eps = Fraction(eps)
    if eps < 0:
        raise PresentationError("eps must be >= 0")
    res = solve_finite_field(TermTable(m, n).at(eps).system, budget=budget)
    return "yes" if res.status == "solvable" else "no"


def slice_start(table, mm, nn, finite):
    """The index of the least of the sorted finite candidates at which the
    diagonal slices of the minimized pair (mm, nn) all admit a matching,
    len(finite) when a slice admits none."""
    gm, gn, rm, rn = table.grades
    pres = [(gens, [(h, cs) for h, (_, _, cs) in zip(rels, p.relations)])
            for gens, rels, p in ((gm, rm, mm), (gn, rn, nn))]
    lines = sorted({tuple(x - g[-1] for x in g) for gens, rels in pres
                    for g in gens + [h for h, _ in rels]})
    levels = [2 * table.level(c.value) for c in finite]
    never = levels[-1] + 1      # finite holds 0, so levels is not empty
    k = 0
    for c in lines:
        left, right = (bars(table.field, [max(map(operator.sub, g, c)) for g in gens],
                            [(max(map(operator.sub, h, c)), cs) for h, cs in rels])
                       for gens, rels in pres)
        cost = [[never if (dx is None) != (dy is None) else
                 2 * max(abs(bx - by), 0 if dx is None else abs(dx - dy))
                 for by, dy in right] for bx, dx in left]
        left_len, right_len = ([never if d is None else d - b for b, d in side]
                               for side in (left, right))
        while k < len(finite) and not matchable(cost, left_len, right_len, levels[k]):
            k += 1
    return k


def _search_start(m, n, budget):
    """The term table of the minimized pair, its sorted finite candidates,
    their `slice_start` k, and the candidate below it (0 at k = 0)."""
    if budget < 0:
        raise QuadSysError("budget must be >= 0")
    mm, nn = m.minimize(), n.minimize()
    table = TermTable(mm, nn)
    finite = [c for c in reference_interleave.candidate_set(mm, nn, minimal=True)
              if c.is_finite]
    k = slice_start(table, mm, nn, finite)
    return table, finite, k, finite[k - 1] if k else ExtendedRational.of(0)


def decide_interleaving(m, n, eps, budget=DEFAULT_BUDGET):
    """'yes'/'no' from the slice start: no without the solver when the
    largest candidate <= eps lies below it."""
    eps = Fraction(eps)
    if eps < 0:
        raise PresentationError("eps must be >= 0")
    table, finite, k, last_no = _search_start(m, n, budget)
    if k == len(finite) or eps < finite[k].value:
        return "no"
    try:
        res = solve_finite_field(table.at(eps).system, budget=budget)
    except BudgetExceeded as exc:
        raise DistanceBudgetExceeded(last_no, INF, ext(eps), exc.nodes) from exc
    return "yes" if res.status == "solvable" else "no"


def interleaving_distance(m, n, budget=DEFAULT_BUDGET, stats=None):
    """d_I(M, N): the galloping certificate search over the candidates from
    the slice start; each yes certifies the least candidate at which the
    witness's nonzero entries are free."""
    table, finite, k, last_no = _search_start(m, n, budget)
    if stats is not None:
        stats.candidates = len(finite) + 1
    first_yes = INF

    def interleaved(eps):
        nonlocal last_no, first_yes
        isys = table.at(eps.value)
        try:
            res = solve_finite_field(isys.system, budget=budget)
        except BudgetExceeded as exc:
            raise DistanceBudgetExceeded(last_no, first_yes, eps, exc.nodes) from exc
        if stats is not None:
            stats.decisions += 1
            stats.nodes += res.nodes
        if res.status != "solvable":
            last_no = eps
            return None
        least = Fraction(max((table.thresholds[name][i][j]
                              for (name, i, j), v in isys.var_of_entry.items()
                              if res.witness[v - 1] != table.field.zero), default=0),
                         table.scale)
        first_yes = next(c for c in finite if c.value >= least)
        return first_yes

    d = exactnum.least_feasible(finite[k:], interleaved)
    return INF if d is None else d

"""Deciding interleavings by reduction to quadratic-system solvability.

Two finitely presented modules are eps-interleaved iff a certain system of
affine-quadratic equations over the coefficient field has a solution.  The
unknowns are the entries of six matrices: A, B carry the two interleaving
morphisms on free covers, C, D map relations to relations, and E, F express
the defect of the composites from the 2-eps transitions.  The equations are
the entries of

    A T_M = T_N C,   B T_N = T_M D,   B A - I = T_M E,   A B - I = T_N F,

where T_M, T_N hold the relation coefficient vectors.  Which entries of the
variable matrices may be nonzero is dictated by the grades: an entry mapping
basis element b to basis element b' is free iff grade(b') <= J(grade(b)) for
the relevant shift J.  Translations by eps give the interleaving distance;
general diagonal affine maps (J1, J2) give the asymmetric decision used for
the Rips/Cech comparison.

A pair's data is kept once (`TermTable`): its grades as scaled ints, the
zero-pattern thresholds, and T_M, T_N as lists of sparse {column: entry}
rows.  Each system numbers its free entries (A..F, row-major), puts a
variable on each, and expands the four identities, four rows (L1, R1, L2,
R2) of one table, over those entries alone: one equation per entry of
L1 R1 - L2 R2 (- I).  One helper adds an entry of a product, a constant
times a variable as a linear term and a variable times a variable as a
quadratic one.  The equations come out normal and are stored unchecked.

The distance search, and a single eps decision, run on the table's sorted
candidate levels (ints) and start at the least one that the bars of both
modules on the slope-1 lines through their grades do not rule out, a lower
bound on d_I (`slice_start`, on `onedim.bars` and `onedim.matchable`).
"""

import bisect
import operator
from fractions import Fraction

from .exactnum import INF, common_denominator, ext, least_feasible, scaled_int
from .onedim import bars, matchable
from .presentation import PresentationError, grade_leq
from .quadsys import (BudgetExceeded, DEFAULT_BUDGET, QuadEquation, QuadSysError,
                      QuadraticSystem, export_system, solve_finite_field)


class InterleavingSystem:
    """The assembled decision object: matrix shapes, free-entry masks and the
    resulting quadratic system."""

    MATS = ("A", "B", "C", "D", "E", "F")

    def __init__(self, shapes, masks, system, var_of_entry):
        self.shapes = shapes            # name -> (rows, cols)
        self.masks = masks              # name -> [[bool]] True = free variable
        self.system = system
        self.var_of_entry = var_of_entry  # (name, i, j) -> 1-based var index

    @property
    def free_variable_count(self):
        return self.system.nvars

    @property
    def equation_count(self):
        return len(self.system.equations)

    def export_text(self):
        """Quadsys text plus a trailing comment block mapping variables back
        to matrix entries."""
        body = export_system(self.system)
        notes = "".join(f"# var {v} = {name}[{i + 1}][{j + 1}]\n"
                        for (name, i, j), v in sorted(self.var_of_entry.items(),
                                                      key=lambda kv: kv[1]))
        return body + notes


def zero_pattern_mask(target_grades, source_grades, jmap=None):
    """Mat_k zero pattern against a shifted target basis: entry (i, j) may be
    nonzero iff grade(target i) <= J(grade(source j))."""
    if jmap is not None:
        source_grades = [jmap.apply(sj) for sj in source_grades]
    return [[grade_leq(ti, sj) for sj in source_grades] for ti in target_grades]


def _add_product(f, quad, lin, left, right, i, j, sign):
    """Store the terms of sign * (left . right)[i][j] in quad, lin, as built
    (no key repeats within one entry, `TermTable.system`): a constant times
    an unknown is linear, an unknown times an unknown quadratic.  Matrices
    are lists of {column: entry} rows without zeros, and an unknown is the
    1-tuple of its number, since over Z/p field constants are ints."""
    for k, a in left[i].items():
        b = right[k].get(j)
        if b is None:
            continue
        if type(a) is tuple and type(b) is tuple:
            quad[a + b if a <= b else b + a] = sign
        elif type(a) is tuple:
            lin[a[0]] = f.mul(sign, b)
        else:
            lin[b[0]] = f.mul(sign, a)


class TermTable:
    """One pair (M, N)'s data: `grades`, those of G_M, G_N, R_M, R_N as ints
    scaled by `scale` (2 * lcm of their denominators), and `t_m`, `t_n`,
    the rows of T_M, T_N.  Under translation by eps, entry (i, j) of a
    matrix is free iff its `thresholds` entry is <= eps * `scale`.  `levels`
    holds the finite part of U_{M,N} on that scale, sorted: 0 and, on each
    axis, |x - y| across the modules and |x - y| / 2 within one."""

    # name -> (target, source) basis, as indices into G_M, G_N, R_M, R_N
    BASES = {"A": (1, 0), "B": (0, 1), "C": (3, 2), "D": (2, 3), "E": (2, 0),
             "F": (3, 1)}

    def __init__(self, m, n):
        if m.n != n.n:
            raise PresentationError("parameter counts differ")
        if m.field != n.field:
            raise PresentationError("coefficient fields differ")
        self.field = m.field
        grades = ([[g for _, g in p.generators] for p in (m, n)] +
                  [[g for _, g, _ in p.relations] for p in (m, n)])
        self.bases = {name: (grades[t], grades[s])
                      for name, (t, s) in self.BASES.items()}
        self.shapes = {name: (len(t), len(s)) for name, (t, s) in self.bases.items()}
        self.scale = 2 * common_denominator(x for gs in grades for g in gs for x in g)
        self.grades = gm, gn, rm, rn = [
            [tuple(scaled_int(x, self.scale) for x in g) for g in gs] for gs in grades]
        self.thresholds = {
            name: [[max(map(operator.sub, t, s)) // (2 if name in "EF" else 1)
                    for s in self.grades[si]] for t in self.grades[ti]]
            for name, (ti, si) in self.BASES.items()}
        levels = {0}
        for a in range(m.n):
            um, un = ({g[a] for g in gs + rs} for gs, rs in ((gm, rm), (gn, rn)))
            levels |= {abs(x - y) for x in um for y in un}
            levels |= {abs(x - y) // 2 for u in (um, un) for x in u for y in u}
        self.levels = sorted(levels)
        # T_M, T_N: |G| x |R|, column j the coefficients of relation j
        self.t_m, self.t_n = (
            [{j: cs[i] for j, (_, _, cs) in enumerate(p.relations) if i in cs}
             for i in range(len(p.generators))] for p in (m, n))

    def system(self, masks):
        """The system whose free entries are those of masks (name -> [[bool]]):
        the free entries are the variables 1, 2, ... in A..F row-major order,
        and each entry of L1 R1 - L2 R2 (- I) gives one equation, its terms
        in order of first appearance.  No two products in an entry share an
        unknown or a pair of unknowns, and T_M, T_N hold no zero, so no sum
        vanishes: the equations are normal as built, and the system takes
        them unchecked (`QuadraticSystem.from_normal`)."""
        f, mats = self.field, InterleavingSystem.MATS
        entries = [(name, i, j) for name in mats for i, row in enumerate(masks[name])
                   for j, free in enumerate(row) if free]
        var_of_entry = {e: v for v, e in enumerate(entries, 1)}
        u = {name: [{} for _ in masks[name]] for name in mats}
        for (name, i, j), v in var_of_entry.items():
            u[name][i][j] = (v,)
        gm, gn, rm, rn = map(len, self.grades)
        t_m, t_n = self.t_m, self.t_n
        identities = (
            (u["A"], t_m, t_n, u["C"], gn, rm, False),     # A T_M = T_N C
            (u["B"], t_n, t_m, u["D"], gm, rn, False),     # B T_N = T_M D
            (u["B"], u["A"], t_m, u["E"], gm, gm, True),   # B A - I = T_M E
            (u["A"], u["B"], t_n, u["F"], gn, gn, True),   # A B - I = T_N F
        )
        minus_one, zero, equations = f.neg(f.one), f.zero, []
        for l1, r1, l2, r2, rows, cols, unit in identities:
            for i in range(rows):
                for j in range(cols):
                    quad, lin = {}, {}
                    _add_product(f, quad, lin, l1, r1, i, j, f.one)
                    _add_product(f, quad, lin, l2, r2, i, j, minus_one)
                    equations.append(QuadEquation.__new__(QuadEquation)._hold(
                        quad, lin, minus_one if unit and i == j else zero))
        system = QuadraticSystem.from_normal(f, len(var_of_entry), equations)
        return InterleavingSystem(dict(self.shapes), masks, system, var_of_entry)

    def level(self, eps):
        """floor(eps * scale), the threshold level of eps (a Fraction)."""
        return eps.numerator * self.scale // eps.denominator

    def value(self, level):
        """The candidate at `level` (+inf at None), an ExtendedRational."""
        return INF if level is None else ext(Fraction(level, self.scale))

    def at(self, eps):
        """The system deciding eps-interleaving (eps a Fraction, >= 0)."""
        if eps < 0:
            raise PresentationError("eps must be >= 0")
        level = self.level(eps)
        return self.system({name: [[t <= level for t in row] for row in rows]
                            for name, rows in self.thresholds.items()})


def assemble_system(m, n, j1, j2):
    """Build the quadratic system deciding whether (M, N) is (J1, J2)-interleaved.

    The zero pattern of each variable matrix comes from representing the lift
    in the shifted target basis: entry (i, j) is free iff the target basis
    grade is <= the shifted source basis grade.
    """
    table = TermTable(m, n)
    if j1.n != m.n or j2.n != m.n:
        raise PresentationError("shift map dimension mismatch")
    # E, F shift by J2 J1 and J1 J2
    maps = {"A": j1, "B": j2, "C": j1, "D": j2, "E": j2.compose(j1),
            "F": j1.compose(j2)}
    return table.system({name: zero_pattern_mask(*table.bases[name], maps[name])
                         for name in InterleavingSystem.MATS})


def _check_increasing(maps, presentations):
    grades = [g for p in presentations for _, g, *_ in p.generators + p.relations]
    if not grades:
        return
    # zip stops at the shortest grade, so a parameter-count mismatch is left
    # for assemble_system to report.  J(x) - x is affine on each axis, so it
    # is >= 0 on the grades' bounding box iff it is at both corners.
    for corner in (tuple(map(min, zip(*grades))), tuple(map(max, zip(*grades)))):
        for jm in maps:
            if not jm.increasing_at(corner):
                raise PresentationError(f"map {jm!r} is not increasing on the "
                                        f"grade domain (at grade {corner})")


def decide_generalized(m, n, j1, j2, budget=DEFAULT_BUDGET):
    """'yes'/'no': is (M, N) (J1, J2)-interleaved?  Decision only; the
    candidate-set search is proven only for translations."""
    _check_increasing([j1, j2], [m, n])
    res = solve_finite_field(assemble_system(m, n, j1, j2).system, budget=budget)
    return "yes" if res.status == "solvable" else "no"


def candidate_set(m, n):
    """U_{M,N}, the values d_I can take, as sorted ExtendedRationals: the
    `levels` of the minimized pair's term table, and +inf."""
    table = TermTable(m.minimize(), n.minimize())
    return [table.value(v) for v in table.levels] + [INF]


class DistanceBudgetExceeded(Exception):
    """A search or decision ran out of solver budget at the eps `undecided`;
    carries the bracket [largest eps decided no or ruled out by the slices
    (0 if none), least eps decided or certified yes (+inf if none)], which
    holds d_I, and the failed decision's nodes."""

    def __init__(self, last_no, first_yes, undecided, nodes):
        super().__init__(f"budget exceeded deciding eps = {undecided}; "
                         f"bracket [{last_no}, {first_yes}]")
        self.bracket = (last_no, first_yes)
        self.undecided = undecided
        self.nodes = nodes


class SearchStats:
    def __init__(self):
        self.decisions = 0
        self.nodes = 0
        self.candidates = 0     # size of the candidate set, +inf included


def slice_start(table, mm, nn):
    """The index of the least of the table's `levels` at which the diagonal
    slices of the minimized pair (mm, nn) all admit a matching: the line
    c + t (1, ..., 1) through each grade g, c = g - g_last, holds a grade h
    from t(h) = max_i (h_i - c_i) on.  An eps-interleaving restricts to one
    of every such slice, so its bottleneck distance is <= d_I.  On ints
    scaled by table.scale, with costs doubled so that a bar is deleted when
    its length is <= twice the level; len(levels) when a slice admits none,
    as when the dimensions above all grades differ."""
    gm, gn, rm, rn = table.grades
    pres = [(gens, [(h, cs) for h, (_, _, cs) in zip(rels, p.relations)])
            for gens, rels, p in ((gm, rm, mm), (gn, rn, nn))]
    lines = sorted({tuple(x - g[-1] for x in g) for gens, rels in pres
                    for g in gens + [h for h, _ in rels]})
    levels = [2 * v for v in table.levels]
    never = levels[-1] + 1      # the table's levels hold 0, so levels is not empty
    k = 0
    for c in lines:
        if k == len(levels):    # no slice can match: k stays
            break
        left, right = (bars(table.field, [max(map(operator.sub, g, c)) for g in gens],
                            [(max(map(operator.sub, h, c)), cs) for h, cs in rels])
                       for gens, rels in pres)
        cost = [[never if (dx is None) != (dy is None) else
                 2 * max(abs(bx - by), 0 if dx is None else abs(dx - dy))
                 for by, dy in right] for bx, dx in left]
        left_len, right_len = ([never if d is None else d - b for b, d in side]
                               for side in (left, right))
        while k < len(levels) and not matchable(cost, left_len, right_len, levels[k]):
            k += 1
    return k


def _search_start(m, n, budget, stats=None):
    """What every eps decision on (M, N) starts from, once a negative solver
    budget is refused: the minimized pair's term table, the `slice_start` k
    of its levels, and the probe decide(level, shown).  It solves the system
    at `level`, counts it in `stats` and returns the least level its witness
    certifies, or None; past the budget it raises DistanceBudgetExceeded with
    `shown` undecided, bracket [last no (else below k, 0 at k = 0), last yes]."""
    if budget < 0:
        raise QuadSysError("budget must be >= 0")
    mm, nn = m.minimize(), n.minimize()
    table = TermTable(mm, nn)
    k = slice_start(table, mm, nn)
    levels, last_no, first_yes = table.levels, table.levels[max(k - 1, 0)], None

    def decide(level, shown):
        nonlocal last_no, first_yes
        isys = table.at(Fraction(level, table.scale))
        try:
            res = solve_finite_field(isys.system, budget=budget)
        except BudgetExceeded as exc:
            raise DistanceBudgetExceeded(table.value(last_no), table.value(first_yes),
                                         shown, exc.nodes) from exc
        if stats is not None:
            stats.decisions += 1
            stats.nodes += res.nodes
        if res.status != "solvable":
            last_no = level
            return None
        first_yes = levels[bisect.bisect_left(levels, max(
            (table.thresholds[name][i][j] for (name, i, j), v in isys.var_of_entry.items()
             if res.witness[v - 1] != table.field.zero), default=0))]
        return first_yes

    return table, k, decide


def decide_interleaving(m, n, eps, budget=DEFAULT_BUDGET):
    """'yes'/'no': are M and N eps-interleaved?  eps >= 0 rational.  d_I is
    a candidate, so when the largest candidate <= eps lies below
    `slice_start` the answer is no without the solver; past the budget the
    probe raises DistanceBudgetExceeded with the slice bracket."""
    eps = Fraction(eps)
    if eps < 0:
        raise PresentationError("eps must be >= 0")
    table, k, decide = _search_start(m, n, budget)
    if k == len(table.levels) or table.level(eps) < table.levels[k]:
        return "no"
    return "no" if decide(table.level(eps), ext(eps)) is None else "yes"


def interleaving_distance(m, n, budget=DEFAULT_BUDGET, stats=None):
    """d_I(M, N) as an ExtendedRational: `least_feasible` over the table's
    candidate levels, valid because interleavability is monotone in eps and
    the distance is attained.  A witness, zero off its free entries, solves
    the system at every eps whose level reaches its nonzero entries'
    thresholds, so each yes certifies the least such level.  Presentations
    are minimized and their term table built once; each probe expands its
    system from it.

    The search starts at `slice_start`, the least candidate that the
    diagonal slices do not rule out; the candidates below it are decided no
    without the solver.  With one parameter the slice is the module, so the
    start is d_I and one decision confirms it; where the dimensions above
    all grades differ, no slice matches and d_I = inf comes with none."""
    table, k, decide = _search_start(m, n, budget, stats)
    if stats is not None:
        stats.candidates = len(table.levels) + 1
    return table.value(least_feasible(
        table.levels[k:], lambda level: decide(level, table.value(level))))

"""The interleaving-system assembly that the table-driven `assemble_system`
replaced, kept verbatim as a differential oracle: each identity written out
as its own double loop, every variable found through a (name, i, j) lookup.
Also the candidate set computed on Fraction differences, the oracle for the
one computed on scaled ints, and the term table that expanded the identities
once per pair over every entry of A-F and renumbered that expansion for each
system, the oracle for the one that expands each system over its own free
entries."""

import itertools
from fractions import Fraction

from permod import interleave
from permod.exactnum import INF, common_denominator, ext, scaled_int
from permod.presentation import PresentationError, grade_leq
from permod.quadsys import QuadEquation, QuadraticSystem, export_system

from conftest import dense_relations


class InterleavingSystem:
    """The assembled decision object: matrix shapes, free-entry masks, the
    relation-constant matrices and the resulting quadratic system."""

    MATS = ("A", "B", "C", "D", "E", "F")

    def __init__(self, shapes, masks, t_m, t_n, system, var_of_entry):
        self.shapes = shapes            # name -> (rows, cols)
        self.masks = masks              # name -> [[bool]] True = free variable
        self.t_m = t_m
        self.t_n = t_n
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
    if jmap is None:
        return [[grade_leq(ti, sj) for sj in source_grades] for ti in target_grades]
    return [[grade_leq(ti, jmap.apply(sj)) for sj in source_grades]
            for ti in target_grades]


def _relation_constant_matrix(p):
    """|G| x |R| matrix whose columns are the relation coefficient vectors."""
    f = p.field
    rows, cols = len(p.generators), len(p.relations)
    t = [[f.zero] * cols for _ in range(rows)]
    for j, (_, _, coeffs) in enumerate(dense_relations(p)):
        for i, c in enumerate(coeffs):
            t[i][j] = c
    return t


def assemble_system(m, n, j1, j2):
    if m.n != n.n:
        raise PresentationError("parameter counts differ")
    if m.field != n.field:
        raise PresentationError("coefficient fields differ")
    if j1.n != m.n or j2.n != m.n:
        raise PresentationError("shift map dimension mismatch")
    f = m.field

    gm = [g for _, g in m.generators]
    gn = [g for _, g in n.generators]
    rm = [g for _, g, _ in m.relations]
    rn = [g for _, g, _ in n.relations]

    j21 = j2.compose(j1)   # J2 . J1, acts on M-side grades
    j12 = j1.compose(j2)   # J1 . J2, acts on N-side grades
    mask = zero_pattern_mask

    shapes = {
        "A": (len(gn), len(gm)), "B": (len(gm), len(gn)),
        "C": (len(rn), len(rm)), "D": (len(rm), len(rn)),
        "E": (len(rm), len(gm)), "F": (len(rn), len(gn)),
    }
    masks = {
        "A": mask(gn, gm, j1), "B": mask(gm, gn, j2),
        "C": mask(rn, rm, j1), "D": mask(rm, rn, j2),
        "E": mask(rm, gm, j21), "F": mask(rn, gn, j12),
    }

    var_of_entry = {}
    counter = 0
    for name in InterleavingSystem.MATS:
        rows, cols = shapes[name]
        msk = masks[name]
        for i in range(rows):
            for j in range(cols):
                if msk[i][j]:
                    counter += 1
                    var_of_entry[(name, i, j)] = counter

    t_m = _relation_constant_matrix(m)
    t_n = _relation_constant_matrix(n)

    def var(name, i, j):
        return var_of_entry.get((name, i, j))

    equations = []

    def prod_entry_linear(left_name, const_right, i, j, sign, eq):
        """Accumulate sign * (Var_left . Const_right)[i][j] into eq."""
        rows, cols = shapes[left_name]
        for k in range(cols):
            v = var(left_name, i, k)
            c = const_right[k][j]
            if v is not None and c != f.zero:
                cc = c if sign > 0 else f.neg(c)
                eq.lin[v] = f.add(eq.lin.get(v, f.zero), cc)

    def const_prod_entry_linear(const_left, right_name, i, j, sign, eq):
        rows, cols = shapes[right_name]
        for k in range(rows):
            c = const_left[i][k]
            v = var(right_name, k, j)
            if v is not None and c != f.zero:
                cc = c if sign > 0 else f.neg(c)
                eq.lin[v] = f.add(eq.lin.get(v, f.zero), cc)

    def var_prod_entry(left_name, right_name, i, j, eq):
        inner = shapes[left_name][1]
        for k in range(inner):
            vl = var(left_name, i, k)
            vr = var(right_name, k, j)
            if vl is not None and vr is not None:
                key = (vl, vr) if vl <= vr else (vr, vl)
                eq.quad[key] = f.add(eq.quad.get(key, f.zero), f.one)

    # A T_M = T_N C  (|G_N| x |R_M| linear equations)
    for i in range(len(gn)):
        for j in range(len(rm)):
            eq = QuadEquation(const=f.zero)
            prod_entry_linear("A", t_m, i, j, +1, eq)
            const_prod_entry_linear(t_n, "C", i, j, -1, eq)
            equations.append(eq)
    # B T_N = T_M D  (|G_M| x |R_N|)
    for i in range(len(gm)):
        for j in range(len(rn)):
            eq = QuadEquation(const=f.zero)
            prod_entry_linear("B", t_n, i, j, +1, eq)
            const_prod_entry_linear(t_m, "D", i, j, -1, eq)
            equations.append(eq)
    # B A - I = T_M E  (|G_M| x |G_M|)
    for i in range(len(gm)):
        for j in range(len(gm)):
            eq = QuadEquation(const=f.neg(f.one) if i == j else f.zero)
            var_prod_entry("B", "A", i, j, eq)
            const_prod_entry_linear(t_m, "E", i, j, -1, eq)
            equations.append(eq)
    # A B - I = T_N F  (|G_N| x |G_N|)
    for i in range(len(gn)):
        for j in range(len(gn)):
            eq = QuadEquation(const=f.neg(f.one) if i == j else f.zero)
            var_prod_entry("A", "B", i, j, eq)
            const_prod_entry_linear(t_n, "F", i, j, -1, eq)
            equations.append(eq)

    system = QuadraticSystem(f, counter, equations)
    return InterleavingSystem(shapes, masks, t_m, t_n, system, var_of_entry)


def candidate_set(m, n, minimal=False):
    if m.n != n.n:
        raise PresentationError("parameter counts differ")
    axes_m, axes_n = (p.axes if minimal else p.minimize().axes for p in (m, n))
    values = {Fraction(0)}
    for um, un in zip(axes_m, axes_n):
        values |= {abs(x - y) for x in um for y in un}
        values |= {abs(x - y) / 2 for x in um for y in um}
        values |= {abs(x - y) / 2 for x in un for y in un}
    return [ext(v) for v in sorted(values)] + [INF]


def _add_product(f, eq, left, right, i, j, sign):
    """Add sign * (left . right)[i][j] to eq: a constant times an unknown is
    a linear term, an unknown times an unknown a quadratic one.  Matrices
    are lists of {column: entry} rows without zeros, and an unknown is the
    1-tuple of its number, since over Z/p field constants are ints."""
    for k, a in left[i].items():
        b = right[k].get(j)
        if b is None:
            continue
        if type(a) is tuple and type(b) is tuple:
            key = a + b if a <= b else b + a
            eq.quad[key] = f.add(eq.quad.get(key, f.zero), sign)
        elif type(a) is tuple:
            eq.lin[a[0]] = f.add(eq.lin.get(a[0], f.zero), f.mul(sign, b))
        else:
            eq.lin[b[0]] = f.add(eq.lin.get(b[0], f.zero), f.mul(sign, a))


class TermTable:
    """The four identities' product terms for one pair (M, N) with every
    entry of A-F free, merged per equation (zero sums dropped, first
    appearance kept); under translation by eps entry (i, j) is free iff
    `thresholds` <= eps * `scale` (an int: 2 * lcm of the denominators)."""

    def __init__(self, m, n):
        if m.n != n.n:
            raise PresentationError("parameter counts differ")
        if m.field != n.field:
            raise PresentationError("coefficient fields differ")
        f = self.field = m.field

        gm = [g for _, g in m.generators]
        gn = [g for _, g in n.generators]
        rm = [g for _, g, _ in m.relations]
        rn = [g for _, g, _ in n.relations]
        # name -> (target grades, source grades)
        self.bases = {"A": (gn, gm), "B": (gm, gn), "C": (rn, rm),
                      "D": (rm, rn), "E": (rm, gm), "F": (rn, gn)}
        self.shapes = {name: (len(t), len(s)) for name, (t, s) in self.bases.items()}
        self.scale = 2 * common_denominator(x for g in gm + gn + rm + rn for x in g)
        self.thresholds = {}
        for name, grades in self.bases.items():
            targets, sources = ([[scaled_int(x, self.scale) for x in g] for g in gs]
                                for gs in grades)
            self.thresholds[name] = [[max(a - b for a, b in zip(t, s))
                                      // (2 if name in "EF" else 1) for s in sources]
                                     for t in targets]

        numbers = itertools.count(1)
        u = {name: [{j: (next(numbers),) for j in range(cols)} for _ in range(rows)]
             for name, (rows, cols) in self.shapes.items()}
        # T_M, T_N: |G| x |R|, column j the coefficients of relation j
        t_m, t_n = ([{} for _ in p.generators] for p in (m, n))
        for p, t in ((m, t_m), (n, t_n)):
            for j, (_, _, cs) in enumerate(p.relations):
                for i, c in cs.items():
                    t[i][j] = c

        # one equation per entry of L1 R1 - L2 R2 - unit * I = 0
        identities = (
            (u["A"], t_m, t_n, u["C"], len(gn), len(rm), False),     # A T_M = T_N C
            (u["B"], t_n, t_m, u["D"], len(gm), len(rn), False),     # B T_N = T_M D
            (u["B"], u["A"], t_m, u["E"], len(gm), len(gm), True),   # B A - I = T_M E
            (u["A"], u["B"], t_n, u["F"], len(gn), len(gn), True),   # A B - I = T_N F
        )
        minus_one = f.neg(f.one)
        self.equations = []   # over entry numbers
        for l1, r1, l2, r2, rows, cols, unit in identities:
            for i in range(rows):
                for j in range(cols):
                    eq = QuadEquation(const=minus_one if unit and i == j else f.zero)
                    _add_product(f, eq, l1, r1, i, j, f.one)
                    _add_product(f, eq, l2, r2, i, j, minus_one)
                    self.equations.append(eq.substitute(f, {}))

    def system(self, masks):
        """The system whose free entries are those of masks (name -> [[bool]])."""
        num, var_of_entry = [0], {}   # entry number -> variable number, 0 if fixed
        for name in interleave.InterleavingSystem.MATS:
            for i, row in enumerate(masks[name]):
                for j, free in enumerate(row):
                    if free:
                        var_of_entry[(name, i, j)] = len(var_of_entry) + 1
                    num.append(len(var_of_entry) if free else 0)
        equations = [QuadEquation({(num[a], num[b]): c for (a, b), c in eq.quad.items()
                                   if num[a] and num[b]},
                                  {num[e]: c for e, c in eq.lin.items() if num[e]},
                                  eq.const) for eq in self.equations]
        system = QuadraticSystem(self.field, len(var_of_entry), equations)
        return interleave.InterleavingSystem(dict(self.shapes), masks, system, var_of_entry)

    def level(self, eps):
        """floor(eps * scale), the threshold level of eps (a Fraction)."""
        return eps.numerator * self.scale // eps.denominator

    def at(self, eps):
        """The system deciding eps-interleaving (eps a Fraction)."""
        level = self.level(eps)
        return self.system({name: [[t <= level for t in row] for row in rows]
                            for name, rows in self.thresholds.items()})

"""The interleaving-system assembly that the table-driven `assemble_system`
replaced, kept verbatim as a differential oracle: each identity written out
as its own double loop, every variable found through a (name, i, j) lookup.
Also the candidate set computed on Fraction differences, the oracle for the
one computed on scaled ints."""

from fractions import Fraction

from permod.exactnum import INF, ext
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
    _, axes_m = m.critical_grades(minimal)
    _, axes_n = n.critical_grades(minimal)
    values = {Fraction(0)}
    for um, un in zip(axes_m, axes_n):
        values |= {abs(x - y) for x in um for y in un}
        values |= {abs(x - y) / 2 for x in um for y in um}
        values |= {abs(x - y) / 2 for x in un for y in un}
    return [ext(v) for v in sorted(values)] + [INF]

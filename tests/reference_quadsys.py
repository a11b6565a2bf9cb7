"""Reference copies of the solver that ``permod.quadsys`` replaced: the
equation methods with one dict substitution per variable, the one-equation-
at-a-time linear elimination and the recursive backtracking search; and the
Gauss-Jordan elimination rounds that came between those and the column
reduction.  Kept as they were as an oracle: the rewritten solver must give
the same status, witness and node count, run out of budget after the same
number of nodes, and make the same elimination rounds.
"""

from permod.exactnum import PrimeField
from permod.quadsys import (DEFAULT_BUDGET, BudgetExceeded, QuadSysError,
                            SolveResult, evaluate)

from reference_linalg import gauss_jordan


class QuadEquation:
    """sum c*x_i*x_j + sum c*x_i + c0 = 0.  Terms are normalized: i <= j in
    quadratic keys, zero coefficients dropped."""

    __slots__ = ("quad", "lin", "const")

    def __init__(self, quad=None, lin=None, const=0):
        self.quad = dict(quad or {})
        self.lin = dict(lin or {})
        self.const = const

    def normalized(self, field):
        quad = {}
        for (i, j), c in self.quad.items():
            key = (i, j) if i <= j else (j, i)
            quad[key] = field.add(quad.get(key, field.zero), c)
        quad = {k: c for k, c in quad.items() if c != field.zero}
        lin = {}
        for i, c in self.lin.items():
            lin[i] = field.add(lin.get(i, field.zero), c)
        lin = {k: c for k, c in lin.items() if c != field.zero}
        return QuadEquation(quad, lin, self.const)

    def variables(self):
        vs = set(self.lin)
        for i, j in self.quad:
            vs.add(i)
            vs.add(j)
        return vs

    def assign(self, field, var, value):
        """Substitute x_var = value (a constant).  Returns a normalized copy."""
        quad = {}
        lin = dict(self.lin)
        const = self.const
        if var in lin:
            const = field.add(const, field.mul(lin.pop(var), value))
        for (i, j), c in self.quad.items():
            if i == var and j == var:
                const = field.add(const, field.mul(c, field.mul(value, value)))
            elif i == var:
                lin[j] = field.add(lin.get(j, field.zero), field.mul(c, value))
            elif j == var:
                lin[i] = field.add(lin.get(i, field.zero), field.mul(c, value))
            else:
                quad[(i, j)] = field.add(quad.get((i, j), field.zero), c)
        return QuadEquation(quad, lin, const).normalized(field)

    def substitute_affine(self, field, var, aff_const, aff_lin):
        """Substitute x_var = aff_const + sum aff_lin[k]*x_k."""
        quad = {}
        lin = {}
        const = self.const

        def add_quad(i, j, c):
            key = (i, j) if i <= j else (j, i)
            quad[key] = field.add(quad.get(key, field.zero), c)

        def add_lin(i, c):
            lin[i] = field.add(lin.get(i, field.zero), c)

        for i, c in self.lin.items():
            if i != var:
                add_lin(i, c)
            else:
                const = field.add(const, field.mul(c, aff_const))
                for k, ck in aff_lin.items():
                    add_lin(k, field.mul(c, ck))

        for (i, j), c in self.quad.items():
            ti = ({"const": aff_const, "lin": aff_lin} if i == var
                  else {"const": field.zero, "lin": {i: field.one}})
            tj = ({"const": aff_const, "lin": aff_lin} if j == var
                  else {"const": field.zero, "lin": {j: field.one}})
            const = field.add(const, field.mul(c, field.mul(ti["const"], tj["const"])))
            for k, ck in ti["lin"].items():
                add_lin(k, field.mul(c, field.mul(ck, tj["const"])))
            for k, ck in tj["lin"].items():
                add_lin(k, field.mul(c, field.mul(ck, ti["const"])))
            for k1, c1 in ti["lin"].items():
                for k2, c2 in tj["lin"].items():
                    add_quad(k1, k2, field.mul(c, field.mul(c1, c2)))

        return QuadEquation(quad, lin, const).normalized(field)

    def is_trivial(self, field):
        return not self.quad and not self.lin and self.const == field.zero

    def is_contradiction(self, field):
        return not self.quad and not self.lin and self.const != field.zero


def _eliminate_linear(field, equations):
    """Repeatedly pick a purely linear equation and substitute one of its
    variables away.  Returns (remaining equations, substitution stack) or None
    on contradiction.  The stack entries are (var, const, lin) to replay in
    reverse when reconstructing a witness."""
    eqs = list(equations)
    subs = []
    while True:
        pick = None
        for idx, eq in enumerate(eqs):
            if eq.is_contradiction(field):
                return None
            if eq.is_trivial(field):
                continue
            if not eq.quad and eq.lin:
                pick = idx
                break
        if pick is None:
            eqs = [e for e in eqs if not e.is_trivial(field)]
            return eqs, subs
        eq = eqs.pop(pick)
        var = min(eq.lin)
        c = eq.lin[var]
        cinv = field.inv(c)
        # x_var = -cinv*const - sum cinv*ck x_k
        aff_const = field.neg(field.mul(cinv, eq.const))
        aff_lin = {k: field.neg(field.mul(cinv, ck))
                   for k, ck in eq.lin.items() if k != var}
        subs.append((var, aff_const, aff_lin))
        eqs = [e.substitute_affine(field, var, aff_const, aff_lin) for e in eqs]


def eliminate_linear_rounds(field, equations):
    """Eliminate the linear equations in rounds of one Gauss-Jordan pass, on
    ``permod.quadsys`` equations.

    Each round reduces all purely linear equations together, over the
    variables they mention in increasing order, and substitutes the pivot
    solution into the quadratic equations (kept in their order).  Returns
    (remaining equations, substitution rounds) or None on contradiction.  A
    round is {pivot: (const, {free var: coeff})}; replay the rounds in
    reverse to reconstruct a witness."""
    zero = field.zero
    eqs = list(equations)
    subs = []
    while True:
        linear = [eq for eq in eqs if not eq.quad]
        quadratic = [eq for eq in eqs if eq.quad]
        cols = sorted({v for eq in linear for v in eq.lin})
        col_of = {v: c for c, v in enumerate(cols)}
        rows = []
        for eq in linear:
            row = [zero] * len(cols) + [eq.const]
            for v, c in eq.lin.items():
                row[col_of[v]] = c
            rows.append(row)
        m, pivot_of_col = gauss_jordan(field, rows, len(cols))
        rank = len(cols) - pivot_of_col.count(None)
        if any(row[-1] != zero for row in m[rank:]):
            return None
        if not rank:
            return quadratic, subs
        # pivot row r reads x_p + sum m[r][k]*x_k + m[r][-1] = 0 over free k
        sub = {cols[c]: (field.neg(m[r][-1]),
                         {cols[k]: field.neg(x) for k, x in enumerate(m[r][:-1])
                          if k != c and x != zero})
               for c, r in enumerate(pivot_of_col) if r is not None}
        subs.append(sub)
        eqs = [eq.substitute(field, sub) for eq in quadratic]


def solve_finite_field(system, budget=DEFAULT_BUDGET):
    """Decide solvability over Z/p.  Sound and complete within the node budget;
    raises BudgetExceeded past it.  A returned witness satisfies evaluate."""
    f = system.field
    if not isinstance(f, PrimeField):
        raise QuadSysError("solvability decision requires a prime field; "
                           "rational systems are export-only")
    domain = list(f.elements())
    nodes = 0

    def reconstruct(partial, subs):
        values = dict(partial)
        for var, aff_const, aff_lin in reversed(subs):
            acc = aff_const
            for k, ck in aff_lin.items():
                acc = f.add(acc, f.mul(ck, values.get(k, f.zero)))
            values[var] = acc
        return [values.get(i, f.zero) for i in range(1, system.nvars + 1)]

    def search(eqs, partial, subs):
        nonlocal nodes
        simplified = _eliminate_linear(f, eqs)
        if simplified is None:
            return None
        eqs, new_subs = simplified
        subs = subs + new_subs
        if not eqs:
            return reconstruct(partial, subs)
        # most-constrained variable: appears in the most equations; tie by index
        counts = {}
        for eq in eqs:
            for v in eq.variables():
                counts[v] = counts.get(v, 0) + 1
        var = min(counts, key=lambda v: (-counts[v], v))
        for value in domain:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(nodes)
            next_eqs = [eq.assign(f, var, value) for eq in eqs]
            if any(eq.is_contradiction(f) for eq in next_eqs):
                continue
            got = search(next_eqs, {**partial, var: value}, subs)
            if got is not None:
                return got
        return None

    witness = search(reference_system(system), {}, [])
    if witness is None:
        return SolveResult("unsolvable", nodes=nodes)
    bad = evaluate(system, witness)
    if bad is not None:
        raise AssertionError(f"solver produced an invalid witness (eq {bad})")
    return SolveResult("solvable", witness=witness, nodes=nodes)


def reference_system(system):
    """The equations of a QuadraticSystem as reference equations."""
    return [QuadEquation(eq.quad, eq.lin, eq.const).normalized(system.field)
            for eq in system.equations]

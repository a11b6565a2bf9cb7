"""Multivariate affine-quadratic systems over a field, with a sound and
complete solvability decision over prime fields.

The solver eliminates the linear equations in rounds.  Each round reduces all
purely linear equations at once with a `linalg.ColumnReducer`, one column
per variable in increasing variable order, and substitutes the pivot
solution into the quadratic equations, also inside their quadratic terms; a
new round starts while that turns quadratic equations linear.  The search
then backtracks over the remaining variables with an explicit stack,
eliminating again after every assignment, so once the quadratic structure
collapses the rest is solved by elimination alone.  An assignment or a round
substitutes only into the equations whose variable set holds one of its
variables.  The node budget counts branching assignments only.  Solvability
over Q is refused; systems can still be exported as text.
"""

from .exactnum import (QQ, PrimeField, format_rational, parse_field, parse_rational,
                       text_lines)
from .linalg import ColumnReducer


class QuadSysError(ValueError):
    pass


class BudgetExceeded(Exception):
    def __init__(self, nodes):
        super().__init__(f"search budget exceeded after {nodes} nodes")
        self.nodes = nodes


DEFAULT_BUDGET = 10 ** 7


class QuadEquation:
    """sum c*x_i*x_j + sum c*x_i + c0 = 0.  Terms are normalized: i <= j in
    quadratic keys, zero coefficients dropped.  `vars`: the variables at
    construction (the solver never changes an equation's terms)."""

    __slots__ = ("quad", "lin", "const", "vars")

    def __init__(self, quad=None, lin=None, const=0):
        self.quad = dict(quad or {})
        self.lin = dict(lin or {})
        self.const = const
        self.vars = self.variables()

    def variables(self):
        vs = set(self.lin)
        for i, j in self.quad:
            vs.add(i)
            vs.add(j)
        return vs

    def substitute(self, field, sub):
        """Substitute x_v = c_v + sum c_vk*x_k for every v in sub at once, where
        sub[v] = (c_v, {k: c_vk}).  Returns a normalized copy; sub = {} only
        normalizes, sub = {v: (value, {})} assigns a constant.  Terms without
        a substituted variable are copied across."""
        zero, add, mul = field.zero, field.add, field.mul
        quad = {}
        lin = {}
        const = self.const
        for i, c in self.lin.items():
            if i not in sub:
                lin[i] = add(lin.get(i, zero), c)
                continue
            ci, li = sub[i]
            const = add(const, mul(c, ci))
            for k, ck in li.items():
                lin[k] = add(lin.get(k, zero), mul(c, ck))
        for (i, j), c in self.quad.items():
            if i not in sub and j not in sub:
                key = (i, j) if i <= j else (j, i)
                quad[key] = add(quad.get(key, zero), c)
                continue
            ci, li = sub.get(i) or (zero, {i: field.one})
            cj, lj = sub.get(j) or (zero, {j: field.one})
            const = add(const, mul(c, mul(ci, cj)))
            # a zero constant on one side adds nothing to the other's terms
            for k, ck in li.items() if cj != zero else ():
                lin[k] = add(lin.get(k, zero), mul(c, mul(ck, cj)))
            for k, ck in lj.items() if ci != zero else ():
                lin[k] = add(lin.get(k, zero), mul(c, mul(ck, ci)))
            for k1, c1 in li.items():
                for k2, c2 in lj.items():
                    key = (k1, k2) if k1 <= k2 else (k2, k1)
                    quad[key] = add(quad.get(key, zero), mul(c, mul(c1, c2)))
        if zero in quad.values():
            quad = {k: c for k, c in quad.items() if c != zero}
        if zero in lin.values():
            lin = {k: c for k, c in lin.items() if c != zero}
        return QuadEquation(quad, lin, const)

    def is_contradiction(self, field):
        return not self.quad and not self.lin and self.const != field.zero


class QuadraticSystem:
    def __init__(self, field, nvars, equations):
        self.field = field
        self.nvars = int(nvars)
        if self.nvars < 0:
            raise QuadSysError(f"negative variable count {self.nvars}")
        self.equations = []
        for eq in equations:
            # kept as given when normal (i <= j in quadratic keys, canonical
            # nonzero coefficients, vars those of the terms), else copied with
            # every coefficient taken into the field
            if not (field.canonical([*eq.quad.values(), *eq.lin.values()], eq.const)
                    and all(i <= j for i, j in eq.quad) and eq.vars == eq.variables()):
                of = field.of
                eq = QuadEquation({k: of(c) for k, c in eq.quad.items()},
                                  {k: of(c) for k, c in eq.lin.items()},
                                  of(eq.const)).substitute(field, {})
            if eq.vars and not 1 <= min(eq.vars) <= max(eq.vars) <= self.nvars:
                bad = min(eq.vars) if min(eq.vars) < 1 else max(eq.vars)
                raise QuadSysError(f"variable index {bad} out of range")
            self.equations.append(eq)

    def __repr__(self):
        return (f"QuadraticSystem(field={self.field.spec!r}, vars={self.nvars}, "
                f"eqs={len(self.equations)})")


def evaluate(system, assignment):
    """None if satisfied, else the 1-based index of the first violated equation."""
    if len(assignment) != system.nvars:
        raise QuadSysError("assignment length mismatch")
    f = system.field
    vals = [f.of(x) for x in assignment]
    for idx, eq in enumerate(system.equations, start=1):
        acc = f.of(eq.const)
        for (i, j), c in eq.quad.items():
            acc = f.add(acc, f.mul(c, f.mul(vals[i - 1], vals[j - 1])))
        for i, c in eq.lin.items():
            acc = f.add(acc, f.mul(c, vals[i - 1]))
        if acc != f.zero:
            return idx
    return None


class SolveResult:
    def __init__(self, status, witness=None, nodes=0):
        self.status = status          # 'solvable' | 'unsolvable'
        self.witness = witness        # list of field elements, 0-indexed
        self.nodes = nodes

    def __repr__(self):
        return f"SolveResult({self.status!r}, nodes={self.nodes})"


def _eliminate_linear(field, equations):
    """Eliminate the linear equations in rounds of one column reduction.

    Each round adds one column per variable of the purely linear equations,
    in increasing variable order, with the combination {var: 1}; the
    variables with independent columns are the round's pivots.  A free
    variable's reduced combination is its null vector (1 at it, 0 at every
    other free variable), whose entry at a pivot is the free variable's
    coefficient in that pivot's substitution; reducing the constants gives
    the pivots' constants.  The substitution goes into the quadratic
    equations that hold a pivot (kept in their order; the others are
    normalized already).  Returns (remaining equations, substitution rounds)
    or None on contradiction.  A round is {pivot: (const, {free var:
    coeff})}; replay the rounds in reverse to reconstruct a witness."""
    zero = field.zero
    eqs = list(equations)
    subs = []
    while True:
        linear = [eq for eq in eqs if not eq.quad]
        quadratic = [eq for eq in eqs if eq.quad]
        columns = {}
        for r, eq in enumerate(linear):
            for v, c in eq.lin.items():
                columns.setdefault(v, {})[r] = c
        red, kind, pivots, free = ColumnReducer(field), field.columns, [], []
        for v in sorted(columns):
            low, null = red.add_packed(kind.pack(columns[v]), kind.unit(v))
            if low is None:
                free.append((v, kind.unpack(null)))
            else:
                pivots.append(v)
        # consts + sum combo[p] * column p == 0: x = combo solves the round
        consts = kind.pack({r: eq.const for r, eq in enumerate(linear) if eq.const != zero})
        col, combo, _ = red.reduce_packed(consts, kind.pack({}))
        if col:
            return None
        combo = kind.unpack(combo)
        if not pivots:
            return quadratic, subs
        sub = {p: (combo.get(p, zero), {}) for p in pivots}
        for v, null in free:
            for p, c in null.items():
                if p != v:
                    sub[p][1][v] = c
        subs.append(sub)
        eqs = [eq if eq.vars.isdisjoint(pivots) else eq.substitute(field, sub)
               for eq in quadratic]


def solve_finite_field(system, budget=DEFAULT_BUDGET):
    """Decide solvability over Z/p.  Sound and complete within the node budget;
    raises BudgetExceeded past it.  A returned witness satisfies evaluate."""
    f = system.field
    if budget < 0:      # 0 allows elimination only
        raise QuadSysError("budget must be >= 0")
    if not isinstance(f, PrimeField):
        raise QuadSysError("solvability decision requires a prime field; "
                           "rational systems are export-only")
    domain = list(f.elements())

    def reconstruct(subs):
        values = {}
        for sub in reversed(subs):
            for var, (aff_const, aff_lin) in sub.items():
                acc = aff_const
                for k, ck in aff_lin.items():
                    acc = f.add(acc, f.mul(ck, values.get(k, f.zero)))
                values[var] = acc
        return [values.get(i, f.zero) for i in range(1, system.nvars + 1)]

    def enter(eqs, subs):
        """Eliminate at a search node: (witness, None) once no equation is
        left, (None, branching frame) otherwise, (None, None) on
        contradiction.  subs holds the elimination rounds and assignments
        made so far, an assignment x_v = a being the round {v: (a, {})}."""
        simplified = _eliminate_linear(f, eqs)
        if simplified is None:
            return None, None
        eqs, new_subs = simplified
        subs = subs + new_subs
        if not eqs:
            return reconstruct(subs), None
        # most-constrained variable: appears in the most equations; tie by index
        counts = {}
        for eq in eqs:
            for v in eq.vars:
                counts[v] = counts.get(v, 0) + 1
        var = min(counts, key=lambda v: (-counts[v], v))
        return None, (eqs, subs, var, iter(domain))

    # depth-first, values in domain order: the nodes counted and the witness
    # found are those of a recursive backtracking search
    nodes = 0
    witness, frame = enter(system.equations, [])
    stack = [frame] if frame else []
    while witness is None and stack:
        eqs, subs, var, values = stack[-1]
        value = next(values, None)
        if value is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes)
        assignment = {var: (value, {})}
        next_eqs = [eq.substitute(f, assignment) if var in eq.vars else eq
                    for eq in eqs]
        if any(eq.is_contradiction(f) for eq in next_eqs):
            continue
        witness, frame = enter(next_eqs, subs + [assignment])
        if frame:
            stack.append(frame)

    if witness is None:
        return SolveResult("unsolvable", nodes=nodes)
    bad = evaluate(system, witness)
    if bad is not None:
        raise AssertionError(f"solver produced an invalid witness (eq {bad})")
    return SolveResult("solvable", witness=witness, nodes=nodes)


# -- text format ---------------------------------------------------------------

def export_system(system):
    """Canonical text form; parse(export(s)) == s."""
    f = system.field
    fmt = (format_rational if f == QQ else str)
    lines = ["QUADSYS", f"field {f.spec}", f"vars {system.nvars}"]
    for eq in system.equations:
        toks = []
        for (i, j) in sorted(eq.quad):
            toks.append(f"{fmt(eq.quad[(i, j)])} {i} {j}")
        for i in sorted(eq.lin):
            toks.append(f"{fmt(eq.lin[i])} {i} 0")
        if eq.const != f.zero:
            toks.append(f"{fmt(eq.const)} 0 0")
        lines.append("eq: " + "  ".join(toks))
    lines.append("END")
    return "\n".join(lines) + "\n"


def parse_system(text):
    head, eqs = {}, []          # head: the field and vars values
    for ln in text_lines(text, "QUADSYS", QuadSysError):
        key, *args = ln.split()
        if key in head:
            raise QuadSysError(f"second {key} line: {ln}")
        if key == "field":
            head[key] = parse_field(args)
        elif key == "vars":
            if not args:
                raise QuadSysError("vars line without a count")
            head[key] = int(args[0])
        elif key == "eq:":
            if len(head) < 2:
                raise QuadSysError("field and vars must precede equations")
            if len(args) % 3 != 0:
                raise QuadSysError(f"bad term list: {ln}")
            field = head["field"]
            quad, lin, const = {}, {}, field.zero
            for c, i, j in zip(args[0::3], args[1::3], args[2::3]):
                cval = field.of(parse_rational(c))
                i, j = int(i), int(j)
                if i == 0 and j == 0:
                    const = field.add(const, cval)
                elif j == 0:
                    lin[i] = field.add(lin.get(i, field.zero), cval)
                elif i == 0:
                    raise QuadSysError(f"bad term indices in: {ln}")
                else:
                    ij = (i, j) if i <= j else (j, i)
                    quad[ij] = field.add(quad.get(ij, field.zero), cval)
            eqs.append(QuadEquation(quad, lin, const))
        else:
            raise QuadSysError(f"unknown line: {ln}")
    if len(head) < 2:
        raise QuadSysError("missing field or vars")
    return QuadraticSystem(head["field"], head["vars"], eqs)

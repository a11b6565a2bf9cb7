"""Multivariate affine-quadratic systems over a field, with a sound and
complete solvability decision over prime fields.

The solver eliminates the linear equations in rounds, each one column
reduction (`linalg.ColumnReducer`) whose pivot solution is substituted into
the quadratic equations, at the root on the plain list.  It then backtracks
over the remaining variables, most-constrained first, with an explicit
stack, eliminating again after every assignment x_v = a (the round
{v: (a, {})}).  Equations sit in slots changed in place and restored from
an undo trail; per-variable occurrence sets, built after the root, give the
slots a round touches, the only ones it substitutes into and the next round
reads.  The node budget counts branching assignments only.  Solvability
over Q is refused; systems can still be exported as text.
"""

from collections import defaultdict
from heapq import heapify, heappop, heappush, heapreplace

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
        self._hold(dict(quad or {}), dict(lin or {}), const)

    def _hold(self, quad, lin, const):
        """Take quad and lin themselves, not copies; `substitute` hands over
        dicts it has just built and nothing else holds."""
        self.quad, self.lin, self.const = quad, lin, const
        self.vars = self.variables()
        return self

    def variables(self):
        vs = set(self.lin)
        for i, j in self.quad:
            vs.add(i)
            vs.add(j)
        return vs

    def substitute(self, field, sub):
        """Substitute x_v = c_v + sum c_vk*x_k for every v in sub at once, where
        sub[v] = (c_v, {k: c_vk}).  Returns a normalized copy (sub = {} only
        normalizes); terms are summed exactly and reduced once."""
        quad, lin, const = {}, {}, self.const
        for i, c in self.lin.items():
            if i in sub:
                ci, li = sub[i]
                const += c * ci
                for k, ck in li.items():
                    lin[k] = lin.get(k, 0) + c * ck
            else:
                lin[i] = lin.get(i, 0) + c
        for (i, j), c in self.quad.items():
            if i in sub:
                if j in sub:
                    (ci, li), (cj, lj) = sub[i], sub[j]
                    const += c * ci * cj
                    for k, ck in li.items() if cj else ():
                        lin[k] = lin.get(k, 0) + c * ck * cj
                    for k, ck in lj.items() if ci else ():
                        lin[k] = lin.get(k, 0) + c * ck * ci
                    for k1, c1 in li.items():
                        for k2, c2 in lj.items():
                            key = (k1, k2) if k1 <= k2 else (k2, k1)
                            quad[key] = quad.get(key, 0) + c * c1 * c2
                    continue
                kept, (cv, lv) = j, sub[i]
            elif j in sub:
                kept, (cv, lv) = i, sub[j]
            else:
                key = (i, j) if i <= j else (j, i)
                quad[key] = quad.get(key, 0) + c
                continue
            # one factor substituted: c * x_kept * (c_v + sum c_vk*x_k)
            if cv:
                lin[kept] = lin.get(kept, 0) + c * cv
            for k, ck in lv.items():
                key = (k, kept) if k <= kept else (kept, k)
                quad[key] = quad.get(key, 0) + c * ck
        if isinstance(field, PrimeField):     # over Q the Fraction sums are exact
            p, const = field.p, const % field.p
            for k, c in quad.items():
                quad[k] = c % p
            for k, c in lin.items():
                lin[k] = c % p
        return QuadEquation.__new__(QuadEquation)._hold(
            {k: c for k, c in quad.items() if c} if 0 in quad.values() else quad,
            {k: c for k, c in lin.items() if c} if 0 in lin.values() else lin, const)


class QuadraticSystem:
    def __init__(self, field, nvars, equations):
        self.field, self.nvars, self.equations, of = field, int(nvars), [], field.of
        if self.nvars < 0:
            raise QuadSysError(f"negative variable count {self.nvars}")
        for eq in equations:
            eq = QuadEquation({k: of(c) for k, c in eq.quad.items()},
                              {k: of(c) for k, c in eq.lin.items()},
                              of(eq.const)).substitute(field, {})
            if eq.vars and not 1 <= min(eq.vars) <= max(eq.vars) <= self.nvars:
                bad = min(eq.vars) if min(eq.vars) < 1 else max(eq.vars)
                raise QuadSysError(f"variable index {bad} out of range")
            self.equations.append(eq)

    @classmethod
    def from_normal(cls, field, nvars, equations):
        """`equations` stored as given, trusted normal with variables in 1..nvars."""
        out = cls.__new__(cls)
        out.field, out.nvars, out.equations = field, nvars, equations
        return out

    def __repr__(self):
        return (f"QuadraticSystem(field={self.field.spec!r}, vars={self.nvars}, "
                f"eqs={len(self.equations)})")


def evaluate(system, assignment):
    """None if satisfied, else the 1-based index of the first violated equation."""
    if len(assignment) != system.nvars:
        raise QuadSysError("assignment length mismatch")
    f = system.field
    vals = [f.zero, *map(f.of, assignment)]
    for idx, eq in enumerate(system.equations, start=1):
        acc = eq.const      # an exact sum, reduced once
        for (i, j), c in eq.quad.items():
            acc += c * vals[i] * vals[j]
        for i, c in eq.lin.items():
            acc += c * vals[i]
        if f.of(acc) != f.zero:
            return idx
    return None


class SolveResult:
    def __init__(self, status, witness=None, nodes=0):
        self.status = status          # 'solvable' | 'unsolvable'
        self.witness = witness        # list of field elements, 0-indexed
        self.nodes = nodes

    def __repr__(self):
        return f"SolveResult({self.status!r}, nodes={self.nodes})"


def _linear_round(field, rows):
    """The round {pivot: (const, {free var: coeff})} solving the linear
    equations `rows`, or None.  Each variable adds its column, in increasing
    order, with the combination {var: 1}: a free one's reduced combination
    holds its coefficients in the pivots' substitutions."""
    columns = {}
    for r, eq in enumerate(rows):
        for v, c in eq.lin.items():
            columns.setdefault(v, {})[r] = c
    red, kind, zero, pivots, free = ColumnReducer(field), field.columns, field.zero, [], []
    for v in sorted(columns):
        low, null = red.add_packed(kind.pack(columns[v]), kind.unit(v))
        if low is None:
            free.append((v, kind.unpack(null)))
        else:
            pivots.append(v)
    # consts + sum combo[p] * column p == 0: x = combo solves the round
    consts = kind.pack({r: eq.const for r, eq in enumerate(rows) if eq.const != zero})
    col, combo, _ = red.reduce_packed(consts, kind.pack({}))
    if col:
        return None
    combo = kind.unpack(combo)
    sub = {p: (combo.get(p, zero), {}) for p in pivots}
    for v, null in free:
        for p, c in null.items():
            if p != v:
                sub[p][1][v] = c
    return sub


class _Search:
    """Equations in slots (None once gone), restored from a trail of (slot,
    equation replaced); occ[v], the slots whose equation has v; the rounds
    made (`subs`); and a heap of entries (-count, v), count >= len(occ[v]).
    The constructor makes the root's rounds on the plain list (`ok`: False
    on contradiction, and nothing more is built), then slots what is left."""

    def __init__(self, field, equations):
        self.field, self.trail, self.subs, self.ok, eqs = field, [], [], False, equations
        while True:     # a nonzero constant row fails the next round
            rows = [eq for eq in eqs if not eq.quad and (eq.lin or eq.const)]
            eqs = [eq for eq in eqs if eq.quad]
            if not rows:
                break
            sub = _linear_round(field, rows)
            if sub is None:
                return
            self.subs.append(sub)
            eqs = [eq if eq.vars.isdisjoint(sub) else eq.substitute(field, sub)
                   for eq in eqs]
        self.ok, self.eqs, self.occ, self.heap = True, eqs, defaultdict(set), []
        for slot, eq in enumerate(eqs):
            for v in eq.vars:
                self.occ[v].add(slot)

    def move(self, slot, eq):
        """Put eq (None: no equation) in slot; returns the equation it replaces."""
        old, occ = self.eqs[slot], self.occ
        self.eqs[slot] = eq
        before, after = old.vars if old else set(), eq.vars if eq else set()
        for v in before - after:
            occ[v].discard(slot)
        for v in after - before:
            occ[v].add(slot)
            heappush(self.heap, (-len(occ[v]), v))
        return old

    def eliminate(self, sub):
        """Substitute sub into the slots holding its variables, then eliminate
        the linear equations in rounds, each substituted so; False on
        contradiction."""
        f, eqs, occ, trail, move, rows = (self.field, self.eqs, self.occ, self.trail,
                                          self.move, [])
        while True:
            self.subs.append(sub)
            for slot in set().union(*map(occ.__getitem__, sub)):
                eq = eqs[slot].substitute(f, sub)
                if not eq.quad:
                    if eq.lin:
                        rows.append(eq)
                    elif eq.const:
                        return False
                    eq = None
                trail.append((slot, move(slot, eq)))
            if not rows:
                return True
            sub, rows = _linear_round(f, rows), []
            if sub is None:
                return False

    def branch_var(self):
        """The variable in the most equations (least on a tie), None if none;
        a top entry whose count shrank since it was pushed is corrected."""
        heap, occ = self.heap, self.occ
        if not heap or len(heap) > 4 * len(occ) + 64:   # first built, or stale
            heap[:] = [(-len(s), v) for v, s in occ.items() if s]
            heapify(heap)
        while heap:
            count, v = heap[0]
            if len(occ[v]) == -count:
                return v
            if occ[v]:
                heapreplace(heap, (-len(occ[v]), v))
            else:
                heappop(heap)
        return None


def solve_finite_field(system, budget=DEFAULT_BUDGET):
    """Decide solvability over Z/p.  Sound and complete within the node budget;
    raises BudgetExceeded past it.  A returned witness satisfies evaluate."""
    f = system.field
    if budget < 0:      # 0 allows elimination only
        raise QuadSysError("budget must be >= 0")
    if not isinstance(f, PrimeField):
        raise QuadSysError("solvability decision requires a prime field; "
                           "rational systems are export-only")
    # depth-first, values in domain order (a range, walked lazily per frame):
    # the nodes counted and the witness found are those of a recursive
    # backtracking search.  A frame is (variable, values left, the trail's
    # and the rounds' lengths to undo to).
    search, domain, nodes, stack = _Search(f, system.equations), f.elements(), 0, []
    trail, subs, consistent = search.trail, search.subs, search.ok
    while consistent or stack:
        if consistent:      # branch, or every equation is gone
            var = search.branch_var()
            if var is None:
                break
            stack.append((var, iter(domain), len(trail), len(subs)))
        var, values, marked, rounds = stack[-1]
        while len(trail) > marked:
            search.move(*trail.pop())
        del subs[rounds:]
        value = next(values, None)
        if value is None:
            stack.pop()
            consistent = False
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes)
        consistent = search.eliminate({var: (value, {})})
    else:
        return SolveResult("unsolvable", nodes=nodes)
    witness = [0] * (system.nvars + 1)
    for sub in reversed(subs):
        for var, (const, lin) in sub.items():
            witness[var] = (const + sum(c * witness[k] for k, c in lin.items())) % f.p
    witness = witness[1:]
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
            field, quad, lin, const = head["field"], {}, {}, head["field"].zero
            for c, i, j in zip(args[0::3], args[1::3], args[2::3]):
                c, i, j = field.of(parse_rational(c)), int(i), int(j)
                if i == 0 != j:
                    raise QuadSysError(f"bad term indices in: {ln}")
                if i == 0:
                    const += c
                elif j == 0:
                    lin[i] = lin.get(i, 0) + c
                else:
                    quad[i, j] = quad.get((i, j), 0) + c
            eqs.append(QuadEquation(quad, lin, const))
        else:
            raise QuadSysError(f"unknown line: {ln}")
    if len(head) < 2:
        raise QuadSysError("missing field or vars")
    return QuadraticSystem(head["field"], head["vars"], eqs)

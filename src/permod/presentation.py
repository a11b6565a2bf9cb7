"""Finitely presented multiparameter persistence modules.

A module is given by graded generators and homogeneous relations over a
coefficient field.  The key modelling fact: monomial shifts act as the
identity on coefficient vectors, so the slice of the relation submodule at a
grade equals the plain k-span of the relations of grade <= that grade: the
module is H_0 of the two-term complex relations -> generators, one
`homology.GradedChainComplex` that answers every pointwise question and that
minimization, a Gaussian elimination, reduces; on grades ranked once.
"""

import bisect
import itertools
import operator
from fractions import Fraction

from .exactnum import (QQ, ExtendedRational, as_fraction, common_denominator,
                       format_rational, grade_ranks, parse_field, parse_rational,
                       scaled_int, text_lines)
from .linalg import ColumnReducer


def grade_leq(a, b):
    return all(map(operator.le, a, b))


def leq_runs(grades, top, lo=0, hi=None, d=0):
    """The (start, stop) runs, in order, of the positions lo:hi of the sorted
    int tuples `grades` (equal there before coordinate d) whose coordinates
    from d on are <= top's, those past top's free: bisected, one run per
    value of coordinate d up to top[d], and at top's last coordinate one."""
    hi, key = len(grades) if hi is None else hi, operator.itemgetter(d)
    if d + 1 < len(top):
        while lo < hi and grades[lo][d] <= top[d]:
            stop = bisect.bisect_right(grades, grades[lo][d], lo, hi, key=key)
            yield from leq_runs(grades, top, lo, stop, d + 1)
            lo = stop
    else:       # an empty top bounds nothing
        yield lo, bisect.bisect_right(grades, top[d], lo, hi, key=key) if top else hi


def row_sweep(shape, grades):
    """Walk a grid of the given shape in lexicographic order; a row (one value
    of the leading indices) starts where z[-1] == 0.  Yields (z, the positions
    in the sorted `grades`, read by `leq_runs` as each row starts, with
    leading indices <= the row's and last index z[-1])."""
    for row in itertools.product(*(range(s) for s in shape[:-1])):
        entering = [[] for _ in range(shape[-1])]
        for lo, hi in leq_runs(grades, row):
            for i in range(lo, hi):
                entering[grades[i][-1]].append(i)
        for k, batch in enumerate(entering):
            yield row + (k,), batch


def swept_ranks(field, shape, grades, columns):
    """{grid index z: (number of grades <= z, rank of their packed columns)}
    for sorted grades on a grid of the given shape, one reducer per row_sweep row."""
    table, copy = {}, field.columns.copy
    for z, entering in row_sweep(shape, grades):
        if z[-1] == 0:
            reducer, n = ColumnReducer(field), 0
        for j in entering:
            if columns[j]:      # an empty column adds no rank
                reducer.add_packed(copy(columns[j]))
        n += len(entering)
        table[z] = (n, reducer.rank)
    return table


class PresentationError(ValueError):
    pass


def _coeff_dict(f, count, name, coeffs):
    """A relation's coeffs, dict or dense list over count generators, as a
    new dict of nonzero field elements, each taken into the field first (2
    is 0 in Z/2)."""
    if not isinstance(coeffs, dict):
        if len(coeffs) != count:
            raise PresentationError(f"relation {name}: coefficient count mismatch")
        coeffs = dict(enumerate(coeffs))
    coeffs = {j: f.of(c) for j, c in coeffs.items()}
    return {j: c for j, c in coeffs.items() if c != f.zero}


class MonotoneAffineMap:
    """Diagonal affine order-preserving bijection J(x)_i = c_i * x_i + u_i,
    c_i > 0.

    Interleaving decisions need increasing maps (J(a) >= a); maps with
    c_i >= 1 and u_i >= 0 are increasing on every grade with nonnegative
    coordinates, and `increasing_at` checks the property on the grade domain
    actually in play.  Inverse maps (c_i < 1 or negative offsets) are allowed
    so shift functors can be undone.
    """

    def __init__(self, scales, offsets):
        self.scales = tuple(Fraction(c) for c in scales)
        self.offsets = tuple(Fraction(u) for u in offsets)
        if len(self.scales) != len(self.offsets):
            raise ValueError("scales/offsets length mismatch")
        if any(c <= 0 for c in self.scales):
            raise ValueError("scales must be > 0")

    @property
    def n(self):
        return len(self.scales)

    @classmethod
    def translation(cls, n, eps):
        return cls([Fraction(1)] * n, [Fraction(eps)] * n)

    @classmethod
    def identity(cls, n):
        return cls.translation(n, 0)

    @classmethod
    def scale_last(cls, n, factor):
        """(a, b) |-> (a, factor*b): the Rips-to-Cech comparison map."""
        return cls([Fraction(1)] * (n - 1) + [Fraction(factor)], [Fraction(0)] * n)

    def apply(self, grade):
        return tuple(c * x + u for c, u, x in zip(self.scales, self.offsets, grade))

    def apply_inverse(self, grade):
        return tuple((x - u) / c for c, u, x in zip(self.scales, self.offsets, grade))

    def compose(self, other):
        """self after other: (self . other)(x) = self(other(x))."""
        scales = tuple(c1 * c2 for c1, c2 in zip(self.scales, other.scales))
        offsets = tuple(c1 * u2 + u1
                        for c1, u1, u2 in zip(self.scales, self.offsets, other.offsets))
        return MonotoneAffineMap(scales, offsets)

    def inverse(self):
        scales = tuple(1 / c for c in self.scales)
        offsets = tuple(-u / c for c, u in zip(self.scales, self.offsets))
        return MonotoneAffineMap(scales, offsets)

    def increasing_at(self, grade):
        return grade_leq(grade, self.apply(grade))

    def __eq__(self, other):
        return (isinstance(other, MonotoneAffineMap)
                and self.scales == other.scales and self.offsets == other.offsets)

    def __repr__(self):
        return f"MonotoneAffineMap(scales={self.scales}, offsets={self.offsets})"


class Presentation:
    """<G | R>: graded generators and homogeneous relations over a field.

    generators: list of (name, grade) with grade a tuple of n Fractions.
    relations:  list of (name, grade, coeffs) with coeffs a {generator index:
                coeff} dict of nonzero field elements; a coefficient at
                generator j needs grade >= grade(gen j).  The constructor
                also takes coeffs as a dense list over the generators, takes
                each coefficient into the field, and ends by `validate`.

    The grades are ranked once, when the presentation is built: `axes[a]`
    holds the sorted distinct values of grade coordinate a, and
    `gen_index[j]`, `rel_index[i]` the grades as int tuples of positions on
    them.  Validation, minimization, critical grades and the Hilbert table
    compare those ints.
    """

    def __init__(self, n, field, generators, relations):
        n, gens, rels = int(n), list(generators), list(relations)
        grades = [tuple(map(as_fraction, g)) for _, g, *_ in gens + rels]
        for (name, *_), g in zip(gens + rels, grades):
            if len(g) != n:
                raise PresentationError(f"{name}: grade length != n")
        rels = [(name, g, _coeff_dict(field, len(gens), name, cs)) for name, g, cs in rels]
        self._keep(n, field, *grade_ranks(grades, n), gens, rels)
        self.validate()

    @classmethod
    def from_ranks(cls, n, field, axes, generators, relations):
        """The presentation of (name, index) generators and (name, index,
        coeffs) relations, indices on the value lists `axes` (kept: those used).
        Each coeffs must be a {generator index: coeff} dict of nonzero
        canonical field elements; it is stored as given, not copied, and
        trusted: nothing is checked, not even by `validate`."""
        keys = [k for _, k, *_ in generators + relations]
        used = [sorted(set(ks)) for ks in zip(*keys)] if keys else [[]] * n
        out = cls.__new__(cls)
        out._keep(n, field, [[ax[k] for k in ks] for ax, ks in zip(axes, used)],
                  [tuple(map(bisect.bisect_left, used, k)) for k in keys],
                  generators, relations)
        return out

    def _keep(self, n, field, axes, keys, generators, relations):
        """Store names, coeffs, and keys: generators', then relations' indices."""
        self.n, self.field, self.axes = n, field, axes
        self.gen_index, self.rel_index = keys[:len(generators)], keys[len(generators):]
        self.generators = [(name, tuple(map(operator.getitem, axes, k)))
                           for (name, _), k in zip(generators, self.gen_index)]
        self.relations = [(name, tuple(map(operator.getitem, axes, k)), coeffs)
                          for (name, _, coeffs), k in zip(relations, self.rel_index)]
        self._chain = None      # chain_complex(), built on the first call

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check all invariants (the constructor does; `from_ranks` does not);
        raise PresentationError on the first violation, else return self."""
        if self.n < 1:
            raise PresentationError("parameter count must be >= 1")
        seen = set()
        for name, *_ in self.generators + self.relations:
            if name in seen:
                raise PresentationError(f"duplicate name {name}")
            seen.add(name)
        for (name, _, coeffs), key in zip(self.relations, self.rel_index):
            for j in coeffs:
                if j not in range(len(self.generators)):
                    raise PresentationError(f"relation {name}: no generator {j!r}")
                if not grade_leq(self.gen_index[j], key):
                    raise PresentationError(
                        f"relation {name}: nonzero coefficient at generator "
                        f"{self.generators[j][0]} of larger grade (index {j})")
        return self

    # -- pointwise linear algebra -------------------------------------------

    def chain_complex(self):
        """The two-term complex relations -> generators, whose H_0 is this
        module, built on the first call: the generators in (grade index,
        -index) order with empty columns, the relations in grade-index order
        packed over those positions, and each basis the original indices."""
        if self._chain is None:
            from .homology import GradedChainComplex
            gens = sorted(reversed(range(len(self.gen_index))), key=self.gen_index.__getitem__)
            rels = sorted(range(len(self.rel_index)), key=self.rel_index.__getitem__)
            row, kind = {j: r for r, j in enumerate(gens)}, self.field.columns
            self._chain = GradedChainComplex.from_columns(self.field, self.axes, [gens, rels], [
                [self.gen_index[j] for j in gens], [self.rel_index[i] for i in rels]], [
                [kind.pack({}) for _ in gens],
                [kind.pack({row[j]: c for j, c in self.relations[i][2].items()}) for i in rels]])
        return self._chain

    def point_dim(self, a):
        """dim M_a: H_0 of `chain_complex` at a's floor on the axes."""
        if len(a) != self.n:
            raise PresentationError("grade length != n")
        chain = self.chain_complex()
        return chain.homology_dim_at(0, chain.floor(a))

    def hilbert_table(self, axes):
        """{grid index: dim M_z} at every point z of the grid on `axes`, one
        strictly increasing value list per parameter (others are refused):
        H_0 of `chain_complex` at z's floor on `self.axes`, each grid value
        floored once, both axes taken as ints at the lcm of their
        denominators."""
        if len(axes) != self.n:
            raise PresentationError("hilbert_table needs one axis per parameter")
        floors = []
        for mine, theirs in zip(self.axes, axes):
            scale = common_denominator(mine + list(theirs))
            grid = [scaled_int(x, scale) for x in theirs]
            if any(map(int.__ge__, grid, grid[1:])):
                raise PresentationError("hilbert_table axes must be strictly increasing")
            mine = [scaled_int(x, scale) for x in mine]
            floors.append([bisect.bisect_right(mine, y) - 1 for y in grid])
        chain = self.chain_complex()
        return {z: chain.homology_dim_at(0, None if -1 in k else k) for z, k in zip(
            itertools.product(*(range(len(f)) for f in floors)), itertools.product(*floors))}

    # -- functors -----------------------------------------------------------

    def shift(self, j_map):
        """M(J): pointwise M(J)_a = M_{J(a)}; grades move by J inverse."""
        gens = [(name, j_map.apply_inverse(g)) for name, g in self.generators]
        rels = [(name, j_map.apply_inverse(g), cs) for name, g, cs in self.relations]
        return Presentation(self.n, self.field, gens, rels)

    def restrict(self, u):
        """R_u: kill everything not strictly below u, one added relation per
        generator and finite axis.  u is a sequence of ExtendedRational/inf."""
        u = list(u)
        if len(u) != self.n:
            raise PresentationError("restriction bound length must equal n")
        f = self.field
        rels, k = list(self.relations), 0
        for j, (gname, ggrade) in enumerate(self.generators):
            for axis, uj in enumerate(u):
                uj = ExtendedRational.of(uj)
                if not uj.is_finite:
                    if uj.kind == -1:
                        raise PresentationError("restriction bound -inf")
                    continue
                grade = list(ggrade)
                grade[axis] = max(grade[axis], uj.value)
                rels.append((f"_cut{k}_{gname}_{axis}", tuple(grade), {j: f.one}))
                k += 1
        return Presentation(self.n, f, self.generators, rels)

    def minimize(self):
        """`minimal_presentation` of `chain_complex`."""
        return minimal_presentation(self.chain_complex(), [name for name, _ in self.generators],
                                    [name for name, _, _ in self.relations])

    def critical_grades(self):
        """(U, per-axis sorted value lists) of the minimal presentation
        self.minimize(), both read off its ranks."""
        m = self.minimize()
        return ([tuple(map(operator.getitem, m.axes, k))
                 for k in sorted(set(m.gen_index + m.rel_index))],
                [list(ax) for ax in m.axes])

    # -- text format ----------------------------------------------------------

    def to_text(self):
        lines = ["PRESENTATION", f"n {self.n}", f"field {self.field.spec}"]
        for name, grade in self.generators:
            lines.append("generator " + name + " " +
                         " ".join(format_rational(x) for x in grade))
        for name, grade, coeffs in self.relations:
            terms = [f"{self.generators[j][0]} {self._fmt_coeff(c)}"
                     for j, c in sorted(coeffs.items())]
            lines.append("relation " + name + " " +
                         " ".join(format_rational(x) for x in grade) +
                         " : " + "  ".join(terms))
        lines.append("END")
        return "\n".join(lines) + "\n"

    def _fmt_coeff(self, c):
        return format_rational(c) if self.field is QQ or self.field == QQ else str(c)

    def __repr__(self):
        return (f"Presentation(n={self.n}, field={self.field.spec!r}, "
                f"|G|={len(self.generators)}, |R|={len(self.relations)})")


def minimal_presentation(chain, gen_names, rel_names):
    """The minimal presentation, with the canonical grade multisets, of H_0
    of the two-term complex `chain` in `Presentation.chain_complex`'s
    convention (columns copied, not consumed), through `from_ranks`: what
    is kept, in increasing basis entry, named by gen_names and rel_names at
    the entries.  A column's top row, its generators being of grade <= its
    own (unchecked), is its least-index one of its own grade, if any.
    Step 1, on a `ColumnReducer` over the relations in order, reduces each
    until its top row is no pivot; if that generator is of its own grade the
    relation becomes a pivot and the generator goes, else it is reduced to
    zero at every pivot.  A residue is unique once the span and the pivot
    rows are fixed, so these are the residues of eliminating each such
    generator from every later relation.  Step 2 drops a residue iff it lies
    in the span of those strictly below its grade plus those of its grade
    with a larger index, as dropping them one by one in that order does;
    only the kept relations are unpacked."""
    field, kind, (gen_order, rel_order) = chain.field, chain.field.columns, chain.bases
    grade_at, rel_at = chain.grade_index[0], chain.grade_index[1]
    pivots, removed, rows = ColumnReducer(field), set(), {}
    for i, col in enumerate(chain.columns[1]):
        col, _, top = pivots.reduce_packed(kind.copy(col))
        if col and grade_at[top] == rel_at[i]:
            removed.add(pivots.add_packed(col)[0])
        elif col:               # step 2 would drop an empty relation
            rows[i] = pivots.reduce_packed(col, full=True)[0]

    # one span per row of the leading coordinates: at grade z it holds
    # every relation strictly below z, then those of grade z from the
    # largest index down; a lone residue, being nonzero, is never dropped
    kept, keys, dropped = list(rows), [rel_at[i] for i in rows], set()
    for z, entering in row_sweep([len(ax) for ax in chain.axes], keys) if len(keys) > 1 else ():
        if z[-1] == 0:
            reducer = ColumnReducer(field)
        for t in entering:
            if keys[t] != z:
                reducer.add_packed(kind.copy(rows[kept[t]]))
        for t in reversed(entering):
            if keys[t] == z and reducer.add_packed(kind.copy(rows[kept[t]]))[0] is None:
                dropped.add(kept[t])
    # step 1 left no removed generator in a kept relation
    gens = sorted(set(range(len(grade_at))) - removed, key=gen_order.__getitem__)
    new_index = {r: j for j, r in enumerate(gens)}
    rels = sorted(set(rows) - dropped, key=rel_order.__getitem__)
    return Presentation.from_ranks(
        chain.nparams, field, chain.axes, [(gen_names[gen_order[r]], grade_at[r]) for r in gens],
        [(rel_names[rel_order[i]], rel_at[i],
          {new_index[r]: c for r, c in kind.unpack(rows[i]).items()}) for i in rels])


def direct_sum(presentations, n=None, field=None):
    """Concatenate generators and relations; the empty sum is the zero module."""
    if not presentations:
        if n is None or field is None:
            raise PresentationError("empty direct sum needs explicit n and field")
        return Presentation(n, field, [], [])
    first = presentations[0]
    for p in presentations[1:]:
        if p.n != first.n:
            raise PresentationError("direct sum: parameter counts differ")
        if p.field != first.field:
            raise PresentationError("direct sum: coefficient fields differ")
    gens, rels = [], []
    for idx, p in enumerate(presentations):
        offset = len(gens)
        gens += [(f"s{idx}.{name}", grade) for name, grade in p.generators]
        rels += [(f"s{idx}.{name}", grade, {offset + j: c for j, c in coeffs.items()})
                 for name, grade, coeffs in p.relations]
    return Presentation(first.n, first.field, gens, rels)


def interval_presentation(field, a, b):
    """The 1-D interval module alive on [a, b): one generator, one relation
    (none if b is +inf)."""
    a, bd = Fraction(a), ExtendedRational.of(b)
    if not bd > a:
        raise PresentationError("interval needs a < b")
    rels = [("r", (bd.value,), {0: field.one})] if bd.is_finite else []
    return Presentation(1, field, [("g", (a,))], rels)


# -- parsing ------------------------------------------------------------------

def parse_presentation(text):
    head, gens, rel_rows = {}, [], []       # head: the n and field values
    for ln in text_lines(text, "PRESENTATION", PresentationError):
        key, *args = ln.split()
        if key not in ("n", "field", "generator", "relation"):
            raise PresentationError(f"unknown line: {ln}")
        if not args:
            raise PresentationError(f"{key} line without a value")
        if key in head:
            raise PresentationError(f"second {key} line: {ln}")
        if key == "n":
            head[key] = int(args[0])
        elif key == "field":
            head[key] = parse_field(args)
        elif key == "generator":
            if "n" not in head:
                raise PresentationError("n must precede generators")
            gens.append((args[0], tuple(map(parse_rational, args[1:]))))
        else:
            if len(head) < 2:
                raise PresentationError("n and field must precede relations")
            front, _, tail = ln.split(None, 1)[1].partition(":")
            if not front.split():
                raise PresentationError(f"relation line without a name: {ln}")
            name, *grade = front.split()
            rel_rows.append((name, tuple(map(parse_rational, grade)), tail.split()))
    if len(head) < 2:
        raise PresentationError("missing n or field")
    n, field = head["n"], head["field"]
    index = {name: j for j, (name, _) in enumerate(gens)}
    rels = []
    for name, grade, toks in rel_rows:
        if len(toks) % 2 != 0:
            raise PresentationError(f"relation {name}: odd coefficient list")
        coeffs = {}
        for gname, cval in zip(toks[0::2], toks[1::2]):
            if gname not in index:
                raise PresentationError(f"relation {name}: unknown generator {gname}")
            if index[gname] in coeffs:
                raise PresentationError(f"relation {name}: generator {gname} "
                                        f"listed twice")
            coeffs[index[gname]] = field.of(parse_rational(cval))
        rels.append((name, grade, coeffs))
    return Presentation(n, field, gens, rels)

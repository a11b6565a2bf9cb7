"""Finitely presented multiparameter persistence modules.

A module is given by graded generators and homogeneous relations over a
coefficient field.  The key modelling fact: monomial shifts act as the
identity on coefficient vectors, so the slice of the relation submodule at a
grade equals the plain k-span of the relations of grade <= that grade.  Every
pointwise question (dimension, transition rank, minimization, span tests) is
then a finite Gaussian elimination.
"""

from fractions import Fraction

from .exactnum import QQ, format_rational, parse_field, parse_rational
from .linalg import ColumnSpan


def grade_leq(a, b):
    return all(x <= y for x, y in zip(a, b))


class PresentationError(ValueError):
    pass


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
    relations:  list of (name, grade, coeffs) with coeffs indexed by the
                generators; coeffs[j] must be 0 unless grade >= grade(gen j).
    """

    def __init__(self, n, field, generators, relations):
        self.n = int(n)
        self.field = field
        self.generators = [(name, tuple(Fraction(x) for x in grade))
                           for name, grade in generators]
        self.relations = [(name, tuple(Fraction(x) for x in grade), list(coeffs))
                          for name, grade, coeffs in relations]

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check all invariants; raise PresentationError on the first violation."""
        if self.n < 1:
            raise PresentationError("parameter count must be >= 1")
        seen = set()
        for name, grade in self.generators:
            if len(grade) != self.n:
                raise PresentationError(f"generator {name}: grade length != n")
            if name in seen:
                raise PresentationError(f"duplicate name {name}")
            seen.add(name)
        for name, grade, coeffs in self.relations:
            if len(grade) != self.n:
                raise PresentationError(f"relation {name}: grade length != n")
            if name in seen:
                raise PresentationError(f"duplicate name {name}")
            seen.add(name)
            if len(coeffs) != len(self.generators):
                raise PresentationError(f"relation {name}: coefficient count mismatch")
            for j, c in enumerate(coeffs):
                if c != self.field.zero and not grade_leq(self.generators[j][1], grade):
                    raise PresentationError(
                        f"relation {name}: nonzero coefficient at generator "
                        f"{self.generators[j][0]} of larger grade (index {j})")
        return self

    def copy(self):
        return Presentation(self.n, self.field,
                            list(self.generators),
                            [(nm, gr, list(cs)) for nm, gr, cs in self.relations])

    # -- pointwise linear algebra -------------------------------------------

    def _active(self, a):
        gens = [j for j, (_, g) in enumerate(self.generators) if grade_leq(g, a)]
        rels = [i for i, (_, g, _) in enumerate(self.relations) if grade_leq(g, a)]
        return gens, rels

    def _quotient_basis(self, a):
        """Indices of active generators forming an echelon basis of M_a,
        plus the ColumnSpan of active relation columns (in active-gen coords)."""
        gens, rels = self._active(a)
        span = ColumnSpan(self.field, len(gens))
        for i in rels:
            coeffs = self.relations[i][2]
            span.insert([coeffs[j] for j in gens])
        pivot_rows = set(span.pivots)
        basis = [gens[r] for r in range(len(gens)) if r not in pivot_rows]
        return gens, basis, span

    def point_dim(self, a):
        _, basis, _ = self._quotient_basis(a)
        return len(basis)

    def transition_matrix(self, a, b):
        """Matrix of M_a -> M_b in the echelon quotient bases (rows: b-basis)."""
        if not grade_leq(a, b):
            raise PresentationError("transition requires a <= b")
        gens_a, basis_a, _ = self._quotient_basis(a)
        gens_b, basis_b, span_b = self._quotient_basis(b)
        pos_in_b = {j: r for r, j in enumerate(gens_b)}
        basis_rows = {j: i for i, j in enumerate(basis_b)}
        f = self.field
        cols = []
        for j in basis_a:
            v = [f.zero] * len(gens_b)
            v[pos_in_b[j]] = f.one
            res, _ = span_b._reduce(v)
            # residue coordinates at non-pivot rows are the quotient coords
            col = [f.zero] * len(basis_b)
            for r, x in enumerate(res):
                gj = gens_b[r]
                if gj in basis_rows:
                    col[basis_rows[gj]] = x
                elif x != f.zero and r not in span_b.pivots:
                    raise AssertionError("reduction left mass outside basis")
            cols.append(col)
        return [[cols[c][r] for c in range(len(basis_a))] for r in range(len(basis_b))]

    def transition_rank(self, a, b):
        m = self.transition_matrix(a, b)
        from .linalg import rank as _rank
        return _rank(self.field, m)

    # -- functors -----------------------------------------------------------

    def shift(self, j_map):
        """M(J): pointwise M(J)_a = M_{J(a)}; grades move by J inverse."""
        gens = [(name, j_map.apply_inverse(g)) for name, g in self.generators]
        rels = [(name, j_map.apply_inverse(g), list(cs))
                for name, g, cs in self.relations]
        return Presentation(self.n, self.field, gens, rels)

    def restrict(self, u):
        """R_u: kill everything not strictly below u, one added relation per
        generator and finite axis.  u is a sequence of ExtendedRational/inf."""
        from .exactnum import ExtendedRational
        u = list(u)
        if len(u) != self.n:
            raise PresentationError("restriction bound length must equal n")
        out = self.copy()
        f = self.field
        k = 0
        for j, (gname, ggrade) in enumerate(self.generators):
            for axis, uj in enumerate(u):
                uj = ExtendedRational.of(uj)
                if not uj.is_finite:
                    if uj.kind == -1:
                        raise PresentationError("restriction bound -inf")
                    continue
                grade = list(ggrade)
                grade[axis] = max(grade[axis], uj.value)
                coeffs = [f.zero] * len(self.generators)
                coeffs[j] = f.one
                out.relations.append((f"_cut{k}_{gname}_{axis}", tuple(grade), coeffs))
                k += 1
        return out

    def minimize(self):
        """Minimal presentation with the canonical grade multisets.

        Step 1: repeatedly eliminate a generator carrying a unit coefficient
        in a relation of equal grade (Gaussian elimination of the pair).
        Step 2: in one pass, drop each relation lying in the span, at its
        grade, of the other not yet dropped relations of grade <= its grade.
        Ties are broken by grade lexicographic order, then input order, for
        determinism.
        """
        f = self.field
        gens = list(self.generators)
        rels = [(nm, gr, list(cs)) for nm, gr, cs in self.relations]

        def pair_key(item):
            (ri, gj) = item
            return (rels[ri][1], ri, gj)

        while True:
            candidates = []
            for ri, (_, rgrade, coeffs) in enumerate(rels):
                for gj, (_, ggrade) in enumerate(gens):
                    if coeffs[gj] != f.zero and rgrade == ggrade:
                        candidates.append((ri, gj))
            if not candidates:
                break
            ri, gj = min(candidates, key=pair_key)
            _, rgrade, rc = rels[ri]
            c = rc[gj]
            cinv = f.inv(c)
            for i, (nm, gr, cs) in enumerate(rels):
                if i == ri or cs[gj] == f.zero:
                    continue
                factor = f.mul(cs[gj], cinv)
                cs = [f.sub(x, f.mul(factor, y)) for x, y in zip(cs, rc)]
                rels[i] = (nm, gr, cs)
            del rels[ri]
            for i, (nm, gr, cs) in enumerate(rels):
                rels[i] = (nm, gr, cs[:gj] + cs[gj + 1:])
            del gens[gj]

        # one pass suffices: a kept relation lies outside the span of the
        # relations not yet dropped, and later drops only shrink that span
        order = sorted(range(len(rels)), key=lambda i: (rels[i][1], i))
        dropped = set()
        for i in order:
            _, gr, cs = rels[i]
            span = ColumnSpan(f, len(gens))
            for i2 in range(len(rels)):
                if i2 == i or i2 in dropped:
                    continue
                _, gr2, cs2 = rels[i2]
                if grade_leq(gr2, gr):
                    span.insert(cs2)
            if span.contains(cs):
                dropped.add(i)
        rels = [r for i, r in enumerate(rels) if i not in dropped]
        return Presentation(self.n, f, gens, rels)

    def critical_grades(self):
        """(U, per-axis sorted value lists) from the minimized presentation."""
        m = self.minimize()
        grades = [g for _, g in m.generators] + [g for _, g, _ in m.relations]
        u_set = sorted(set(grades))
        axes = [sorted({g[i] for g in grades}) for i in range(self.n)]
        return u_set, axes

    # -- text format ----------------------------------------------------------

    def to_text(self):
        lines = ["PRESENTATION", f"n {self.n}", f"field {self.field.spec}"]
        for name, grade in self.generators:
            lines.append("generator " + name + " " +
                         " ".join(format_rational(x) for x in grade))
        for name, grade, coeffs in self.relations:
            terms = []
            for (gname, _), c in zip(self.generators, coeffs):
                if c != self.field.zero:
                    terms.append(f"{gname} {self._fmt_coeff(c)}")
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
    offset = 0
    total = sum(len(p.generators) for p in presentations)
    for idx, p in enumerate(presentations):
        for name, grade in p.generators:
            gens.append((f"s{idx}.{name}", grade))
        for name, grade, coeffs in p.relations:
            padded = [first.field.zero] * total
            for j, c in enumerate(coeffs):
                padded[offset + j] = c
            rels.append((f"s{idx}.{name}", grade, padded))
        offset += len(p.generators)
    return Presentation(first.n, first.field, gens, rels)


def interval_presentation(field, a, b):
    """The 1-D interval module alive on [a, b): one generator, one relation
    (none if b is +inf)."""
    from .exactnum import ExtendedRational
    a = Fraction(a)
    gens = [("g", (a,))]
    rels = []
    bd = b if isinstance(b, ExtendedRational) else ExtendedRational.of(b)
    if bd.is_finite:
        if not bd.value > a:
            raise PresentationError("interval needs a < b")
        rels = [("r", (bd.value,), [field.one])]
    return Presentation(1, field, gens, rels)


# -- parsing ------------------------------------------------------------------

def parse_presentation(text):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "PRESENTATION":
        raise PresentationError("missing PRESENTATION header")
    if lines[-1] != "END":
        raise PresentationError("missing END")
    n = None
    field = None
    gens = []
    rel_rows = []
    for ln in lines[1:-1]:
        parts = ln.split()
        if parts[0] == "n":
            n = int(parts[1])
        elif parts[0] == "field":
            field = parse_field(parts[1:])
        elif parts[0] == "generator":
            if n is None:
                raise PresentationError("n must precede generators")
            name = parts[1]
            grade = tuple(parse_rational(x) for x in parts[2:2 + n])
            if len(grade) != n:
                raise PresentationError(f"generator {name}: expected {n} coordinates")
            gens.append((name, grade))
        elif parts[0] == "relation":
            if n is None or field is None:
                raise PresentationError("n and field must precede relations")
            body = ln.split(None, 1)[1]
            if ":" in body:
                head, tail = body.split(":", 1)
            else:
                head, tail = body, ""
            hparts = head.split()
            name = hparts[0]
            grade = tuple(parse_rational(x) for x in hparts[1:1 + n])
            if len(grade) != n:
                raise PresentationError(f"relation {name}: expected {n} coordinates")
            rel_rows.append((name, grade, tail.split()))
        else:
            raise PresentationError(f"unknown line: {ln}")
    if n is None or field is None:
        raise PresentationError("missing n or field")
    index = {name: j for j, (name, _) in enumerate(gens)}
    rels = []
    for name, grade, toks in rel_rows:
        if len(toks) % 2 != 0:
            raise PresentationError(f"relation {name}: odd coefficient list")
        coeffs = [field.zero] * len(gens)
        for gname, cval in zip(toks[0::2], toks[1::2]):
            if gname not in index:
                raise PresentationError(f"relation {name}: unknown generator {gname}")
            coeffs[index[gname]] = field.of(parse_rational(cval))
        rels.append((name, grade, coeffs))
    return Presentation(n, field, gens, rels).validate()

"""Exact scalars: arbitrary-precision rationals, square roots of rationals,
prime fields Z/p, extended reals, and the one rule that ranks them.

Every distance and threshold in this package is a `fractions.Fraction`, and
so is every grade coordinate but an L2 scale, which may be a `Scale`
(sqrt(sq), compared exactly through sq).  Coefficient arithmetic happens in
a prime field or in Q.  Nothing here ever touches floating point.

Exact values become ints here only: at the lcm of their denominators
(`common_denominator`, `scaled_int`), and as grade ranks (`grade_ranks`, the
one ranking rule: an axis that holds a Scale by signed squares).

Each field also names the column type that `linalg.ColumnReducer` stores
its columns in (`field.columns`), chosen here once: {row: coeff} dicts over
Z/p and Q, and ints over Z/2, where bit r stands for a 1 at row r.  Each
column type runs the one reduction loop over its columns (`reduce`).
"""

import bisect
from fractions import Fraction
import math

Rational = Fraction


def parse_rational(text):
    """Parse `a/b`, `a`, or exact decimal `a.b`, either with an exponent `eN`, |N| <= 4300."""
    try:
        exponent = text.lower().partition("e")[2].strip().lstrip("+-0_")
        if len(exponent) > 5 or int(exponent or 0) > 4300:
            raise ValueError("exponent beyond 4300")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def text_lines(text, header=None, error=ValueError):
    """The lines of a text format, each cut at its first `#` and stripped,
    empty ones dropped; with a header, those between a first line `header`
    and a last line `END`, a frame whose absence raises `error`."""
    lines = [ln for ln in (ln.split("#", 1)[0].strip() for ln in text.splitlines()) if ln]
    if header is None:
        return lines
    if lines[:1] != [header]:
        raise error(f"missing {header} header")
    if lines[-1] != "END":
        raise error("missing END")
    return lines[1:-1]


def common_denominator(values):
    """The lcm of the distinct denominators of `values`: the least
    `scaled_int` scale."""
    return math.lcm(*{q.denominator for q in values})


def scaled_int(q, scale):
    """The integer q * scale, for a scale that is a multiple of q's
    denominator."""
    return q.numerator * (scale // q.denominator)


def as_fraction(x):
    """x as a Fraction.  A Fraction passes through untouched; Fraction(x)
    would build a new one, through an ABC isinstance."""
    return x if type(x) is Fraction else Fraction(x)


def format_rational(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def least_feasible(values, feasible):
    """The least entry of the sorted list `values` at which a monotone
    predicate holds, or None if it holds at none.  `feasible(v)` returns
    None when it fails at v, else a certificate: an entry u <= v of `values`
    at which it is known to hold (v itself when nothing more is known); any
    other return, a bool included, raises TypeError.  The search gallops up
    from the bottom, probing indices 0, 1, 3, 7, ... (capped at the last
    index), then bisects the gap below the certified entry ((lo + hi) // 2);
    every certificate moves the top of the gap down to it."""
    lo, hi, step = 0, len(values), 1   # the answer's index is in [lo, hi]; len = none
    while lo < hi:
        if hi == len(values):
            mid, step = min(step - 1, hi - 1), 2 * step
        else:
            mid = (lo + hi) // 2
        u = feasible(values[mid])
        if u is None:
            lo = mid + 1
            continue
        k = mid + 1 if type(u) is bool else bisect.bisect_left(values, u, lo, mid + 1)
        if k > mid or values[k] != u:
            raise TypeError(f"feasible({values[mid]!r}) returned {u!r}, no certificate")
        hi = k
    return values[hi] if hi < len(values) else None


# ---------------------------------------------------------------------------
# Square roots of rationals, and ranking grades
# ---------------------------------------------------------------------------

class Scale:
    """An irrational scale sqrt(sq); comparisons go through sq exactly."""

    __slots__ = ("sq",)

    def __init__(self, sq):
        self.sq = Fraction(sq)
        if self.sq < 0:
            raise ValueError("negative radicand")

    def __repr__(self):
        return f"sqrt({format_rational(self.sq)})"


def scale_of_square(q):
    """Exact scale value with square q: a Fraction when q is a perfect
    rational square, else a Scale."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative square")
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return Scale(q)


def scale_square(v):
    """The square of a nonnegative scale value, a Fraction or a Scale."""
    if type(v) is not Fraction:
        if isinstance(v, Scale):
            return v.sq
        v = Fraction(v)
    if v < 0:
        raise ValueError("scales are nonnegative")
    return v * v


def grade_ranks(grades, n):
    """(axes, ranks): the sorted distinct values on each of the n axes, and
    each grade as the tuple of its values' positions there.  Values
    (Fractions, ints or Scales) are ranked as scaled ints, on an axis that
    holds a Scale by signed squares: sq for a Scale, x * |x| for a rational.
    Equal values share a rank (sqrt(4) and 2; the axis shows the rational)."""
    axes, columns = [], []
    for a in range(n):
        vals = keys = [g[a] for g in grades]
        squared = any(type(x) is not Fraction and isinstance(x, Scale) for x in vals)
        if squared:
            keys = [x.sq if isinstance(x, Scale) else x * abs(x) for x in vals]
        scale = common_denominator(keys)
        ints = [scaled_int(x, scale) for x in keys]
        pos = {v: k for k, v in enumerate(sorted(set(ints)))}
        column = [pos[v] for v in ints]
        shown = dict(zip(column, vals))
        if squared:
            shown.update((k, x) for k, x in zip(column, vals)
                         if not isinstance(x, Scale))
        axes.append([shown[k] for k in range(len(pos))])
        columns.append(column)
    return axes, list(zip(*columns)) if n else [()] * len(grades)


# ---------------------------------------------------------------------------
# Extended reals
# ---------------------------------------------------------------------------

class ExtendedRational:
    """A rational extended with +inf/-inf, totally ordered, with x + inf = inf.

    inf + (-inf) is undefined and raises.  -inf only ever shows up as a
    diagram birth coordinate; the arithmetic here is what the bottleneck
    metric needs (differences, absolute values, max, halving).
    """

    __slots__ = ("kind", "value")
    # kind: -1 = -inf, 0 = finite, 1 = +inf

    def __init__(self, kind, value=None):
        self.kind = kind
        self.value = as_fraction(value) if kind == 0 else None

    @classmethod
    def of(cls, x):
        return x if isinstance(x, ExtendedRational) else cls(0, x)

    @property
    def is_finite(self):
        return self.kind == 0

    def __eq__(self, other):
        try:
            other = ExtendedRational.of(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __lt__(self, other):
        other = ExtendedRational.of(other)
        if self.kind != other.kind:
            return self.kind < other.kind
        if self.kind != 0:
            return False
        return self.value < other.value

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return ExtendedRational.of(other) < self

    def __ge__(self, other):
        return ExtendedRational.of(other) <= self

    def __hash__(self):
        return hash(("ext", self.kind, self.value))

    def __add__(self, other):
        other = ExtendedRational.of(other)
        if self.kind == 0 and other.kind == 0:
            return ExtendedRational(0, self.value + other.value)
        kinds = {self.kind, other.kind}
        if kinds == {1, -1}:
            raise ArithmeticError("inf + (-inf) is undefined")
        return ExtendedRational(1 if 1 in kinds else -1)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        if self.kind == 0:
            return ExtendedRational(0, -self.value)
        return ExtendedRational(-self.kind)

    def __sub__(self, other):
        return self + (-ExtendedRational.of(other))

    def __rsub__(self, other):
        return ExtendedRational.of(other) + (-self)

    def __abs__(self):
        if self.kind == 0:
            return ExtendedRational(0, abs(self.value))
        return ExtendedRational(1)

    def __mul__(self, other):
        # only rational scaling is needed (halving candidate values)
        q = Fraction(other)
        if self.kind == 0:
            return ExtendedRational(0, self.value * q)
        if q == 0:
            raise ArithmeticError("0 * inf is undefined")
        return ExtendedRational(self.kind if q > 0 else -self.kind)

    __rmul__ = __mul__

    def __repr__(self):
        if self.kind == 1:
            return "inf"
        if self.kind == -1:
            return "-inf"
        return format_rational(self.value)


INF = ExtendedRational(1)
NEG_INF = ExtendedRational(-1)


def ext(x):
    return ExtendedRational.of(x)


def parse_extended(text):
    t = text.strip()
    if t in ("inf", "+inf", "oo"):
        return INF
    if t == "-inf":
        return NEG_INF
    return ExtendedRational.of(parse_rational(t))


# ---------------------------------------------------------------------------
# Column types and coefficient fields
# ---------------------------------------------------------------------------

def subtract_multiple(f, target, c, source):
    """target -= c * source on {key: coeff} dicts, dropping zero entries."""
    zero = f.zero
    for r, x in source.items():
        v = f.sub(target.get(r, zero), f.mul(c, x))
        if v == zero:
            target.pop(r, None)
        else:
            target[r] = v


class DictColumns:
    """Columns over any field as {row: coeff} dicts without zeros, reduced in
    place.  A column type packs, unpacks, copies and negates such dicts,
    makes unit columns, checks that lists of its columns have rows in
    range(n) (`within`), composes and reduces them."""

    def __init__(self, field):
        self.field = field

    @staticmethod
    def pack(v):
        return v

    unpack = pack
    copy = staticmethod(dict)
    within = staticmethod(lambda cols, n: all(map(range(n).__contains__, set().union(*cols))))

    def unit(self, r):
        return {r: self.field.one}

    def neg(self, col):
        return {r: self.field.neg(x) for r, x in col.items()}

    def compose(self, later, earlier):
        """The map `later` after `earlier`: column c is the sum of x *
        later[k] over the entries k: x of earlier[c]; a map to or from a
        zero space needs no dimension."""
        zero, add, mul = self.field.zero, self.field.add, self.field.mul
        out = []
        for col in earlier:
            acc = {}
            for k, x in col.items():
                for r, y in later[k].items():
                    acc[r] = add(acc.get(r, zero), mul(x, y))
            if zero in acc.values():
                acc = {r: v for r, v in acc.items() if v != zero}
            out.append(acc)
        return out

    def reduce(self, stored, col, combo, full):
        """Reduce col and combo by the stored {pivot: (column, combo)} until
        col's top row is no pivot (with full, zero at every pivot).  Returns
        (col, or with full its non-pivot rows, combo, the last top row)."""
        f, kept, low = self.field, {} if full else None, None
        while col:
            low = max(col)
            hit = stored.get(low)
            if hit is not None:
                c = f.div(col[low], hit[0][low])
                subtract_multiple(f, col, c, hit[0])
                if combo is not None:
                    subtract_multiple(f, combo, c, hit[1])
            elif full:
                kept[low] = col.pop(low)
            else:
                break
        return (kept if full else col), combo, low


class BitColumns:
    """Columns over Z/2 as ints, bit r set iff row r holds 1: the pivot is
    the top bit, elimination is xor and negation the identity, with no field
    method called."""

    @staticmethod
    def pack(v):
        col = 0
        for r in v:
            col |= 1 << r
        return col

    @staticmethod
    def unpack(col):
        out = {}
        while col:
            bit = col & -col
            out[bit.bit_length() - 1] = 1
            col ^= bit
        return out

    copy = staticmethod(int)    # ints are immutable: a column is its own copy
    neg = copy                  # -x == x over Z/2
    within = staticmethod(lambda cols, n: not any(col >> n for col in cols))  # no int < 0

    @staticmethod
    def unit(r):
        return 1 << r

    @staticmethod
    def compose(later, earlier):
        """`DictColumns.compose` on bitsets: each column of earlier is the
        xor of the columns of later at its set bits."""
        out = []
        for col in earlier:
            acc = 0
            while col:
                bit = col & -col
                acc ^= later[bit.bit_length() - 1]
                col ^= bit
            out.append(acc)
        return out

    @staticmethod
    def reduce(stored, col, combo, full):
        """`DictColumns.reduce` on bitsets."""
        kept, low = 0, None
        while col:
            low = col.bit_length() - 1
            hit = stored.get(low)
            if hit is not None:
                col ^= hit[0]
                if combo is not None:
                    combo ^= hit[1]
            elif full:
                col, kept = col ^ 1 << low, kept | 1 << low
            else:
                break
        return (kept if full else col), combo, low


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Z/p for a prime p <= 2**31.  Elements are canonical ints in [0, p)."""

    def __init__(self, p):
        p = int(p)
        if p > 2 ** 31:
            raise ValueError(f"prime too large: {p}")
        if not _is_prime(p):
            raise ValueError(f"not prime: {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p
        self.columns = BitColumns() if p == 2 else DictColumns(self)

    def of(self, x):
        """The residue of an integer; a rational with a denominator other
        than 1 is refused, never truncated."""
        if not isinstance(x, int):
            x = Fraction(x)
            if x.denominator != 1:
                raise ValueError(f"{format_rational(x)} is not an integer, "
                                 f"so not an element of Z/{self.p}")
            x = x.numerator
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        return range(self.p)

    @property
    def spec(self):
        return f"zp {self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("zp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """The field Q; elements are Fractions."""

    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self):
        self.columns = DictColumns(self)

    def of(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / Fraction(b)

    @property
    def spec(self):
        return "q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "RationalField()"


QQ = RationalField()


def parse_field(tokens):
    """Parse a field spec: ['q'] or ['zp', '7']."""
    tokens = tokens.split() if isinstance(tokens, str) else list(tokens)
    if tokens[:1] == ["q"]:
        return QQ
    if tokens[:1] == ["zp"] and len(tokens) > 1:
        return PrimeField(int(tokens[1]))
    raise ValueError(f"unknown field spec: {' '.join(tokens) or '(none)'}")


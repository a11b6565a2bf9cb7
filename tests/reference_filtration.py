"""Reference copies of ``permod.filtration`` code that was rewritten.

* The sublevelset-Rips and -Cech builders as they were before the one
  upper-neighbour builder: Rips extends each clique against every later
  vertex, and Cech tries every vertex for each simplex and drops repeats
  with a `seen` set.  The builder must give the same complexes, or the same
  exception.
* `ReferenceComplex`, `fixed_scale_slice` and `parse_complex` as they were
  before a complex ranked its grades once: the complex sorts and
  face-checks the grade values themselves (a column that holds a Scale by
  signed squares), and the slice squares every simplex's scale and builds
  its complex from scratch.  The ranked complex must give the same text,
  slices and errors.
* `sublevel_bifiltration`, the one upper-neighbour builder as it was before
  its pair pass compared ints: it takes each pair's exact distance as a
  Fraction (or a `Scale` for L2), squares the half length and compares it
  with the squared cap, and orders the kept edges by those squares.  The
  int pair pass must give the same complexes, or the same exception.
"""

import itertools
import operator
from fractions import Fraction

from permod.exactnum import as_fraction, format_rational, parse_rational
from permod.filtration import (METRICS, BifilteredComplex, FiltrationError,
                               Scale, dist_squared_l2, distance,
                               min_enclosing_radius, scale_of_square,
                               scale_square)


def scale_mul(v, c):
    c = Fraction(c)
    if isinstance(v, Scale):
        return scale_of_square(v.sq * c * c)
    return Fraction(v) * c


def _dedupe(cloud, values):
    seen = {}
    for pt, val in zip(cloud.points, values):
        if pt in seen:
            if seen[pt] != val:
                raise FiltrationError(f"duplicate point {pt} with conflicting values")
        else:
            seen[pt] = val
    pts = list(seen)
    return pts, [seen[pt] for pt in pts]


def _function_grade(values, idx):
    n = len(values[0])
    return tuple(max(values[v][k] for v in idx) for k in range(n))


def rips_bifiltration(cloud, p, values, max_dim, scale_cap):
    """Sublevelset-Rips: a simplex appears at (componentwise max of the
    function over its vertices, half its diameter); clique completion up to
    max_dim, scale coordinate capped."""
    if len(values) != len(cloud):
        raise FiltrationError("function rows do not match points")
    if p not in METRICS:
        raise FiltrationError(f"unsupported metric p={p}")
    pts, vals = _dedupe(cloud, [tuple(Fraction(x) for x in v) for v in values])
    scale_cap = Fraction(scale_cap)
    if scale_cap < 0:
        raise FiltrationError("scale cap must be >= 0")
    cap_sq = scale_cap ** 2
    nv = len(pts)
    half = {}
    for i in range(nv):
        for j in range(i + 1, nv):
            d = distance(pts[i], pts[j], p)
            s = scale_mul(d, Fraction(1, 2))
            if scale_square(s) <= cap_sq:
                half[(i, j)] = s
    simplices = []
    nfun = len(vals[0]) if vals else 0
    for i in range(nv):
        simplices.append(((i,), vals[i] + (Fraction(0),)))
    frontier = [(i,) for i in range(nv)]
    for _ in range(max_dim):
        nxt = []
        for verts in frontier:
            for w in range(verts[-1] + 1, nv):
                if all((v, w) in half for v in verts):
                    new = verts + (w,)
                    pairs = [half[(a, b)] for a, b in itertools.combinations(new, 2)]
                    scale = max(pairs, key=scale_square)
                    simplices.append((new, _function_grade(vals, new) + (scale,)))
                    nxt.append(new)
        frontier = nxt
    return BifilteredComplex((nfun or 0) + 1, simplices)


def cech_bifiltration(cloud, p, values, max_dim, scale_cap):
    """Sublevelset-Cech: scale coordinate is the smallest enclosing ball
    radius of the vertex set (ambient R^m).  p=2 exact via rational squared
    radii; p=inf exact via half extents; p=1 unsupported."""
    if p == 1:
        raise FiltrationError("Cech with the L1 metric is not supported")
    if p not in METRICS:
        raise FiltrationError(f"unsupported metric p={p}")
    if len(values) != len(cloud):
        raise FiltrationError("function rows do not match points")
    pts, vals = _dedupe(cloud, [tuple(Fraction(x) for x in v) for v in values])
    scale_cap = Fraction(scale_cap)
    if scale_cap < 0:
        raise FiltrationError("scale cap must be >= 0")
    cap_sq = scale_cap ** 2
    nv = len(pts)
    nfun = len(vals[0]) if vals else 0
    simplices = []
    alive = []
    for i in range(nv):
        simplices.append(((i,), vals[i] + (Fraction(0),)))
        alive.append((i,))
    for _ in range(max_dim):
        nxt = []
        seen = set()
        for verts in alive:
            for w in range(nv):
                if w in verts:
                    continue
                new = tuple(sorted(verts + (w,)))
                if new in seen:
                    continue
                seen.add(new)
                radius = min_enclosing_radius([pts[v] for v in new], p)
                if scale_square(radius) <= cap_sq:
                    simplices.append((new, _function_grade(vals, new) + (radius,)))
                    nxt.append(new)
        alive = nxt
    return BifilteredComplex(nfun + 1, simplices)


def _signed_square(x):
    """A key ordered like the values: sq for a Scale, x * |x| for a rational."""
    return x.sq if isinstance(x, Scale) else x * abs(x)


class ReferenceComplex:
    """One-critical multifiltered simplicial complex: each simplex appears at
    a single minimal grade, faces no later than cofaces.  Simplices are kept
    sorted by dimension, grade and vertices; a grade column that holds a
    Scale compares by signed squares, every other column by value."""

    def __init__(self, nparams, simplices):
        self.nparams = int(nparams)
        self.simplices = []
        index = {}
        for verts, grade in simplices:
            verts = tuple(sorted(verts))
            if verts in index:
                raise FiltrationError(f"duplicate simplex {verts}")
            if len(grade) != self.nparams:
                raise FiltrationError("grade length mismatch")
            index[verts] = grade = tuple(grade)
            self.simplices.append((verts, grade))
        squared = [any(type(g[k]) is not Fraction and isinstance(g[k], Scale)
                       for g in index.values())
                   for k in range(self.nparams)]
        if any(squared):
            # one key per simplex, for the face check and the sort
            index = {verts: tuple(_signed_square(x) if sq else x
                                  for x, sq in zip(grade, squared))
                     for verts, grade in index.items()}
        for verts, key in index.items():
            if len(verts) > 1:
                for face in itertools.combinations(verts, len(verts) - 1):
                    if face not in index:
                        raise FiltrationError(f"missing face {face} of {verts}")
                    if not all(x <= y for x, y in zip(index[face], key)):
                        raise FiltrationError(f"face {face} appears after {verts}")
        self.simplices.sort(key=lambda s: (len(s[0]), index[s[0]], s[0]))

    def grades_rational(self):
        """All grades as Fractions; raises if any coordinate is irrational."""
        out = []
        for verts, grade in self.simplices:
            for x in grade:
                if type(x) is not Fraction and isinstance(x, Scale):
                    raise FiltrationError(
                        f"irrational grade coordinate {x!r} on {verts}; "
                        "downstream algebra requires rational grades")
            out.append((verts, tuple(map(as_fraction, grade))))
        return out

    def to_text(self):
        lines = []
        for verts, grade in self.simplices:
            gtxt = " ".join(repr(x) if isinstance(x, Scale) else format_rational(x)
                            for x in grade)
            lines.append(",".join(str(v) for v in verts) + " : " + gtxt)
        return "\n".join(lines) + ("\n" if lines else "")


def parse_complex(text):
    simplices = []
    nparams = None
    for ln in text.splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        head, _, tail = ln.partition(":")
        verts = tuple(int(v) for v in head.strip().split(","))
        toks = tail.split()
        grade = []
        for tok in toks:
            if tok.startswith("sqrt(") and tok.endswith(")"):
                grade.append(scale_of_square(parse_rational(tok[5:-1])))
            else:
                grade.append(parse_rational(tok))
        if nparams is None:
            nparams = len(grade)
        simplices.append((verts, tuple(grade)))
    return ReferenceComplex(nparams if nparams is not None else 1, simplices)


def fixed_scale_slice(complex_, delta):
    """Keep simplices with scale <= delta and drop the scale axis."""
    delta = Fraction(delta)
    if delta < 0:
        raise FiltrationError("delta must be >= 0")
    kept = []
    for verts, grade in complex_.simplices:
        if scale_square(grade[-1]) <= scale_square(delta):
            kept.append((verts, grade[:-1]))
    return ReferenceComplex(complex_.nparams - 1, kept)


def sublevel_bifiltration(cloud, p, values, max_dim, scale_cap, cech):
    """Sublevelset-Rips (cech False) or -Cech up to max_dim and the scale cap.
    Each simplex grows from its prefix (all but its last vertex) and extends
    the prefix's function grade and, for Rips, the prefix's scale."""
    if len(values) != len(cloud):
        raise FiltrationError("function rows do not match points")
    if p not in METRICS:
        raise FiltrationError(f"unsupported metric p={p}")
    first = {}
    for pt, val in zip(cloud.points, [tuple(map(Fraction, v)) for v in values]):
        if first.setdefault(pt, val) != val:
            raise FiltrationError(f"duplicate point {pt} with conflicting values")
    pts, vals = list(first), list(first.values())
    scale_cap = Fraction(scale_cap)
    if scale_cap < 0:
        raise FiltrationError("scale cap must be >= 0")
    cap_sq = scale_cap ** 2
    # near[v][w] = (half length, its square) of each capped edge v < w
    near = [{} for _ in pts]
    up = [0] * len(pts)
    for i, j in itertools.combinations(range(len(pts)), 2):
        sq = (dist_squared_l2(pts[i], pts[j]) / 4 if p == 2
              else (distance(pts[i], pts[j], p) / 2) ** 2)
        if sq <= cap_sq:
            near[i][j] = (scale_of_square(sq), sq)
            up[i] |= 1 << j
    square = operator.itemgetter(1)
    zero = Fraction(0)
    simplices = []
    # (vertices, function grade, scale, its square, common upper neighbours)
    stack = [((i,), val, zero, zero, up[i]) for i, val in enumerate(vals)]
    while stack:
        verts, fgrade, pscale, psq, common = stack.pop()
        simplices.append((verts, fgrade + (pscale,)))
        while common and len(verts) <= max_dim:
            low = common & -common
            common ^= low       # the bits left are those above w
            w = low.bit_length() - 1
            new = verts + (w,)
            if cech and len(new) > 2:
                scale = min_enclosing_radius([pts[v] for v in new], p)
                sq = scale_square(scale)
                if sq > cap_sq:
                    continue
            else:
                scale, sq = max((pscale, psq), *(near[v][w] for v in verts),
                                key=square)
            grade = tuple(map(max, fgrade, vals[w]))
            stack.append((new, grade, scale, sq, common & up[w]))
    return BifilteredComplex(len(vals[0]) + 1 if vals else 1, simplices)

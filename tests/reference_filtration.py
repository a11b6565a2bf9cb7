"""Reference copy of the sublevelset-Rips and -Cech builders of
``permod.filtration`` as they were before the one upper-neighbour builder:
Rips extends each clique against every later vertex, and Cech tries every
vertex for each simplex and drops repeats with a `seen` set.  Kept as they
were, as an oracle: the builder must give the same complexes, or the same
exception.
"""

import itertools
from fractions import Fraction

from permod.filtration import (METRICS, BifilteredComplex, FiltrationError,
                               Scale, distance, min_enclosing_radius,
                               scale_key, scale_of_square, scale_square)


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
                    scale = max(pairs, key=scale_key)
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

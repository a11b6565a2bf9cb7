"""One-parameter structure theory: bars by one column reduction, persistence
diagrams, interval-sum presentations, and the bottleneck distance by
multibijection matching with an exhaustive oracle.  `bars` gives
`diagram_of` its pairs, and with `matchable` gives `interleave` its
diagonal-slice lower bound; `homology.barcode_1d` reads its pairs from the
chain complex's own reductions.

Diagram coordinates are extended rationals; a finitely presented module has
finite births and finite-or-+inf deaths.
"""

import itertools
import operator

from .exactnum import (INF, NEG_INF, ExtendedRational, ext, least_feasible,
                       parse_extended, text_lines)
from .linalg import ColumnReducer
from .presentation import PresentationError, direct_sum, interval_presentation


class PersistenceDiagram:
    """Multiset of (birth, death) pairs, birth < death, canonical sort."""

    def __init__(self, points):
        merged = {}
        for birth, death, mult in points:
            birth, death, mult = ext(birth), ext(death), int(mult)
            if mult <= 0:
                raise ValueError("multiplicity must be positive")
            if not birth < death:
                raise ValueError(f"need birth < death, got ({birth}, {death})")
            if birth == INF or death == NEG_INF:
                raise ValueError("birth < +inf and death > -inf required")
            key = (birth, death)
            merged[key] = merged.get(key, 0) + mult
        self.points = sorted(((b, d, m) for (b, d), m in merged.items()),
                             key=lambda p: (p[0], p[1]))

    def expanded(self):
        """Points repeated with multiplicity."""
        return [(b, d) for b, d, m in self.points for _ in range(m)]

    def total_multiplicity(self):
        return sum(m for _, _, m in self.points)

    def __eq__(self, other):
        return isinstance(other, PersistenceDiagram) and self.points == other.points

    def __repr__(self):
        inner = ", ".join(f"({b},{d}):{m}" for b, d, m in self.points)
        return "PersistenceDiagram{" + inner + "}"

    def to_text(self):
        return "".join(f"{b} {d} {m}\n" for b, d, m in self.points)


def parse_diagram(text):
    pts = []
    for ln in text_lines(text):
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad diagram line (birth death multiplicity): {ln}")
        b, d, m = parts
        pts.append((parse_extended(b), parse_extended(d), int(m)))
    return PersistenceDiagram(pts)


def bars(field, gens, rels):
    """The bars of the 1-parameter module whose generators enter at the
    values gens and whose relations are (value, {generator index: coeff}),
    by one column reduction: rows are the generators by value, relation
    columns are added by value, and a column whose pivot row (its youngest
    generator) enters at b, added at d, gives [b, d), dropped when b == d.
    Each row left unpaired gives (b, None), a bar that never dies.  Values
    need only be ordered: ints or Fractions."""
    order = sorted(range(len(gens)), key=gens.__getitem__)
    row = dict(zip(order, range(len(order))))
    reducer, out = ColumnReducer(field), []
    for d, cs in sorted(rels, key=operator.itemgetter(0)):
        low, _ = reducer.add_packed(field.columns.pack({row[i]: c for i, c in cs.items()}))
        if low is not None and gens[order[low]] != d:
            out.append((gens[order[low]], d))
    return out + [(gens[g], None) for r, g in enumerate(order) if r not in reducer.columns]


def diagram_of(p):
    """Persistence diagram of a finitely presented 1-parameter module: the
    `bars` of its grades."""
    if p.n != 1:
        raise PresentationError("diagram requires a 1-parameter module")
    pts = bars(p.field, [g for _, (g,) in p.generators],
               [(g, cs) for _, (g,), cs in p.relations])
    return PersistenceDiagram([(ext(b), INF if d is None else ext(d), 1) for b, d in pts])


def presentation_of(diagram, field):
    """Direct sum of interval modules realizing the diagram; births must be
    finite (colimit-style intervals are out of scope)."""
    summands = []
    for b, d, m in diagram.points:
        if not b.is_finite:
            raise PresentationError("diagram has a -inf birth; not finitely presentable")
        for _ in range(m):
            summands.append(interval_presentation(field, b.value, d))
    return direct_sum(summands, n=1, field=field)


# ---------------------------------------------------------------------------
# Bottleneck distance
# ---------------------------------------------------------------------------

def _pair_cost(x, y):
    """l-infinity distance between two diagram points.  Matching equal
    infinities is free; matching an infinite coordinate to a finite one
    costs +inf."""
    db = abs(x[0] - y[0]) if (x[0].is_finite or y[0].is_finite) else ext(0)
    dd = abs(x[1] - y[1]) if (x[1].is_finite or y[1].is_finite) else ext(0)
    return max(db, dd)


def _half(x):
    d = x[1] - x[0]
    if d.is_finite:
        return ExtendedRational.of(d.value / 2)
    return d


def _augment(adj, match, root):
    """Kuhn's step: look for an augmenting path from the unmatched left node
    root, depth first on a stack of (left node, its untried neighbours),
    and flip it into match (right node -> its left node)."""
    seen, stack, via = set(), [(root, iter(adj[root]))], []
    while stack:
        for v in stack[-1][1]:
            if v not in seen:
                break
        else:
            stack.pop()
            del via[-1:]
            continue
        seen.add(v)
        if v not in match:
            for (u, _), x in zip(stack, via + [v]):
                match[x] = u
            return True
        via.append(v)
        stack.append((match[v], iter(adj[match[v]])))
    return False


def _covers(adj):
    """Does a matching cover every left node of adj (left -> right nodes)?
    Each node first takes a free neighbour if it has one, then the rest
    search augmenting paths."""
    match, rest = {}, []
    for u, nbrs in adj.items():
        v = next((v for v in nbrs if v not in match), None)
        if v is None:
            rest.append(u)
        else:
            match[v] = u
    return all(_augment(adj, match, u) for u in rest)


def matchable(cost, left_half, right_half, level):
    """Is there a matching with deletions at level?  Left point i may match
    right point j if cost[i][j] <= level, and a point may stay unmatched if
    its half-life is <= level; a cost or half-life that no level may meet
    is given as one above every level probed.  Such a matching exists iff,
    on each side, one covers the points that may not stay unmatched
    (Mendelsohn-Dulmage).  Only those points are ever matched on their own
    side, so only their edges are read.  The caller computes the costs
    once, so a probe only compares.
    """
    adj = {i: [j for j, c in enumerate(cost[i]) if c <= level]
           for i, h in enumerate(left_half) if h > level}
    back = {j: [i for i, row in enumerate(cost) if row[j] <= level]
            for j, h in enumerate(right_half) if h > level}
    return _covers(adj) and _covers(back)


def bottleneck(d1, d2):
    """Bottleneck distance: least threshold at which a full multibijection
    with deletions exists.  The candidate thresholds are the pairwise costs
    and the half-lives, computed once; each probe compares their ranks
    among the candidates.  Attainment at a candidate is a verified property,
    not an assumption."""
    left, right = d1.expanded(), d2.expanded()
    costs = [[_pair_cost(x, y) for y in right] for x in left]
    halves = [[_half(x) for x in left], [_half(y) for y in right]]
    finite = sorted({ext(0)}.union(c for row in costs + halves for c in row if c.is_finite))
    index = {c: k for k, c in enumerate(finite)}      # +inf ranks above all
    cost, (left_half, right_half) = ([[index.get(c, len(finite)) for c in row] for row in rows]
                                     for rows in (costs, halves))
    k = least_feasible(list(range(len(finite))), lambda k: (
        k if matchable(cost, left_half, right_half, k) else None))
    return INF if k is None else finite[k]


def bottleneck_bruteforce(d1, d2, max_points=6):
    """Exact minimum over all multibijections, by enumerating every partial
    matching between the expanded point lists.  Oracle-scale only."""
    left, right = d1.expanded(), d2.expanded()
    if len(left) > max_points or len(right) > max_points:
        raise ValueError(f"brute-force guard: > {max_points} points per side")
    nl, nr = len(left), len(right)
    best = INF

    def cost_of(pairs):
        used_l, used_r = {i for i, _ in pairs}, {j for _, j in pairs}
        return max([ext(0), *(_pair_cost(left[i], right[j]) for i, j in pairs),
                    *(_half(x) for i, x in enumerate(left) if i not in used_l),
                    *(_half(y) for j, y in enumerate(right) if j not in used_r)])

    indices_r = list(range(nr))
    for k in range(0, min(nl, nr) + 1):
        for subset_l in itertools.combinations(range(nl), k):
            for subset_r in itertools.permutations(indices_r, k):
                c = cost_of(list(zip(subset_l, subset_r)))
                if c < best:
                    best = c
    return best

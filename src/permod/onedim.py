"""One-parameter structure theory: persistence diagrams via the rank
multiplicity formula, interval-sum presentations, and the bottleneck distance
by multibijection matching with an exhaustive oracle.

Diagram coordinates are extended rationals; a finitely presented module has
finite births and finite-or-+inf deaths.
"""

import itertools

from .exactnum import (INF, NEG_INF, ExtendedRational, ext, least_feasible,
                       parse_extended)
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
    for ln in text.splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        b, d, m = ln.split()
        pts.append((parse_extended(b), parse_extended(d), int(m)))
    return PersistenceDiagram(pts)


def diagram_of(p):
    """Persistence diagram of a finitely presented 1-parameter module.

    Multiplicities come from the inclusion-exclusion rank formula evaluated on
    the grid of critical values, augmented below the minimum; ranks are
    constant past the largest critical value, so the +inf column is read off
    at the grid maximum.
    """
    if p.n != 1:
        raise PresentationError("diagram requires a 1-parameter module")
    pm = p.minimize()
    crit = sorted({g[0] for _, g in pm.generators} | {g[0] for _, g, _ in pm.relations})
    if not crit:
        return PersistenceDiagram([])
    grid = [crit[0] - 1] + crit
    k = len(grid)
    rank = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rank[i][j] = pm.transition_rank((grid[i],), (grid[j],))
    pts = []
    last = k - 1
    for i in range(1, k):
        for j in range(i + 1, k):
            mult = (rank[i][j - 1] - rank[i][j]) - (rank[i - 1][j - 1] - rank[i - 1][j])
            if mult < 0:
                raise AssertionError("negative multiplicity; module not well formed")
            if mult:
                pts.append((ext(grid[i]), ext(grid[j]), mult))
        mult_inf = rank[i][last] - rank[i - 1][last]
        if mult_inf < 0:
            raise AssertionError("negative multiplicity at infinity")
        if mult_inf:
            pts.append((ext(grid[i]), INF, mult_inf))
    return PersistenceDiagram(pts)


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


def _feasible(left, right, eps):
    """Perfect matching with per-point deletion slack at threshold eps.

    Point i on the left may match j on the right if their cost is <= eps, or
    be deleted if its half-life is <= eps; same on the right.  Augmenting-path
    bipartite matching on the standard doubled graph.  Returns eps if it
    exists, else None (the certificate `least_feasible` reads).
    """
    nl, nr = len(left), len(right)
    size = nl + nr            # right side gets nr real + nl slack nodes
    adj = [[] for _ in range(size)]   # left side: nl real + nr slack nodes
    for i, x in enumerate(left):
        for j, y in enumerate(right):
            if _pair_cost(x, y) <= eps:
                adj[i].append(j)
        if _half(x) <= eps:
            adj[i].append(nr + i)
    for j, y in enumerate(right):
        li = nl + j
        if _half(y) <= eps:
            adj[li].append(j)
        for i in range(nl):
            adj[li].append(nr + i)   # slack-slack edges are free
    match_r = [-1] * size

    def augment(root, seen):
        # depth first on a stack of (left node, its untried neighbours)
        stack, via = [(root, iter(adj[root]))], []
        while stack:
            v = next((v for v in stack[-1][1] if not seen[v]), None)
            if v is None:
                stack.pop()
                del via[-1:]
                continue
            seen[v] = True
            if match_r[v] == -1:
                for (u, _), x in zip(stack, via + [v]):
                    match_r[x] = u
                return True
            via.append(v)
            stack.append((match_r[v], iter(adj[match_r[v]])))
        return False

    matched = 0
    for u in range(size):
        if augment(u, [False] * size):
            matched += 1
    return eps if matched == size else None


def bottleneck(d1, d2):
    """Bottleneck distance: least threshold at which a full multibijection
    with deletions exists.  The candidate thresholds are the pairwise costs
    and the half-lives; attainment at one of them is a verified property, not
    an assumption."""
    left, right = d1.expanded(), d2.expanded()
    if not left and not right:
        return ext(0)
    cands = {ext(0)}
    for x in left:
        for y in right:
            cands.add(_pair_cost(x, y))
    for x in left:
        cands.add(_half(x))
    for y in right:
        cands.add(_half(y))
    finite = sorted(c for c in cands if c.is_finite)
    best = least_feasible(finite, lambda eps: _feasible(left, right, eps))
    return best if best is not None else INF


def bottleneck_bruteforce(d1, d2, max_points=6):
    """Exact minimum over all multibijections, by enumerating every partial
    matching between the expanded point lists.  Oracle-scale only."""
    left, right = d1.expanded(), d2.expanded()
    if len(left) > max_points or len(right) > max_points:
        raise ValueError(f"brute-force guard: > {max_points} points per side")
    nl, nr = len(left), len(right)
    best = INF

    def cost_of(pairs):
        worst = ext(0)
        used_l = set()
        used_r = set()
        for i, j in pairs:
            used_l.add(i)
            used_r.add(j)
            worst = max(worst, _pair_cost(left[i], right[j]))
        for i in range(nl):
            if i not in used_l:
                worst = max(worst, _half(left[i]))
        for j in range(nr):
            if j not in used_r:
                worst = max(worst, _half(right[j]))
        return worst

    indices_r = list(range(nr))
    for k in range(0, min(nl, nr) + 1):
        for subset_l in itertools.combinations(range(nl), k):
            for subset_r in itertools.permutations(indices_r, k):
                c = cost_of(list(zip(subset_l, subset_r)))
                if c < best:
                    best = c
    return best

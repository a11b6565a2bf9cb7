"""Two `onedim` functions as they were before they shared `bars` and
`matchable`: the persistence diagram by the rank multiplicity formula (a
k x k table of `transition_rank` on the critical values of the minimized
presentation, augmented below the minimum), and the bottleneck distance
whose every probe recomputes the pair costs and half-lives and matches on
the doubled graph with per-point deletion slack."""

from permod.exactnum import INF, ext, least_feasible
from permod.onedim import PersistenceDiagram, _half, _pair_cost
from permod.presentation import PresentationError


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

"""Reference copies of the grid-module code that the single construction
path in ``permod.homology`` replaced, with the clustering of
``permod.infer`` on Fraction comparisons.  Kept as they were, apart from the
grid-module class name, as oracles: the rewritten code must give
byte-identical grid-module text, composite matrices, ranks and rank-shift
values.  The dense linear algebra they ran on is in reference_linalg.py.
Presentation modules read each point's basis and transitions off the
`ColumnSpan` quotient of `Presentation` before `linalg.quotient_basis`
replaced it, as dense rows.  The end of the file keeps the sparse,
tuple-indexed grid-module code that packed composites replaced, and after
it the `ColumnSpan` basis tracker that the packed per-point bases replaced.
"""

import bisect
import itertools
from fractions import Fraction

from permod.exactnum import (INF, common_denominator, ext, format_rational,
                             least_feasible, scaled_int)
from permod.filtration import FiltrationError, fixed_scale_slice
from permod.homology import (GradedChainComplex, HomologyError,
                             build_grid_module, chain_complex_of)
from permod.linalg import ColumnSpan as SparseSpan, mat_mul as sparse_mat_mul
from permod.linalg import nullspace as sparse_nullspace, rank as sparse_rank
from reference_homology import ColumnSpan, boundary
from reference_linalg import identity, mat_mul, nullspace, rank as mat_rank, rows_of
from reference_presentation import active


class RefGridModule:
    """A persistence module restricted to a finite grid: per-point dimensions
    and transition matrices between adjacent grid points.  Squares commute."""

    def __init__(self, field, axes, dims, trans, check=True):
        self.field = field
        self.axes = [list(a) for a in axes]
        self.dims = dict(dims)
        self.trans = dict(trans)
        for (idx, axis), m in self.trans.items():
            nxt = tuple(k + 1 if a == axis else k for a, k in enumerate(idx))
            if len(m) != self.dims[nxt] or \
                    any(len(row) != self.dims[idx] for row in m):
                raise HomologyError(f"transition at {idx} axis {axis} has the "
                                    f"wrong shape")
        if check:
            self.check_squares()

    @property
    def nparams(self):
        return len(self.axes)

    def shape(self):
        return tuple(len(a) for a in self.axes)

    def indices(self):
        return itertools.product(*(range(len(a)) for a in self.axes))

    def value(self, idx):
        return tuple(self.axes[i][k] for i, k in enumerate(idx))

    def step(self, idx, axis):
        return self.trans[(idx, axis)]

    def check_squares(self):
        f = self.field
        shape = self.shape()
        for idx in self.indices():
            for a1 in range(len(shape)):
                for a2 in range(a1 + 1, len(shape)):
                    if idx[a1] + 1 >= shape[a1] or idx[a2] + 1 >= shape[a2]:
                        continue
                    idx_a = tuple(k + 1 if i == a1 else k for i, k in enumerate(idx))
                    idx_b = tuple(k + 1 if i == a2 else k for i, k in enumerate(idx))
                    p1 = mat_mul(f, self.step(idx_a, a2), self.step(idx, a1),
                                 self.dims[idx])
                    p2 = mat_mul(f, self.step(idx_b, a1), self.step(idx, a2),
                                 self.dims[idx])
                    if p1 != p2:
                        raise HomologyError(f"grid square at {idx} does not commute")

    def matrix_between(self, i1, i2, _memo=None):
        """Composite transition matrix from grid index i1 to i2 (i1 <= i2)."""
        f = self.field
        if _memo is None:
            _memo = self._memo = getattr(self, "_memo", {})
        key = (i1, i2)
        if key in _memo:
            return _memo[key]
        if i1 == i2:
            out = identity(f, self.dims[i1])
        else:
            axis = next(a for a in range(self.nparams) if i1[a] < i2[a])
            mid = tuple(k + 1 if a == axis else k for a, k in enumerate(i1))
            out = mat_mul(f, self.matrix_between(mid, i2, _memo), self.step(i1, axis),
                          self.dims[i1])
        _memo[key] = out
        return out

    def rank_between(self, i1, i2):
        if any(a > b for a, b in zip(i1, i2)):
            raise HomologyError("rank requires i1 <= i2")
        memo = self._rank_memo = getattr(self, "_rank_memo", {})
        key = (i1, i2)
        if key not in memo:
            memo[key] = mat_rank(self.field, self.matrix_between(i1, i2))
        return memo[key]

    def to_text(self):
        lines = ["GRIDMODULE", f"field {self.field.spec}", f"axes {self.nparams}"]
        for i, ax in enumerate(self.axes):
            lines.append(f"axis {i} : " + " ".join(format_rational(v) for v in ax))
        for idx in self.indices():
            lines.append("dim " + " ".join(str(k) for k in idx) +
                         f" = {self.dims[idx]}")
        for idx in self.indices():
            for a in range(self.nparams):
                if idx[a] + 1 >= len(self.axes[a]):
                    continue
                m = self.step(idx, a)
                body = " ; ".join(" ".join(self._fmt(x) for x in row) for row in m)
                lines.append("trans " + " ".join(str(k) for k in idx) +
                             f" axis {a} : {body}")
        lines.append("END")
        return "\n".join(lines) + "\n"

    def _fmt(self, x):
        return format_rational(x) if not isinstance(x, int) else str(x)



def quotient_basis(p, a):
    """Indices of the generators of p active at a forming an echelon basis
    of M_a, plus the ColumnSpan of the active relations (rows: generators).
    Grades are compared as rationals."""
    def active(grade):
        return all(x <= y for x, y in zip(grade, a))

    gens = [j for j, (_, g) in enumerate(p.generators) if active(g)]
    span = SparseSpan(p.field, len(p.generators))
    for _, g, coeffs in p.relations:
        if active(g):
            span.insert(coeffs)
    pivots = set(span.pivots)
    return [j for j in gens if j not in pivots], span


def quotient_map(p, quotient_a, quotient_b):
    """The map M_a -> M_b between two `quotient_basis` results, as one
    sparse column per a-basis vector over the b-basis."""
    (basis_b, span_b), one = quotient_b, p.field.one
    basis_rows = {j: i for i, j in enumerate(basis_b)}
    # the residue is zero at every pivot row, so its entries sit on basis
    # rows and are the quotient coordinates
    return [{basis_rows[r]: x for r, x in span_b.residue({j: one}).items()}
            for j in quotient_a[0]]


def grid_module_of_presentation(p, axes, check=True):
    if len(axes) != p.n:
        raise HomologyError("axes count must equal the parameter count")
    dims = {}
    trans = {}
    bases = {}
    shape = tuple(len(a) for a in axes)
    for idx in itertools.product(*(range(s) for s in shape)):
        z = tuple(axes[i][k] for i, k in enumerate(idx))
        bases[idx] = quotient_basis(p, z)
        dims[idx] = len(bases[idx][0])
    for idx in itertools.product(*(range(s) for s in shape)):
        for a in range(p.n):
            if idx[a] + 1 >= shape[a]:
                continue
            nxt = tuple(k + 1 if i == a else k for i, k in enumerate(idx))
            trans[(idx, a)] = rows_of(p.field, quotient_map(p, bases[idx], bases[nxt]),
                                      dims[nxt])
    return RefGridModule(p.field, axes, dims, trans, check)


class _HomologyBasisTracker:
    """Per-grid-point homology bases of a chain complex with expression
    machinery for transitions.  Representative cycles live in global chain
    coordinates of their degree."""

    def __init__(self, chain, degree):
        self.chain = chain
        self.degree = degree
        self.f = chain.field
        self.nd = len(chain.simplices(degree))

    def _cycles_at(self, z):
        f = self.f
        act = active(self.chain, self.degree, self.chain.floor(z))
        if not act:
            return []
        bd = boundary(self.chain, self.degree)
        if bd and len(bd) > 0:
            sub = [[bd[i][j] for j in act] for i in range(len(bd))]
            core = nullspace(f, sub)
        else:
            core = [[f.one if t == s else f.zero for t in range(len(act))]
                    for s in range(len(act))]
        out = []
        for v in core:
            vec = [f.zero] * self.nd
            for t, j in enumerate(act):
                vec[j] = v[t]
            out.append(vec)
        return out

    def _boundaries_at(self, z):
        f = self.f
        act_up = active(self.chain, self.degree + 1, self.chain.floor(z))
        bu = boundary(self.chain, self.degree + 1)
        cols = []
        for j in act_up:
            cols.append([bu[i][j] for i in range(self.nd)] if bu else
                        [f.zero] * self.nd)
        return cols

    def basis_at(self, z):
        """(representative cycle vectors, ColumnSpan loaded with boundaries
        then representatives).  Only independent vectors become span members,
        so member positions line up with [boundaries..., reps...]."""
        span = ColumnSpan(self.f, self.nd)
        n_bound = 0
        for b in self._boundaries_at(z):
            if not span.contains(b):
                span.insert(b)
                n_bound += 1
        reps = []
        for v in self._cycles_at(z):
            if not span.contains(v):
                span.insert(v)
                reps.append(v)
        return reps, span, n_bound

    def express(self, vec, span, n_bound, n_reps):
        coords = span.coords(vec)
        if coords is None:
            raise HomologyError("cycle escapes the target homology space")
        return coords[n_bound:n_bound + n_reps]


def grid_module_of_chain(complex_, degree, axes, field):
    chain = complex_ if isinstance(complex_, GradedChainComplex) \
        else chain_complex_of(complex_, field)
    if len(axes) != chain.nparams:
        raise HomologyError("axes count must equal the parameter count")
    tracker = _HomologyBasisTracker(chain, degree)
    shape = tuple(len(a) for a in axes)
    cache = {}
    for idx in itertools.product(*(range(s) for s in shape)):
        z = tuple(axes[i][k] for i, k in enumerate(idx))
        cache[idx] = tracker.basis_at(z)
    dims = {idx: len(cache[idx][0]) for idx in cache}
    trans = {}
    f = chain.field
    for idx in cache:
        reps, _, _ = cache[idx]
        for a in range(chain.nparams):
            if idx[a] + 1 >= shape[a]:
                continue
            nxt = tuple(k + 1 if i == a else k for i, k in enumerate(idx))
            reps2, span2, nb2 = cache[nxt]
            cols = [tracker.express(v, span2, nb2, len(reps2)) for v in reps]
            trans[(idx, a)] = [[cols[c][r] for c in range(len(reps))]
                               for r in range(len(reps2))]
    return RefGridModule(f, axes, dims, trans)



def image_grid_module(complex_, degree, delta1, delta2, axes, field):
    """Image of H_degree(slice delta1) -> H_degree(slice delta2) as a grid
    module over the function axes."""
    delta1, delta2 = Fraction(delta1), Fraction(delta2)
    if delta1 > delta2:
        raise HomologyError("delta1 must be <= delta2")
    s1 = fixed_scale_slice(complex_, delta1)
    s2 = fixed_scale_slice(complex_, delta2)
    c1 = chain_complex_of(s1, field)
    c2 = chain_complex_of(s2, field)
    t1 = _HomologyBasisTracker(c1, degree)
    t2 = _HomologyBasisTracker(c2, degree)
    pos2 = {verts: i for i, (verts, _) in enumerate(c2.simplices(degree))}
    f = field

    def embed(vec1):
        out = [f.zero] * t2.nd
        for i, (verts, _) in enumerate(c1.simplices(degree)):
            if vec1[i] != f.zero:
                out[pos2[verts]] = vec1[i]
        return out

    shape = tuple(len(a) for a in axes)
    cache = {}
    for idx in itertools.product(*(range(s) for s in shape)):
        z = tuple(axes[i][k] for i, k in enumerate(idx))
        span = ColumnSpan(f, t2.nd)
        nb = 0
        for b in t2._boundaries_at(z):
            if not span.contains(b):
                span.insert(b)
                nb += 1
        reps = []
        for v in t1._cycles_at(z):
            emb = embed(v)
            if not span.contains(emb):
                span.insert(emb)
                reps.append(emb)
        cache[idx] = (reps, span, nb)
    dims = {idx: len(cache[idx][0]) for idx in cache}
    trans = {}
    for idx in cache:
        reps, _, _ = cache[idx]
        for a in range(len(axes)):
            if idx[a] + 1 >= shape[a]:
                continue
            nxt = tuple(k + 1 if i == a else k for i, k in enumerate(idx))
            reps2, span2, nb2 = cache[nxt]
            cols = [t2.express(v, span2, nb2, len(reps2)) for v in reps]
            trans[(idx, a)] = [[cols[c][r] for c in range(len(reps))]
                               for r in range(len(reps2))]
    return RefGridModule(f, axes, dims, trans)



def resample(gm, new_axes):
    """Restrict/refine a grid module to new axes by flooring each value to
    the largest original axis value <= it; values below the axis minimum get
    the zero space.  Valid when the original axes contain all critical
    values and the module vanishes below them."""
    if len(new_axes) != gm.nparams:
        raise HomologyError("axis count mismatch")

    def floor_idx(axis_vals, v):
        lo = None
        for i, x in enumerate(axis_vals):
            if x <= v:
                lo = i
        return lo

    maps = [[floor_idx(gm.axes[a], v) for v in new_axes[a]]
            for a in range(gm.nparams)]
    f = gm.field
    dims = {}
    trans = {}
    shape = tuple(len(a) for a in new_axes)
    for idx in itertools.product(*(range(s) for s in shape)):
        src = tuple(maps[a][k] for a, k in enumerate(idx))
        dims[idx] = 0 if any(s is None for s in src) else gm.dims[src]
    for idx in itertools.product(*(range(s) for s in shape)):
        src = tuple(maps[a][k] for a, k in enumerate(idx))
        for a in range(gm.nparams):
            if idx[a] + 1 >= shape[a]:
                continue
            nxt = tuple(k + 1 if i == a else k for i, k in enumerate(idx))
            dst = tuple(maps[i][k] for i, k in enumerate(nxt))
            if any(s is None for s in src):
                trans[(idx, a)] = [[f.zero] * 0 for _ in range(dims[nxt])]
            else:
                trans[(idx, a)] = gm.matrix_between(src, dst)
    return RefGridModule(f, new_axes, dims, trans)


def rank_shift_distance(gm, gn):
    """Least grid-representable eps such that each module's (a-eps -> b+eps)
    ranks are dominated by the other's (a -> b) ranks, both ways round.

    A computable lower-bound proxy for the interleaving distance, never
    reported as it.  Shifted endpoints are snapped outward to grid values;
    pairs whose shifted endpoints leave the grid are clipped away entirely
    (an interleaving says nothing checkable about them on this grid, and
    keeping them clamped would break the lower-bound property)."""
    if gm.nparams != gn.nparams:
        raise HomologyError("incompatible axis dimensions")
    union_axes = [sorted(set(gm.axes[a]) | set(gn.axes[a]))
                  for a in range(gm.nparams)]
    rm = resample(gm, union_axes)
    rn = resample(gn, union_axes)
    npar = len(union_axes)
    shape = tuple(len(a) for a in union_axes)

    cands = {Fraction(0)}
    for ax in union_axes:
        for x in ax:
            for y in ax:
                if y > x:
                    cands.add(y - x)
    cands = sorted(cands)

    idx_pairs = []
    for i1 in itertools.product(*(range(s) for s in shape)):
        for i2 in itertools.product(*(range(i1[a], s) for a, s in enumerate(shape))):
            idx_pairs.append((i1, i2))

    def snap_down(a, v):
        ax = union_axes[a]
        lo = None
        for i, x in enumerate(ax):
            if x <= v:
                lo = i
        return lo

    def snap_up(a, v):
        ax = union_axes[a]
        for i in range(len(ax)):
            if ax[i] >= v:
                return i
        return None

    def feasible(eps):
        for i1, i2 in idx_pairs:
            lo = tuple(snap_down(a, union_axes[a][i1[a]] - eps) for a in range(npar))
            hi = tuple(snap_up(a, union_axes[a][i2[a]] + eps) for a in range(npar))
            if any(v is None for v in lo) or any(v is None for v in hi):
                continue
            if rm.rank_between(lo, hi) > rn.rank_between(i1, i2):
                return False
            if rn.rank_between(lo, hi) > rm.rank_between(i1, i2):
                return False
        return True

    lo_i, hi_i = 0, len(cands) - 1
    best = None
    while lo_i <= hi_i:
        mid = (lo_i + hi_i) // 2
        if feasible(cands[mid]):
            best = cands[mid]
            hi_i = mid - 1
        else:
            lo_i = mid + 1
    return ext(best) if best is not None else INF


def _clusters(pts, a, b, gap_rule):
    """Sorted positions -> list of (first_index, last_index) cluster ranges
    over the subset of source points with weight <= a."""
    active = [i for i, (_, w) in enumerate(pts) if w <= a]
    if not active:
        return []
    if gap_rule == "cech":
        ranges = []
        start = active[0]
        prev = active[0]
        for i in active[1:]:
            if pts[i][0] - pts[prev][0] <= 2 * b:
                prev = i
            else:
                ranges.append((start, prev))
                start = prev = i
        ranges.append((start, prev))
        return ranges
    # offset semantics: activate every grid point within b of an active
    # source point, then take runs of consecutive active grid points
    on = [False] * len(pts)
    positions = [x for x, _ in pts]
    for i in active:
        x = pts[i][0]
        j = i
        while j >= 0 and x - positions[j] <= b:
            on[j] = True
            j -= 1
        j = i
        while j < len(pts) and positions[j] - x <= b:
            on[j] = True
            j += 1
    ranges = []
    start = None
    for i, flag in enumerate(on):
        if flag and start is None:
            start = i
        if not flag and start is not None:
            ranges.append((start, i - 1))
            start = None
    if start is not None:
        ranges.append((start, len(pts) - 1))
    return ranges


def _cluster_grid_module(field, pts, a_axis, b_axis, gap_rule):
    a_axis = sorted(Fraction(a) for a in a_axis)
    b_axis = sorted(Fraction(b) for b in b_axis)
    shape = (len(a_axis), len(b_axis))
    clusters = {}
    for ia, a in enumerate(a_axis):
        for ib, b in enumerate(b_axis):
            clusters[(ia, ib)] = _clusters(pts, a, b, gap_rule)
    dims = {idx: len(cl) for idx, cl in clusters.items()}

    def containment(small, big):
        """0/1 matrix sending each cluster of `small` into the cluster of
        `big` containing it."""
        m = [[field.zero] * len(small) for _ in range(len(big))]
        for c, (lo, hi) in enumerate(small):
            home = None
            for r, (lo2, hi2) in enumerate(big):
                if lo2 <= lo and hi <= hi2:
                    home = r
                    break
            if home is None:
                raise FiltrationError("cluster refinement is not nested")
            m[home][c] = field.one
        return m

    trans = {}
    for (ia, ib), cl in clusters.items():
        if ia + 1 < shape[0]:
            trans[((ia, ib), 0)] = containment(cl, clusters[(ia + 1, ib)])
        if ib + 1 < shape[1]:
            trans[((ia, ib), 1)] = containment(cl, clusters[(ia, ib + 1)])
    return RefGridModule(field, [a_axis, b_axis], dims, trans)


# ---------------------------------------------------------------------------
# Grid modules on unpacked {row: coeff} columns with tuple grid indices, and
# cluster modules sorted by Fraction pairs: the code that packed composites,
# flat grid indices and the unclipped probe box replaced, kept as it was
# (but for the names) as an oracle for composites, ranks and rank-shift
# values.  Modules are built by the library and wrapped.
# ---------------------------------------------------------------------------

def _succ(idx, axis):
    return idx[:axis] + (idx[axis] + 1,) + idx[axis + 1:]


def _floor_index(axis, v):
    i = bisect.bisect_right(axis, v) - 1
    return i if i >= 0 else None


def _ceil_index(axis, v):
    i = bisect.bisect_left(axis, v)
    return i if i < len(axis) else None


class TupleWalkModule:
    """A library grid module's dimensions and transitions, with the
    composite walk and rank cache of the unpacked code."""

    def __init__(self, gm):
        self.gm = gm
        self.field, self.axes, self.dims = gm.field, gm.axes, gm.dims
        self.nparams = gm.nparams
        self._matrices = {}
        self._ranks = {}

    def step(self, idx, axis):
        return self.gm.step(idx, axis)

    def matrix_between(self, i1, i2):
        if i1 == i2 and (i1, i2) not in self._matrices:
            self._matrices[(i1, i2)] = [{i: self.field.one}
                                        for i in range(self.dims[i1])]
        path, cur = [], i1
        while (cur, i2) not in self._matrices and cur != i2:
            axis = min((a for a in range(self.nparams) if cur[a] < i2[a]),
                       key=lambda a: self.dims[_succ(cur, a)])
            path.append((cur, axis))
            cur = _succ(cur, axis)
        out = None if cur == i2 else self._matrices[(cur, i2)]
        for idx, axis in reversed(path):
            out = self.step(idx, axis) if out is None else \
                sparse_mat_mul(self.field, out, self.step(idx, axis))
            self._matrices[(idx, i2)] = out
        return self._matrices[(i1, i2)]

    def rank_between(self, i1, i2):
        key = (i1, i2)
        if key not in self._ranks:
            if any(a > b for a, b in zip(i1, i2)):
                raise HomologyError("rank requires i1 <= i2")
            self._ranks[key] = sparse_rank(self.field, self.matrix_between(i1, i2))
        return self._ranks[key]


def tuple_walk_resample(gm, new_axes):
    """resample of a TupleWalkModule, whose composites feed the result."""
    if len(new_axes) != gm.nparams:
        raise HomologyError("axis count mismatch")
    if [list(a) for a in new_axes] == gm.axes:
        return gm

    def source(z):
        src = tuple(_floor_index(ax, v) for ax, v in zip(gm.axes, z))
        return None if None in src else src

    def dim(src):
        return 0 if src is None else gm.dims[src]

    def transition(src, dst):
        return [] if src is None else gm.matrix_between(src, dst)

    return TupleWalkModule(build_grid_module(gm.field, new_axes, source, dim,
                                             transition))


def tuple_walk_rank_shift_distance(gm, gn):
    """rank_shift_distance over every index pair, each probe skipping the
    clipped ones; gm and gn are TupleWalkModules."""
    if gm.nparams != gn.nparams:
        raise HomologyError("incompatible axis dimensions")
    union_axes = [sorted(set(gm.axes[a]) | set(gn.axes[a]))
                  for a in range(gm.nparams)]
    rm = tuple_walk_resample(gm, union_axes)
    rn = tuple_walk_resample(gn, union_axes)
    shape = tuple(len(a) for a in union_axes)

    cands = {Fraction(0)}
    for ax in union_axes:
        for x in ax:
            for y in ax:
                if y > x:
                    cands.add(y - x)
    cands = sorted(cands)

    grid = list(itertools.product(*(range(s) for s in shape)))
    idx_pairs = []
    for i1 in grid:
        for i2 in itertools.product(*(range(i1[a], s) for a, s in enumerate(shape))):
            idx_pairs.append((i1, i2))

    def feasible(eps):
        down = [[_floor_index(ax, x - eps) for x in ax] for ax in union_axes]
        up = [[_ceil_index(ax, x + eps) for x in ax] for ax in union_axes]
        lo_of = {i: tuple(d[k] for d, k in zip(down, i)) for i in grid}
        hi_of = {i: tuple(u[k] for u, k in zip(up, i)) for i in grid}
        for i1, i2 in idx_pairs:
            lo, hi = lo_of[i1], hi_of[i2]
            if None in lo or None in hi:
                continue
            if rm.rank_between(lo, hi) > rn.rank_between(i1, i2):
                return None
            if rn.rank_between(lo, hi) > rm.rank_between(i1, i2):
                return None
        return eps

    best = least_feasible(cands, feasible)
    return ext(best) if best is not None else INF


def fraction_cech_cluster_module(field, weighted_points, a_axis, b_axis):
    pts = sorted((Fraction(x), Fraction(w)) for x, w in weighted_points)
    return _fraction_cluster_grid_module(field, pts, a_axis, b_axis, "cech")


def fraction_offset_cluster_module(field, grid_points, weights, a_axis, b_axis):
    pairs = sorted(zip((Fraction(y) for y in grid_points),
                       (Fraction(w) for w in weights)))
    return _fraction_cluster_grid_module(field, pairs, a_axis, b_axis, "offset")


def _scaled_clusters(pts, a, b, gap_rule):
    active = [i for i, (_, w) in enumerate(pts) if w <= a]
    if gap_rule == "cech":
        return _joined_runs(active, [pts[q][0] - pts[p][0] <= 2 * b
                                     for p, q in zip(active, active[1:])])
    on = [False] * len(pts)
    positions = [x for x, _ in pts]
    for i in active:
        x = pts[i][0]
        j = i
        while j >= 0 and x - positions[j] <= b:
            on[j] = True
            j -= 1
        j = i
        while j < len(pts) and positions[j] - x <= b:
            on[j] = True
            j += 1
    on = [i for i, flag in enumerate(on) if flag]
    return _joined_runs(on, [q == p + 1 for p, q in zip(on, on[1:])])


def _joined_runs(idx, joins):
    ranges = []
    for i, join in zip(idx, [False] + joins):
        if join:
            ranges[-1] = (ranges[-1][0], i)
        else:
            ranges.append((i, i))
    return ranges


def _fraction_cluster_grid_module(field, pts, a_axis, b_axis, gap_rule):
    a_axis = sorted(Fraction(a) for a in a_axis)
    b_axis = sorted(Fraction(b) for b in b_axis)
    w_scale = common_denominator(a_axis + [w for _, w in pts])
    x_scale = common_denominator(b_axis + [x for x, _ in pts])
    int_pts = [(scaled_int(x, x_scale), scaled_int(w, w_scale)) for x, w in pts]

    def clusters(z):
        return _scaled_clusters(int_pts, scaled_int(z[0], w_scale),
                                scaled_int(z[1], x_scale), gap_rule)

    def containment(small, big):
        cols = []
        home = 0
        for lo, hi in small:
            while home < len(big) and big[home][1] < lo:
                home += 1
            if home == len(big) or not (big[home][0] <= lo and hi <= big[home][1]):
                raise FiltrationError("cluster refinement is not nested")
            cols.append({home: field.one})
        return cols

    return build_grid_module(field, [a_axis, b_axis], clusters, len, containment)


# ---------------------------------------------------------------------------
# Chain and image grid modules on `linalg.ColumnSpan`, with unpacked cycles
# from `linalg.nullspace`: the code that the packed per-point bases
# (`homology._cycles_at`, `_homology_basis`) replaced, kept as it was (but
# for the names) as an oracle for grid-module text where the dense modules
# above are too slow.  Modules are built by the library's
# `build_grid_module`.
# ---------------------------------------------------------------------------

class SpanBasisTracker:
    """Per-grid-point homology bases of a chain complex.  Representative
    cycles are {simplex index: coeff} dicts over all simplices of their
    degree."""

    def __init__(self, chain, degree):
        self.chain = chain
        self.degree = degree
        self.f = chain.field
        self.nd = len(chain.simplices(degree))

    def _cycles_at(self, top):
        """The reduced-echelon basis of the d-cycles active at the grid
        index top, each a {simplex index: coeff} dict."""
        act = active(self.chain, self.degree, top)
        if not act:
            return []
        cols, unpack = self.chain.columns[self.degree], self.f.columns.unpack
        return [{act[t]: x for t, x in v.items()}
                for v in sparse_nullspace(self.f, [unpack(cols[j]) for j in act])]

    def basis_at(self, z, cycles=None):
        """(representative cycles, ColumnSpan loaded with boundaries then
        representatives, number of boundary members).  Representatives
        are picked from `cycles`, by default this complex's cycles at z.
        Only independent vectors become span members, so member positions
        line up with [boundaries..., reps...]."""
        top = self.chain.floor(z)
        span = SparseSpan(self.f, self.nd)
        n_bound = 0
        for j in active(self.chain, self.degree + 1, top):
            b = self.f.columns.unpack(self.chain.columns[self.degree + 1][j])
            if not span.contains(b):
                span.insert(b)
                n_bound += 1
        reps = []
        for v in self._cycles_at(top) if cycles is None else cycles:
            if not span.contains(v):
                span.insert(v)
                reps.append(v)
        return reps, span, n_bound


def _span_basis_dim(basis):
    return len(basis[0])


def _span_basis_transition(basis, basis_next):
    """Columns sending each representative of `basis` to its class in
    `basis_next` (both from SpanBasisTracker.basis_at): its coordinates
    over the representatives, which follow the nb2 boundary members."""
    _, span2, nb2 = basis_next
    cols = []
    for v in basis[0]:
        coords = span2.coords(v)
        if coords is None:
            raise HomologyError("cycle escapes the target homology space")
        cols.append({k - nb2: c for k, c in coords.items() if k >= nb2})
    return cols


def span_grid_module_of_chain(complex_, degree, axes, field):
    chain = complex_ if isinstance(complex_, GradedChainComplex) \
        else chain_complex_of(complex_, field)
    if len(axes) != chain.nparams:
        raise HomologyError("axes count must equal the parameter count")
    tracker = SpanBasisTracker(chain, degree)
    return build_grid_module(chain.field, axes, tracker.basis_at, _span_basis_dim,
                             _span_basis_transition)


def span_image_grid_module(complex_, degree, delta1, delta2, axes, field):
    """Image of H_degree(slice delta1) -> H_degree(slice delta2) as a grid
    module over the function axes."""
    delta1, delta2 = Fraction(delta1), Fraction(delta2)
    if delta1 > delta2:
        raise HomologyError("delta1 must be <= delta2")
    s1 = fixed_scale_slice(complex_, delta1)
    s2 = fixed_scale_slice(complex_, delta2)
    c1 = chain_complex_of(s1, field)
    c2 = chain_complex_of(s2, field)
    t1 = SpanBasisTracker(c1, degree)
    t2 = SpanBasisTracker(c2, degree)
    pos2 = {verts: i for i, (verts, _) in enumerate(c2.simplices(degree))}
    to2 = [pos2[verts] for verts, _ in c1.simplices(degree)]

    def basis_at(z):
        return t2.basis_at(z, [{to2[i]: x for i, x in v.items()}
                               for v in t1._cycles_at(c1.floor(z))])

    return build_grid_module(field, axes, basis_at, _span_basis_dim,
                             _span_basis_transition)

"""Reference copies of the homology-presentation code that the row sweep in
``permod.homology`` and the one-pass ``Presentation.minimize`` replaced:
the grid-point-by-grid-point kernel sweep, the rescanning minimization, the
dense per-point homology dimension, and the dense ``ColumnSpan`` they ran
on; and ``barcode_1d`` as it was before complexes ranked their grades once,
when it sorted Fraction grades itself (it reads a
``reference_filtration.ReferenceComplex``).  Kept as they were, as oracles:
the rewritten code must give byte-identical presentation and diagram text
and the same dimensions.  ``boundary`` is the dense boundary matrix that
``GradedChainComplex`` used to build; the library reads its sparse
boundary columns only.  The chain stores those in the field's column type
(int bitsets over Z/2), so the oracles here read each one through
``field.columns.unpack``.

`present_homology_sweep` is the row sweep as it was before presentations
took the chain's grid indices: it places each generator and relation at
its grade values, builds the `Presentation` from them, and validates,
minimizes and checks the Hilbert function through the reference copies in
``reference_presentation``, snapping each grid point's values onto the
chain's axes.


`present_homology_births` is the row sweep on grid indices as it was before
the kernel came from one growing reduction per grid column: it takes a
nullspace of all the columns active at each grid point where the kernel
dimension, read from the `active_ranks` table, exceeds the row span's
rank, on a chain complex of its own, and ranks the presentation's indices
as `Presentation.from_ranks` did then, through `grade_ranks`.

`present_homology_two_stage` is the sweep as it was before its relations
went to minimization packed: each boundary of a (d+1)-simplex unpacked
over the generator indices, one `Presentation.from_ranks` of them all,
then `minimize_two_stage`, the one-pass `Presentation.minimize` as it was
before its body became `presentation.minimal_presentation`.  It tests
that fusion, not the sweep, so unlike the oracles above it grows its
kernels by the library's `_column_growth` and checks the Hilbert function
by the library's tables, as it did then.

`barcode_1d_bars` is `barcode_1d` as it was before barcodes came from the
chain's `lows`: the creators from a reduction of the degree's boundary
columns, then `onedim.bars` of the (d+1)-boundaries restricted to the
creators' rows, unpacked and packed again; degree d's boundaries were
reduced again for the barcode of degree d - 1.

Every other oracle here reads active sets, row sweeps, rank tables, homology
dimensions, minimization and Hilbert tables from the copies in
``reference_presentation``, never from the library's bisecting walk.
"""

import bisect
import itertools
import operator

import reference_presentation
from permod.exactnum import INF, ext, grade_ranks
from permod.homology import (GradedChainComplex, HomologyError, _column_growth,
                             _grid_indices, chain_complex_of)
from permod.linalg import ColumnReducer
from permod.linalg import ColumnSpan as SparseSpan
from permod.linalg import nullspace as sparse_nullspace
from permod.onedim import PersistenceDiagram, bars
from permod.presentation import Presentation, grade_leq

from conftest import dense_relations
from reference_linalg import DictColumnReducer, nullspace, rank as mat_rank
from reference_presentation import active, active_ranks, homology_dims, row_sweep


def boundary(chain, d, cols=None):
    """Dense boundary matrix from degree d to d-1 (rows: (d-1)-simplices),
    on the given d-simplices (by default all of them)."""
    cols = range(len(chain.simplices(d))) if cols is None else cols
    out = [[chain.field.zero] * len(cols) for _ in chain.simplices(d - 1)]
    for t, j in enumerate(cols):
        for i, x in chain.field.columns.unpack(chain.columns[d][j]).items():
            out[i][t] = x
    return out


class ColumnSpan:
    """Echelon basis of a growing span of dense column vectors in
    field**dim, pivoting on the first nonzero row."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.cols = []        # echelon columns, each normalized at its pivot
        self.combos = []      # expression of each echelon column over inserted vectors
        self.pivots = []      # pivot row of each echelon column
        self.n_inserted = 0

    def _reduce(self, v):
        f = self.field
        v = list(v)
        combo = [f.zero] * self.n_inserted
        for col, comb, piv in zip(self.cols, self.combos, self.pivots):
            c = v[piv]
            if c == f.zero:
                continue
            for i in range(self.dim):
                if col[i] != f.zero:
                    v[i] = f.sub(v[i], f.mul(c, col[i]))
            for i in range(len(comb)):
                if comb[i] != f.zero:
                    combo[i] = f.sub(combo[i], f.mul(c, comb[i]))
        return v, combo

    def contains(self, v):
        res, _ = self._reduce(v)
        return all(x == self.field.zero for x in res)

    def coords(self, v):
        """Coefficients over inserted vectors expressing v, or None."""
        res, combo = self._reduce(v)
        if any(x != self.field.zero for x in res):
            return None
        return [self.field.neg(c) for c in combo]

    def insert(self, v):
        """Add v to the span.  Returns True if v was independent."""
        f = self.field
        res, combo = self._reduce(v)
        idx = self.n_inserted
        self.n_inserted += 1
        piv = next((i for i in range(self.dim) if res[i] != f.zero), None)
        for comb in self.combos:
            comb.append(f.zero)
        if piv is None:
            return False
        inv = f.inv(res[piv])
        col = [f.mul(inv, x) for x in res]
        comb = [f.mul(inv, x) for x in combo] + [f.zero]
        comb[idx] = inv
        self.cols.append(col)
        self.combos.append(comb)
        self.pivots.append(piv)
        return True

    @property
    def rank(self):
        return len(self.cols)


def homology_dim_at(chain, d, z):
    """dim H_d at grade z by independent per-point elimination."""
    f = chain.field
    act_d = active(chain, d, chain.floor(z))
    if not act_d:
        return 0
    bd = boundary(chain, d)
    sub = [[bd[i][j] for j in act_d] for i in range(len(bd))] if bd else []
    rank_d = mat_rank(f, sub) if sub else 0
    act_up = active(chain, d + 1, chain.floor(z))
    bu = boundary(chain, d + 1)
    rank_up = 0
    if act_up and bu:
        subu = [[bu[i][j] for j in act_up] for i in range(len(bu))]
        rank_up = mat_rank(f, subu)
    return len(act_d) - rank_d - rank_up


def minimize(p):
    """Minimal presentation with the canonical grade multisets.

    Step 1: repeatedly eliminate a generator carrying a unit coefficient
    in a relation of equal grade (Gaussian elimination of the pair).
    Step 2: in one pass, drop each relation lying in the span, at its
    grade, of the other not yet dropped relations of grade <= its grade.
    Ties are broken by grade lexicographic order, then input order, for
    determinism.
    """
    f = p.field
    gens = list(p.generators)
    rels = dense_relations(p)

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
    return Presentation(p.n, f, gens, rels)


def _cycles_at(chain, degree, z):
    f = chain.field
    nd = len(chain.simplices(degree))
    act = active(chain, degree, chain.floor(z))
    if not act:
        return []
    bd = boundary(chain, degree)
    if bd and len(bd) > 0:
        sub = [[bd[i][j] for j in act] for i in range(len(bd))]
        core = nullspace(f, sub)
    else:
        core = [[f.one if t == s else f.zero for t in range(len(act))]
                for s in range(len(act))]
    out = []
    for v in core:
        vec = [f.zero] * nd
        for t, j in enumerate(act):
            vec[j] = v[t]
        out.append(vec)
    return out


def present_homology(complex_, degree, field, check_hilbert=True):
    """Presentation of H_degree of a one-critical bifiltered complex with one
    or two parameters: kernel basis collected by a lexicographic grid sweep,
    then boundary columns expressed in that basis, then minimization."""
    chain = chain_complex_of(complex_, field)
    if chain.nparams not in (1, 2):
        raise HomologyError("presentation extraction supports 1 or 2 parameters")
    axes = chain.axes
    if any(not ax for ax in axes):
        return Presentation(chain.nparams, field, [], [])
    f = field
    nd = len(chain.simplices(degree))

    gens = []           # (vector, grade)
    gen_span_cache = {}

    for z in itertools.product(*axes):
        active = [i for i, (_, g) in enumerate(gens) if grade_leq(g, z)]
        span = ColumnSpan(f, nd)
        for i in active:
            span.insert(gens[i][0])
        for v in _cycles_at(chain, degree, z):
            if span.insert(v):
                gens.append((v, z))
                active.append(len(gens) - 1)

    def gen_span_at(z):
        if z not in gen_span_cache:
            span = ColumnSpan(f, nd)
            idxs = []
            for i, (v, g) in enumerate(gens):
                if grade_leq(g, z):
                    span.insert(v)
                    idxs.append(i)
            gen_span_cache[z] = (span, idxs)
        return gen_span_cache[z]

    rels = []
    bu = boundary(chain, degree + 1)
    for j, (verts, g) in enumerate(chain.simplices(degree + 1)):
        vec = [bu[i][j] for i in range(nd)] if bu else [f.zero] * nd
        span, idxs = gen_span_at(g)
        coords = span.coords(vec)
        if coords is None:
            raise HomologyError("boundary escapes the kernel span; sweep incomplete")
        coeffs = [f.zero] * len(gens)
        for t, i in enumerate(idxs):
            coeffs[i] = coords[t]
        rels.append((f"b{j}", g, coeffs))

    pres = minimize(Presentation(chain.nparams, f,
                                 [(f"k{i}", g) for i, (_, g) in enumerate(gens)],
                                 rels).validate())

    if check_hilbert:
        for z in itertools.product(*axes):
            want = homology_dim_at(chain, degree, z)
            got = pres.point_dim(z)
            if want != got:
                raise HomologyError(
                    f"Hilbert check failed at {z}: presentation gives {got}, "
                    f"pointwise homology gives {want}")
    return pres


def present_homology_sweep(complex_, degree, field, check_hilbert=True):
    """The row-by-row sweep of the critical grid on grade values: a kernel
    basis, each boundary of a (degree+1)-simplex in the generators active at
    its grade, then minimization and the Hilbert check."""
    chain = chain_complex_of(complex_, field)
    if chain.nparams not in (1, 2):
        raise HomologyError("presentation extraction supports 1 or 2 parameters")
    axes = chain.axes
    if any(not ax for ax in axes):
        return Presentation(chain.nparams, field, [], [])
    f = field
    nd = len(chain.simplices(degree))
    unpack = f.columns.unpack
    cols = [unpack(c) for c in chain.columns[degree]] if degree <= chain.max_deg else []

    def cycles_at(z):
        act = active(chain, degree, chain.floor(z))
        return [{act[t]: x for t, x in v.items()}
                for v in sparse_nullspace(f, [cols[j] for j in act])] if act else []

    kernel_dim = {z: n - r for z, (n, r) in active_ranks(chain, degree).items()}
    rels_at = {}
    for j, z in enumerate(chain.grade_index.get(degree + 1, [])):
        rels_at.setdefault(z, []).append(j)

    gens, born = [], []
    rel_coeffs = {}
    for z, entering in row_sweep([len(ax) for ax in axes], born):
        if z[-1] == 0:
            span = SparseSpan(f, nd)
            members = []
        for i in entering:
            span.insert(gens[i])
            members.append(i)
        if kernel_dim[z] > span.rank:
            for v in cycles_at(tuple(ax[x] for ax, x in zip(axes, z))):
                members.append(len(gens) if span.insert(v) else None)
                if members[-1] is not None:
                    gens.append(v)
                    born.append(z)
        for j in rels_at.get(z, ()):
            coords = span.coords(unpack(chain.columns[degree + 1][j]))
            if coords is None:
                raise HomologyError("boundary escapes the kernel span; "
                                    "sweep incomplete")
            rel_coeffs[j] = {members[k]: c for k, c in coords.items()}

    rels = [(f"b{j}", g, rel_coeffs[j])
            for j, (_, g) in enumerate(chain.simplices(degree + 1))]
    pres = reference_presentation.minimize(reference_presentation.validate(
        Presentation(chain.nparams, f,
                     [(f"k{i}", tuple(ax[x] for ax, x in zip(axes, z)))
                      for i, z in enumerate(born)], rels)))

    if check_hilbert:
        dims, wants = reference_presentation.hilbert_table(pres, axes), homology_dims(chain, degree)
        for idx in itertools.product(*(range(len(ax)) for ax in axes)):
            z = tuple(ax[k] for ax, k in zip(axes, idx))
            want, got = wants[chain.floor(z)], dims[idx]
            if want != got:
                raise HomologyError(
                    f"Hilbert check failed at {z}: presentation gives {got}, "
                    f"pointwise homology gives {want}")
    return pres


def _from_ranks(n, field, axes, generators, relations):
    """`Presentation.from_ranks` as it was: the indices ranked as values."""
    used, keys = grade_ranks([k for _, k, *_ in generators + relations], n)
    out = Presentation.__new__(Presentation)
    out._keep(n, field, [[ax[k] for k in ks] for ax, ks in zip(axes, used)],
              keys, generators, relations)
    return out


def present_homology_births(complex_, degree, field, check_hilbert=True):
    """The row sweep of the critical grid on grid indices, with a nullspace
    of the active boundary columns at each grid point where a generator is
    born, then minimization and the Hilbert check."""
    chain = GradedChainComplex(field, complex_)
    if chain.nparams not in (1, 2):
        raise HomologyError("presentation extraction supports 1 or 2 parameters")
    axes, shape = chain.axes, [len(ax) for ax in chain.axes]
    if not all(shape):
        return Presentation(chain.nparams, field, [], [])
    f = field
    nd, unpack = len(chain.simplices(degree)), field.columns.unpack

    def cycles_at(top):
        act = active(chain, degree, top)
        if not act:
            return []
        cols = chain.columns[degree]
        return [{act[t]: x for t, x in v.items()}
                for v in sparse_nullspace(f, [unpack(cols[j]) for j in act])]

    kernel_dim = {z: n - r for z, (n, r) in active_ranks(chain, degree).items()}
    rels_at = {}
    for j, z in enumerate(chain.grade_index.get(degree + 1, [])):
        rels_at.setdefault(z, []).append(j)

    gens, born = [], []
    rel_coeffs = {}
    for z, entering in row_sweep(shape, born):
        if z[-1] == 0:
            span = SparseSpan(f, nd)
            members = []
        for i in entering:
            span.insert(gens[i])
            members.append(i)
        if kernel_dim[z] > span.rank:
            for v in cycles_at(z):
                members.append(len(gens) if span.insert(v) else None)
                if members[-1] is not None:
                    gens.append(v)
                    born.append(z)
        for j in rels_at.get(z, ()):
            coords = span.coords(unpack(chain.columns[degree + 1][j]))
            if coords is None:
                raise HomologyError("boundary escapes the kernel span; "
                                    "sweep incomplete")
            rel_coeffs[j] = {members[k]: c for k, c in coords.items()}

    rels = [(f"b{j}", z, rel_coeffs[j])
            for j, z in enumerate(chain.grade_index.get(degree + 1, []))]
    pres = reference_presentation.minimize(_from_ranks(chain.nparams, f, axes, [
        (f"k{i}", z) for i, z in enumerate(born)], rels).validate())

    if check_hilbert:
        dims, wants = reference_presentation.hilbert_table(pres, axes), homology_dims(chain, degree)
        for idx in itertools.product(*map(range, shape)):
            want, got = wants[idx], dims[idx]
            if want != got:
                z = tuple(ax[k] for ax, k in zip(axes, idx))
                raise HomologyError(
                    f"Hilbert check failed at {z}: presentation gives {got}, "
                    f"pointwise homology gives {want}")
    return pres


def minimize_two_stage(p):
    """Minimal presentation with the canonical grade multisets, of a valid
    presentation (validated first).

    Both steps reduce relations on `ColumnReducer`s, as columns whose
    rows are the generators in (grade index, -index) order, grades
    lexicographic: a valid relation's top row is its least-index
    generator of its own grade, if any.  Step 1, over the relations in
    (grade, index) order: each is reduced until its top row is no pivot;
    if that generator is of its own grade the relation becomes a pivot
    and the generator goes, else it is reduced to zero at every pivot.
    Step 2: a residue is dropped iff it lies in the span of those strictly
    below its grade plus those of its grade with a larger index.
    """
    f = p.validate().field
    kind = f.columns
    gen_key, rel_key = p.gen_index, p.rel_index
    gen_at = sorted(range(len(gen_key)), key=lambda j: (gen_key[j], -j))
    row_of = {j: r for r, j in enumerate(gen_at)}
    pivots, removed_gens, rows = ColumnReducer(f), set(), {}
    for i in sorted(range(len(rel_key)), key=lambda i: (rel_key[i], i)):
        row, _, top = pivots.reduce_packed(
            kind.pack({row_of[j]: c for j, c in p.relations[i][2].items()}))
        if row and gen_key[gen_at[top]] == rel_key[i]:
            removed_gens.add(gen_at[pivots.add_packed(row)[0]])
        elif row:           # step 2 would drop an empty relation
            rows[i] = pivots.reduce_packed(row, full=True)[0]

    kept, keys = list(rows), [rel_key[i] for i in rows]
    dropped = set()
    for z, entering in row_sweep([len(ax) for ax in p.axes], keys):
        if z[-1] == 0:
            reducer = ColumnReducer(f)
        for t in entering:
            if keys[t] != z:
                reducer.add_packed(kind.copy(rows[kept[t]]))
        for t in reversed(entering):
            if keys[t] == z and reducer.add_packed(kind.copy(rows[kept[t]]))[0] is None:
                dropped.add(kept[t])
    gens = [j for j in range(len(p.generators)) if j not in removed_gens]
    new_index = {j: k for k, j in enumerate(gens)}
    rels = [(nm, rel_key[i],
             {new_index[gen_at[r]]: c for r, c in kind.unpack(rows[i]).items()})
            for i, (nm, _, _) in enumerate(p.relations)
            if i in rows and i not in dropped]
    return Presentation.from_ranks(
        p.n, f, p.axes, [(p.generators[j][0], gen_key[j]) for j in gens], rels)


def present_homology_two_stage(complex_, degree, field, check_hilbert=True):
    """The row sweep's kernel basis and each boundary of a (degree+1)-simplex
    over the generators active at its grade, unpacked; then one presentation
    of them all, `minimize_two_stage`, and the Hilbert check."""
    chain = chain_complex_of(complex_, field)
    if chain.nparams not in (1, 2):
        raise HomologyError("presentation extraction supports 1 or 2 parameters")
    axes, shape = chain.axes, [len(ax) for ax in chain.axes]
    f, kind = field, field.columns
    upper = chain.grade_index.get(degree + 1, [])
    cycles_at, seen = _column_growth(chain, degree, True), {}

    gens, born = [], []         # kernel generators (packed) and their grid indices
    rels = []                   # (name, grid index, {generator: coeff}) per (d+1)-simplex
    for z, entering in row_sweep(shape, born):
        if z[-1] == 0:
            span = ColumnReducer(f)
        for i in entering:
            span.add_packed(kind.copy(gens[i]), kind.unit(i))
        nulls = cycles_at(z)[1]
        fresh, seen[z[1:]] = nulls[seen.get(z[1:], 0):], len(nulls)
        if len(nulls) > span.rank:
            for v in fresh:     # a dependent one is dropped with its index
                if span.add_packed(kind.copy(v), kind.unit(len(gens)))[0] is not None:
                    gens.append(v)
                    born.append(z)
        for j in range(bisect.bisect_left(upper, z), bisect.bisect_right(upper, z)):
            x = span.coords(kind.copy(chain.columns[degree + 1][j]))
            if x is None:
                raise HomologyError("boundary escapes the kernel span; "
                                    "sweep incomplete")
            rels.append((f"b{j}", z, kind.unpack(x)))

    pres = minimize_two_stage(Presentation.from_ranks(chain.nparams, f, axes, [
        (f"k{i}", z) for i, z in enumerate(born)], rels))

    if check_hilbert:
        dims = pres.hilbert_table(axes)
        for idx in _grid_indices(shape):
            want, got = chain.homology_dim_at(degree, idx), dims[idx]
            if want != got:
                z = tuple(map(operator.getitem, axes, idx))
                raise HomologyError(
                    f"Hilbert check failed at {z}: presentation gives {got}, "
                    f"pointwise homology gives {want}")
    return pres


def barcode_1d(complex_, degree, field):
    """Standard persistence column reduction; unpaired creators die at +inf."""
    rational = complex_.grades_rational()
    if complex_.nparams != 1:
        raise HomologyError("barcode requires a 1-parameter complex")
    order = sorted(range(len(rational)),
                   key=lambda i: (rational[i][1], len(rational[i][0]), rational[i][0]))
    pos = {rational[i][0]: k for k, i in enumerate(order)}
    f = field
    columns = []
    for k, i in enumerate(order):
        verts, _ = rational[i]
        col = {}
        if len(verts) > 1:
            sign = f.one
            for t in range(len(verts)):
                face = verts[:t] + verts[t + 1:]
                col[pos[face]] = sign
                sign = f.neg(sign)
        columns.append(col)

    reducer = DictColumnReducer(f)
    pairs = {}              # creator position -> killer position
    for k, col in enumerate(columns):
        low = reducer.add(col)
        if low is not None:
            pairs[low] = k
    killers = set(pairs.values())

    pts = []
    for k, i in enumerate(order):
        verts, grade = rational[i]
        if len(verts) - 1 != degree:
            continue
        if k in killers:
            continue            # not a cycle: it kills something lower
        if k in pairs:
            killer = order[pairs[k]]
            death = rational[killer][1][0]
            if death > grade[0]:
                pts.append((ext(grade[0]), ext(death), 1))
        else:
            pts.append((ext(grade[0]), INF, 1))
    return PersistenceDiagram(pts)


def barcode_1d_bars(complex_, degree, field):
    """The `onedim.bars` of H_degree on grade indices, read from the
    complex's chain complex: the generators are the degree-d simplices whose
    boundary column reduces to zero against the earlier ones, the relations
    the (d+1)-boundaries restricted to them."""
    chain, kind = chain_complex_of(complex_, field), field.columns
    if chain.nparams != 1:
        raise HomologyError("barcode requires a 1-parameter complex")
    index, upper = chain.grade_index.get(degree, []), chain.grade_index.get(degree + 1, [])
    cols, reducer = chain.columns[degree] if index else [], ColumnReducer(field)
    creators = [k for k, col in enumerate(cols)
                if not col or reducer.add_packed(kind.copy(col))[0] is None]
    rows = {k: r for r, k in enumerate(creators)}
    pts = bars(field, [index[k][0] for k in creators],
               [(g, {rows[k]: x for k, x in kind.unpack(col).items() if k in rows})
                for (g,), col in zip(upper, chain.columns[degree + 1] if upper else [])])
    axis = chain.axes[0]
    return PersistenceDiagram([(ext(axis[b]), INF if d is None else ext(axis[d]), 1)
                               for b, d in pts])

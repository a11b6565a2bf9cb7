"""Persistent homology of bifiltered complexes.

Chain complexes and barcodes read a complex's order, int grade indices and
axes as `filtration.BifilteredComplex` ranked them once; only a grade from
outside, such as a grid module's axis value, is compared with the axes.  A
chain complex stores each degree's boundary columns once, in the field's
column type (`exactnum`; int bitsets over Z/2, built with no sign), and
checks that boundaries compose to zero by that type's `compose`.  Three
computation styles share the exact linear algebra kernel:

* 1-parameter barcodes from the chain's `lows`, one standard reduction of
  each degree's boundary columns, shared by the barcodes of that degree and
  the one below;
* grid modules (pointwise dimensions plus transition maps between adjacent
  grid points, held packed in the column type) for any parameter count,
  each made by `build_grid_module` from the data computed once per grid
  point, its builder handing over transitions already packed.  A
  complex's, an image's or a presentation's (its two-term complex's) data
  is a basis of H_d by `linalg.quotient_basis`, the cycles and boundaries
  from one growing reduction per grid column (`_column_growth`);
  resamplings and cluster modules (``infer``) bring their own;
* presentations of homology for 1 and 2 parameters, in the column type from
  end to end: the critical grid is swept row by row with one span of kernel
  generators per row, fed where a generator is born by the same growing
  reductions (Lesnick and Wright, arXiv:1902.05708), into a two-term complex
  that `minimal_presentation` minimizes as it does a presentation's.  The
  freeness of two-parameter kernels is an implementation hypothesis, so a
  Hilbert check compares the presentation's H_0 with the chain's H_d, each
  read from its own complex's rank tables: a sweep error cannot vouch for itself.
"""

import bisect
import collections
import itertools
import math
import operator
from fractions import Fraction

from .exactnum import (INF, common_denominator, ext, format_rational,
                       least_feasible, parse_field, parse_rational, scaled_int,
                       text_lines)
from .linalg import ColumnReducer, packed_rank as mat_rank, quotient_basis, quotient_map
from .linalg import mat_mul, nullspace  # noqa: F401 (perfbench traces them)
from .onedim import PersistenceDiagram
from .presentation import (Presentation, grade_leq, leq_runs, minimal_presentation,
                           row_sweep, swept_ranks)


class HomologyError(ValueError):
    pass


class GradedChainComplex:
    """Per-degree bases, sorted int grade indices on rational axes and
    packed columns over the positions of the degree below: a complex's
    simplices in its order (dimension, grade, vertices), or (`from_columns`)
    a presentation's generators and relations, its two-term complex."""

    def __init__(self, field, complex_):
        dims = [len(verts) - 1 for verts, _ in complex_.simplices]
        cuts = [bisect.bisect_left(dims, d) for d in range(max(dims, default=-1) + 2)]
        bases = [complex_.simplices[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        # boundary columns per degree in the field's column type (a vertex
        # has none); over Z/2 pack ORs the faces' bits and drops the signs
        kind, signs = field.columns, (field.one, field.of(-1))
        columns = [[kind.pack({}) for _ in basis] for basis in bases[:1]]
        for below, basis in zip(bases, bases[1:]):
            rows = {verts: i for i, (verts, _) in enumerate(below)}
            columns.append([kind.pack({rows[verts[:k] + verts[k + 1:]]: signs[k & 1]
                                       for k in range(len(verts))})
                            for verts, _ in basis])
        self._keep(field, complex_.rational_axes(), bases,
                   [complex_.grade_index[lo:hi] for lo, hi in zip(cuts, cuts[1:])], columns)
        self._check_dd()

    @classmethod
    def from_columns(cls, field, axes, bases, grade_index, columns):
        """The complex of these, kept in this convention by the caller."""
        out = cls.__new__(cls)
        out._keep(field, axes, bases, grade_index, columns)
        return out

    def _keep(self, field, axes, bases, grade_index, columns):
        self.field, self.axes, self.nparams = field, axes, len(axes)
        self.bases, self.columns, self.max_deg = bases, columns, len(bases) - 1
        self.grade_index = dict(enumerate(grade_index))
        self._ranks = {}        # degree -> active_ranks(degree)
        self._lows = {}         # degree -> lows(degree)

    def _check_dd(self):
        for d in range(2, self.max_deg + 1):
            if any(self.field.columns.compose(self.columns[d - 1], self.columns[d])):
                raise HomologyError("boundary of boundary is nonzero")

    def simplices(self, d):
        return self.bases[d] if 0 <= d <= self.max_deg else []

    def floor(self, z):
        """Grade z snapped down to a grid index; None below an axis."""
        return _floor(self.axes, z)

    def active_ranks(self, d):
        """{critical grid index: (number of active d-simplices, rank of the
        boundary on them)}, by one sparse reduction per grid row, tabled once."""
        if d not in self._ranks:
            cols = self.columns[d] if d <= self.max_deg else []
            self._ranks[d] = swept_ranks(self.field, [len(ax) for ax in self.axes],
                                         self.grade_index.get(d, []), cols)
        return self._ranks[d]

    def lows(self, d):
        """The low row of each degree-d boundary column after the standard
        reduction in the chain's order, None where it reduces to zero, by
        one reduction, tabled once (a vertex's empty column is not added)."""
        if d not in self._lows:
            red, kind = ColumnReducer(self.field), self.field.columns
            self._lows[d] = [red.add_packed(kind.copy(col))[0] if col else None
                             for col in (self.columns[d] if 0 <= d <= self.max_deg else [])]
        return self._lows[d]

    def homology_dim_at(self, d, idx):
        """dim H_d at the grid index idx (0 at None, so `floor` of a grade
        will do): active d-simplices minus the boundary ranks on the active
        d- and (d+1)-simplices, from the boundary columns' rank tables."""
        if idx is None:
            return 0
        n, r = self.active_ranks(d)[idx]
        return n - r - self.active_ranks(d + 1)[idx][1]


def chain_complex_of(complex_, field):
    """complex_'s chain complex over field, kept in its `chains` by field spec."""
    if field.spec not in complex_.chains:
        complex_.chains[field.spec] = GradedChainComplex(field, complex_)
    return complex_.chains[field.spec]


# ---------------------------------------------------------------------------
# 1-parameter barcodes
# ---------------------------------------------------------------------------

def barcode_1d(complex_, degree, field):
    """The barcode of H_degree on grade indices, from the chain's `lows` of
    degrees d and d+1 (its build raises on an irrational grade first): the
    creators are the d-simplices whose boundary reduces to zero, the low of
    each (d+1)-column pairs its creator with that simplex (dropped at equal
    grades), and each creator left unpaired gives a bar to +inf.  The rows
    of non-creators do not change the pairs (Bauer, Kerber and Reininghaus,
    arXiv:1303.0477)."""
    chain = chain_complex_of(complex_, field)
    if chain.nparams != 1:
        raise HomologyError("barcode requires a 1-parameter complex")
    index, upper = chain.grade_index.get(degree, []), chain.grade_index.get(degree + 1, [])
    pairs = {low: d for low, (d,) in zip(chain.lows(degree + 1), upper) if low is not None}
    axis, pts = chain.axes[0], []
    for k, ((b,), low) in enumerate(zip(index, chain.lows(degree))):
        d = pairs.get(k)
        if low is None and d != b:
            pts.append((ext(axis[b]), INF if d is None else ext(axis[d]), 1))
    return PersistenceDiagram(pts)


# ---------------------------------------------------------------------------
# Grid modules
# ---------------------------------------------------------------------------

def _succ(idx, axis):
    """The grid index one step up `axis` from idx."""
    return idx[:axis] + (idx[axis] + 1,) + idx[axis + 1:]


def _grid_indices(shape):
    return itertools.product(*(range(s) for s in shape))


def _grid_steps(shape):
    """Every (index, axis) whose successor along axis lies on the grid, in
    index order, then axis order."""
    for idx in _grid_indices(shape):
        for a, s in enumerate(shape):
            if idx[a] + 1 < s:
                yield idx, a


def _check_axes(axes):
    if any(x >= y for ax in axes for x, y in zip(ax, ax[1:])):
        raise HomologyError("grid axis values must be strictly increasing")


def _floor(axes, z):
    """Grade z snapped down to a grid index on increasing axes (the largest
    value <= it on each); None below an axis."""
    idx = tuple(bisect.bisect_right(ax, v) - 1 for ax, v in zip(axes, z))
    return None if -1 in idx else idx


class GridModule:
    """A persistence module restricted to a finite grid: per-point dimensions
    and transition maps between adjacent grid points.  Squares commute.

    Each axis is a strictly increasing list of values; grid index k on axis
    a stands for the value axes[a][k].  Every grid index needs a dimension,
    and every index with a successor along axis a needs trans[(idx, a)], the
    map from idx to that successor: one column per basis vector at idx over
    the successor's basis, in the field's column type (`exactnum`) or as
    {row: coeff} dicts without zeros, packed at the door; a dimension or
    transition off the grid is refused.  `compose` of the packed maps makes
    the composites, cached packed by the flat (row-major) indices of their
    ends, which `check_squares` and the cached `rank_between` use; `step`,
    `trans` and `matrix_between` unpack.  Dense rows appear only in text."""

    def __init__(self, field, axes, dims, trans):
        self.field = field
        self.axes = [list(a) for a in axes]
        self.dims = dict(dims)
        _check_axes(self.axes)
        stray = sorted(set(self.dims).symmetric_difference(self.indices()))
        if stray:
            where = "given off the grid at" if stray[0] in self.dims else "missing at grid index"
            raise HomologyError(f"dimension {where} {stray[0]}")
        shape = self.shape()
        self._strides = [math.prod(shape[a + 1:]) for a in range(len(shape))]
        self._flat = {idx: i for i, idx in enumerate(self.indices())}
        self._dims = [self.dims[idx] for idx in self._flat]
        # per flat index, the axes it has a successor along, cheapest first
        self._order = [sorted((a for a, k in enumerate(idx) if k + 1 < shape[a]),
                              key=lambda a: self._dims[i + self._strides[a]])
                       for i, idx in enumerate(self._flat)]
        self._steps = [[None] * len(self._dims) for _ in shape]   # axis -> flat -> packed
        kind, steps = field.columns, list(_grid_steps(shape))
        for idx, axis in steps:
            cols = trans.get((idx, axis))
            if cols is None:
                raise HomologyError(f"no transition given at {idx} axis {axis}")
            if cols and type(cols[0]) is dict:      # {row: coeff} columns, packed here
                ok = min(itertools.chain(*cols), default=0) >= 0 and field.zero not in \
                    itertools.chain.from_iterable(map(dict.values, cols))
                cols = list(map(kind.pack, cols)) if ok else None
            if cols is None or len(cols) != self.dims[idx] or \
                    not kind.within(cols, self.dims[_succ(idx, axis)]):
                raise HomologyError(f"transition at {idx} axis {axis} has the "
                                    f"wrong shape")
            self._steps[axis][self._flat[idx]] = cols
        if len(trans) != len(steps):
            idx, axis = min(set(trans).difference(steps))
            raise HomologyError(f"transition given off the grid at {idx} axis {axis}")
        self._composites = {}   # flat i1 * size + flat i2 -> packed composite
        self._ranks = {}        # (i1, i2) -> rank_between(i1, i2)
        self.check_squares()

    @property
    def nparams(self):
        return len(self.axes)

    def shape(self):
        return tuple(len(a) for a in self.axes)

    def indices(self):
        return _grid_indices(self.shape())

    def value(self, idx):
        return tuple(self.axes[i][k] for i, k in enumerate(idx))

    def step(self, idx, axis):
        """The transition from idx along axis, as {row: coeff} columns."""
        return list(map(self.field.columns.unpack, self._steps[axis][self._flat[idx]]))

    @property
    def trans(self):
        return {(idx, a): self.step(idx, a) for idx, a in _grid_steps(self.shape())}

    def check_squares(self):
        compose, steps, strides = self.field.columns.compose, self._steps, self._strides
        for i, idx in enumerate(self._flat):
            for a1, a2 in itertools.combinations(sorted(self._order[i]), 2):
                if compose(steps[a2][i + strides[a1]], steps[a1][i]) != \
                        compose(steps[a1][i + strides[a2]], steps[a2][i]):
                    raise HomologyError(f"grid square at {idx} does not commute")

    def _composite(self, i1, i2):
        """The composite transition map from grid index i1 to i2, packed.

        The walk steps first along the axis whose successor has the smallest
        dimension (the lowest such axis on ties), so each composition has
        the smallest inner size on offer; squares commute, so every path
        gives the same map.  A single step is the packed transition itself,
        and a map from or to a zero space needs no walk.  The walk goes
        forward to i2 or to the first cached composite, then composes back,
        caching the composite from every index it passed."""
        size, cache = len(self._dims), self._composites
        cur, end = self._flat[i1], self._flat[i2]
        out = cache.get(cur * size + end)
        if out is not None:
            return out
        gaps = [b - a for a, b in zip(i1, i2)]
        if min(gaps, default=0) < 0:
            raise HomologyError("composite requires i1 <= i2")
        strides, dims, order, path = self._strides, self._dims, self._order, []
        if cur == end or not (dims[cur] and dims[end]):     # no walk
            kind = self.field.columns
            return [kind.unit(k) if cur == end else kind.pack({}) for k in range(dims[cur])]
        while cur != end and cur * size + end not in cache:
            for axis in order[cur]:
                if gaps[axis]:
                    break
            path.append((cur, axis))
            gaps[axis] -= 1
            cur += strides[axis]
        out = None if cur == end else cache[cur * size + end]
        compose, steps = self.field.columns.compose, self._steps
        for i, axis in reversed(path):
            out = steps[axis][i] if out is None else compose(out, steps[axis][i])
            cache[i * size + end] = out
        return out

    def matrix_between(self, i1, i2):
        """Composite transition map from grid index i1 to i2 (i1 <= i2), as
        sparse columns: `_composite` unpacked."""
        return list(map(self.field.columns.unpack, self._composite(i1, i2)))

    def rank_between(self, i1, i2):
        rank = self._ranks.get((i1, i2))
        if rank is None:
            rank = self._ranks[i1, i2] = mat_rank(self.field, self._composite(i1, i2))
        return rank

    def to_text(self):
        lines = ["GRIDMODULE", f"field {self.field.spec}", f"axes {self.nparams}"]
        for i, ax in enumerate(self.axes):
            lines.append(f"axis {i} : " + " ".join(format_rational(v) for v in ax))
        lines += ["dim " + " ".join(map(str, idx)) + f" = {d}" for idx, d in zip(
            self.indices(), self._dims)]
        for (idx, a), cols in self.trans.items():
            body = " ; ".join(" ".join(format_rational(col.get(r, self.field.zero))
                                       for col in cols)
                              for r in range(self.dims[_succ(idx, a)]))
            lines.append("trans " + " ".join(map(str, idx)) + f" axis {a} : {body}")
        lines.append("END")
        return "\n".join(lines) + "\n"


def build_grid_module(field, axes, point, dim, transition):
    """The one construction path of grid modules.  point(z) gives the data
    at each grid value z, dim(data) the dimension there, and
    transition(data, data_next) the map to the successor along one axis, as
    columns over the successor's basis in the field's column type, handed to
    `GridModule` as they are.  point is called once per
    grid index, in index order (the leading index outermost), so along each
    grid column z[1:] the leading value never decreases: chain and image
    modules grow their bases on that."""
    _check_axes(axes)
    shape = tuple(len(a) for a in axes)
    data = {idx: point(tuple(ax[k] for ax, k in zip(axes, idx)))
            for idx in _grid_indices(shape)}
    dims = {idx: dim(d) for idx, d in data.items()}
    trans = {(idx, a): transition(data[idx], data[_succ(idx, a)])
             for idx, a in _grid_steps(shape)}
    return GridModule(field, axes, dims, trans)


def parse_grid_module(text):
    head, axes, dims, trans_rows = {}, {}, {}, []   # head: the field and axes values
    for ln in text_lines(text, "GRIDMODULE", HomologyError):
        key, *args = ln.split()
        if not args:
            raise HomologyError(f"short line {ln!r}")
        if key in head:
            raise HomologyError(f"second {key} line {ln!r}")
        if key == "field":
            head[key] = parse_field(args)
        elif key == "axes":
            head[key] = int(args[0])
        elif key == "axis":
            if int(args[0]) in axes:
                raise HomologyError(f"second axis {args[0]} line {ln!r}")
            axes[int(args[0])] = [parse_rational(t) for t in args[2:]]
        elif key == "dim":
            where, eq, dim = ln[3:].partition("=")
            if not eq:
                raise HomologyError(f"dim line without '=' {ln!r}")
            idx = tuple(int(t) for t in where.split())
            if idx in dims:
                raise HomologyError(f"second dim {idx} line {ln!r}")
            dims[idx] = int(dim)
        elif key == "trans":
            trans_rows.append(ln)
        else:
            raise HomologyError(f"unknown line {ln!r}")
    if len(head) < 2:
        raise HomologyError("missing field or axes")
    field, nparams = head["field"], head["axes"]
    if sorted(axes) != list(range(nparams)):
        raise HomologyError(f"axis lines {sorted(axes)} for axes 0..{nparams - 1}")
    axes_list = [axes[i] for i in range(nparams)]
    trans = {}
    for ln in trans_rows:
        spot, _, body = ln.partition(":")
        toks = spot.split()
        if len(toks) < nparams + 3:     # trans, the grid index, axis, the axis
            raise HomologyError(f"short transition line {ln!r}")
        idx = tuple(int(t) for t in toks[1:1 + nparams])
        axis = int(toks[2 + nparams])
        if (idx, axis) in trans:
            raise HomologyError(f"second transition at {idx} axis {axis}")
        rows = [[field.of(parse_rational(t)) for t in chunk.split()]
                for chunk in body.split(";")] if body.strip() else []
        # a missing dim is reported by GridModule; no text is a zero map
        want_rows, want_cols = dims.get(_succ(idx, axis), 0), dims.get(idx, 0)
        if rows and (len(rows), {len(row) for row in rows}) != (want_rows, {want_cols}):
            raise HomologyError(f"transition at {idx} axis {axis} has the "
                                f"wrong shape")
        trans[(idx, axis)] = [{r: row[c] for r, row in enumerate(rows)
                               if row[c] != field.zero} for c in range(want_cols)]
    return GridModule(field, axes_list, dims, trans)


def _column_growth(chain, degree, cycles):
    """at(top) -> (ColumnReducer, null vectors) of the degree's boundary
    columns active at the grid index top (None: none).  One reducer per grid
    column top[1:] takes, at each new leading index up to top[0], the
    simplices entering there (tail <= top[1:]) in index order: it holds what
    reducing all active columns in index order holds.  With cycles a column
    carries unit(j) at its index j and each dependent one's combination, a
    null vector, is kept; else the empty one of a `quotient_basis` subspace.
    Empty columns are not reduced; top[0] may not decrease in a column."""
    kind, index = chain.field.columns, chain.grade_index.get(degree, [])
    cols = chain.columns[degree] if index else []
    # top[1:] -> [reducer, null vectors, leading index reached]
    grown = collections.defaultdict(lambda: [ColumnReducer(chain.field), [], -1])

    def at(top):
        if top is None:
            return ColumnReducer(chain.field), []
        red, nulls, lead = state = grown[top[1:]]
        if top[0] < lead:
            raise HomologyError("a grid column's leading index decreased")
        state[2] = top[0]
        for lo, hi in leq_runs(index, top, bisect.bisect_left(index, (lead + 1,))):
            for j in range(lo, hi):
                combo = kind.unit(j) if cycles else kind.pack({})
                low, combo = red.add_packed(kind.copy(cols[j]), combo) if cols[j] \
                    else (None, combo)
                if cycles and low is None:
                    nulls.append(combo)
        return red, nulls
    return at


def _quotient_grid_module(nparams, field, axes, basis_at):
    """The grid module of the `quotient_basis` bases basis_at(z), by `quotient_map`."""
    if len(axes) != nparams:
        raise HomologyError("axes count must equal the parameter count")
    return build_grid_module(field, axes, basis_at, lambda basis: len(basis[0]), quotient_map)


def _homology_bases(c1, c2, degree, to2=None):
    """basis_at(z): c1's degree-d cycles, mapped into c2's chains by the
    columns to2 (default: c1 is c2), modulo c2's boundaries, from one
    growing cycle and boundary reduction per grid column."""
    cycles_at = _column_growth(c1, degree, True)
    boundaries_at = _column_growth(c2, degree + 1, False)

    def basis_at(z):
        cycles = cycles_at(c1.floor(z))[1]
        return quotient_basis(c2.field, boundaries_at(c2.floor(z))[0], enumerate(
            cycles if to2 is None else c2.field.columns.compose(to2, cycles)))
    return basis_at


def _presentation_bases(p):
    """basis_at(z): the units at their `p.chain_complex()` positions of p's
    generators active at z, keyed by index from the last down, modulo the
    active relations, from one growing reduction of them per grid column."""
    chain = p.chain_complex()
    relations_at, kind = _column_growth(chain, 1, False), p.field.columns
    index, order = chain.grade_index[0], chain.bases[0]

    def basis_at(z):
        top = chain.floor(z)
        gens = [] if top is None else sorted(
            ((order[i], i) for lo, hi in leq_runs(index, top) for i in range(lo, hi)), reverse=True)
        return quotient_basis(p.field, relations_at(top)[0], ((j, kind.unit(i)) for j, i in gens))
    return basis_at


def grid_module_of(source, axes, degree=None, field=None):
    """Grid module of a presentation, or of H_degree of a bifiltered or a
    chain complex."""
    if isinstance(source, Presentation):
        return _quotient_grid_module(source.n, source.field, axes, _presentation_bases(source))
    if degree is None:
        raise HomologyError("degree required for a chain source")
    chain = source if isinstance(source, GradedChainComplex) \
        else chain_complex_of(source, field)
    return _quotient_grid_module(chain.nparams, chain.field, axes,
                                 _homology_bases(chain, chain, degree))


# ---------------------------------------------------------------------------
# Presentations of homology (n = 1, 2)
# ---------------------------------------------------------------------------

def _kernel_sweep(chain, degree):
    """(generators (packed kernel vector, row), their grid indices, relations
    (simplex index, grid index, boundary over the active rows, packed)) of
    H_degree, by a row-by-row sweep of the critical grid, the candidates at
    z the new null vectors of its grid column (`_column_growth`).  Rows rise
    with the birth, fall with the index at one birth and fill 0, 1, ...: each
    of the len(nulls) - span.rank reserved at z (the older nulls lie in the
    span) goes to a candidate proven independent, born <= where it enters."""
    f, kind, upper = chain.field, chain.field.columns, chain.grade_index.get(degree + 1, [])
    # the grid columns' growing kernels, and per column the null vectors seen
    cycles_at, seen = _column_growth(chain, degree, True), {}
    gens, born, rels, end = [], [], [], 0
    for z, entering in row_sweep([len(ax) for ax in chain.axes], born):
        if z[-1] == 0:      # one span per row; a generator enters when active
            span = ColumnReducer(f)
        for i in entering:
            if not grade_leq(born[i], z):
                raise HomologyError(f"generator k{i} of {born[i]} enters the span at {z}")
            span.add_packed(kind.copy(gens[i][0]), kind.unit(gens[i][1]))
        nulls = cycles_at(z)[1]
        fresh, seen[z[1:]] = nulls[seen.get(z[1:], 0):], len(nulls)
        if len(nulls) > span.rank:      # rows fall with the index
            row = end = end + len(nulls) - span.rank
            for v in fresh:
                if span.add_packed(kind.copy(v), kind.unit(row - 1))[0] is not None:
                    row -= 1
                    gens.append((v, row))
                    born.append(z)
            if span.rank != len(nulls):
                raise HomologyError(f"the new cycles at {z} do not fill the rows reserved")
        for j in range(bisect.bisect_left(upper, z), bisect.bisect_right(upper, z)):
            x = span.coords(kind.copy(chain.columns[degree + 1][j]))
            if x is None:
                raise HomologyError("boundary escapes the kernel span; sweep incomplete")
            rels.append((j, z, x))
    return gens, born, rels


def present_homology(complex_, degree, field, check_hilbert=True):
    """Presentation of H_degree of a one-critical bifiltered complex with one
    or two parameters: `minimal_presentation` of `_kernel_sweep`'s two-term
    complex.  The Hilbert check compares `hilbert_table` with `homology_dim_at`."""
    chain = chain_complex_of(complex_, field)
    if chain.nparams not in (1, 2):
        raise HomologyError("presentation extraction supports 1 or 2 parameters")
    gens, born, rels = _kernel_sweep(chain, degree)
    order = sorted(range(len(gens)), key=lambda i: gens[i][1])     # rows 0..k-1, filled
    grades = [[born[i] for i in order], [z for _, z, _ in rels]]
    pres = minimal_presentation(GradedChainComplex.from_columns(
        field, chain.axes, [order, range(len(rels))], grades,
        [[field.columns.pack({}) for _ in order], [x for _, _, x in rels]]),
        [f"k{i}" for i in range(len(gens))], [f"b{j}" for j, _, _ in rels])
    if check_hilbert:
        axes, dims = chain.axes, pres.hilbert_table(chain.axes)
        for idx in _grid_indices([len(ax) for ax in axes]):
            want, got = chain.homology_dim_at(degree, idx), dims[idx]
            if want != got:
                z = tuple(map(operator.getitem, axes, idx))
                raise HomologyError(
                    f"Hilbert check failed at {z}: presentation gives {got}, "
                    f"pointwise homology gives {want}")
    return pres


def image_grid_module(complex_, degree, delta1, delta2, axes, field):
    """Image of H_degree(slice delta1) -> H_degree(slice delta2) as a grid
    module over the function axes."""
    from .filtration import fixed_scale_slice
    delta1, delta2 = Fraction(delta1), Fraction(delta2)
    if delta1 > delta2:
        raise HomologyError("delta1 must be <= delta2")
    c1, c2 = (chain_complex_of(fixed_scale_slice(complex_, d), field) for d in (delta1, delta2))
    pos2 = {verts: i for i, (verts, _) in enumerate(c2.simplices(degree))}
    # the map from slice 1's degree-d chains into slice 2's, in the column type
    to2 = [field.columns.unit(pos2[verts]) for verts, _ in c1.simplices(degree)]
    return _quotient_grid_module(c1.nparams, field, axes, _homology_bases(c1, c2, degree, to2))


# ---------------------------------------------------------------------------
# Rank-shift comparison
# ---------------------------------------------------------------------------

def resample(gm, new_axes):
    """Restrict/refine a grid module to new axes by flooring each value to
    the largest original axis value <= it; values below the axis minimum get
    the zero space.  Valid when the original axes contain all critical
    values and the module vanishes below them.  On equal axes the floor map
    is the identity and gm itself is returned, with its caches."""
    if len(new_axes) != gm.nparams:
        raise HomologyError("axis count mismatch")
    if [list(a) for a in new_axes] == gm.axes:
        return gm
    return build_grid_module(gm.field, new_axes, lambda z: _floor(gm.axes, z),
                             lambda src: 0 if src is None else gm.dims[src],
                             lambda src, dst: [] if src is None else gm._composite(src, dst))


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
    if gm.field != gn.field:
        raise HomologyError("coefficient fields differ")
    union_axes = [sorted(set(x) | set(y)) for x, y in zip(gm.axes, gn.axes)]
    rm, rn = resample(gm, union_axes), resample(gn, union_axes)
    scale = common_denominator([x for ax in union_axes for x in ax])
    int_axes = [[scaled_int(x, scale) for x in ax] for ax in union_axes]
    cands = sorted({0} | {y - x for ax in int_axes for x in ax for y in ax if y > x})

    def feasible(e):
        # per int-scaled axis, the index each value snaps to once shifted down
        # (up) by eps = e / scale: -1 below the axis and len(axis) above it,
        # where pairs clip, so only the box of unclipped pairs is visited
        down = [[bisect.bisect_right(ax, x - e) - 1 for x in ax] for ax in int_axes]
        up = [[bisect.bisect_left(ax, x + e) for x in ax] for ax in int_axes]
        stops = [len(u) - u.count(len(u)) for u in up]
        for i1 in itertools.product(*(range(d.count(-1), len(d)) for d in down)):
            lo = tuple(map(operator.getitem, down, i1))
            for i2 in itertools.product(*map(range, i1, stops)):
                # lo -> hi factors through i1 -> i2, so a module's shifted rank
                # is at most its rank a or b there: only the higher can fail
                a, b = rm.rank_between(i1, i2), rn.rank_between(i1, i2)
                if a != b:
                    hi = tuple(map(operator.getitem, up, i2))
                    if a > b and rm.rank_between(lo, hi) > b or \
                            a < b and rn.rank_between(lo, hi) > a:
                        return None
        return e

    best = least_feasible(cands, feasible)
    return ext(Fraction(best, scale)) if best is not None else INF

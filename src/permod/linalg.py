"""Exact linear algebra over a coefficient field.

Vectors are sparse: {index: coeff} dicts without zeros.  A map is a list of
such columns, one per basis vector of its source; `mat_mul` composes two
maps and `rank` is the rank of a list of vectors.  `nullspace` and `solve`
take dense matrices, lists of row lists of field elements.
`ColumnSpan` answers `coords` with {inserted index: coeff}.
`ColumnReducer`, a sparse column reduction with no pivoting heuristics, is
the one elimination in the package: it is behind `rank`, `nullspace` and
`solve`, `ColumnSpan`, the linear elimination rounds of the `quadsys`
solver, barcodes, homology rank tables and minimization.  Each result it
gives here is the unique one of its kind (the reduced-echelon null basis,
the solution that is 0 at every non-pivot column), so no routine depends on
the order of reduction.
"""


def mat_mul(field, later, earlier):
    """The map `later` after `earlier`, both lists of sparse columns: column
    c is the sum of x * later[k] over the entries k: x of earlier[c]; a map
    to or from a zero space needs no dimension."""
    zero, add, mul = field.zero, field.add, field.mul
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


def subtract_multiple(f, target, c, source):
    """target -= c * source on {key: coeff} dicts, dropping zero entries."""
    zero = f.zero
    for r, x in source.items():
        v = f.sub(target.get(r, zero), f.mul(c, x))
        if v == zero:
            target.pop(r, None)
        else:
            target[r] = v


class ColumnReducer:
    """Sparse column reduction over any field, the one sparse elimination in
    the package.  Columns are {row: coeff} dicts without zeros; a column's
    pivot is its largest row.  A column may carry a combination, a {key:
    coeff} dict reduced alongside it, to write residues over added columns."""

    def __init__(self, field):
        self.field = field
        self.columns = {}       # pivot row -> (column, combination or None)

    @property
    def rank(self):
        return len(self.columns)

    def reduce(self, col, combo=None, full=False):
        """Reduce col (consumed and returned), and combo with it, until its
        largest row is no pivot; with full, until it is zero at every pivot."""
        f, kept = self.field, {}
        while col:
            low = max(col)
            hit = self.columns.get(low)
            if hit is None:
                if not full:
                    break
                kept[low] = col.pop(low)
                continue
            c = f.div(col[low], hit[0][low])
            subtract_multiple(f, col, c, hit[0])
            if combo is not None:
                subtract_multiple(f, combo, c, hit[1])
        col.update(kept)
        return col

    def add(self, col, combo=None):
        """Reduce col and keep it unless it became zero.  Returns its pivot
        row, or None when col was dependent."""
        col = self.reduce(col, combo)
        if not col:
            return None
        low = max(col)
        self.columns[low] = (col, combo)
        return low


class ColumnSpan:
    """Echelon basis of a growing span of column vectors in field**dim.

    Supports membership tests and expressing a vector as a combination of the
    vectors that were inserted (not of the internal echelon columns), which is
    what presentation quotients and kernel sweeps need.  Vectors are {row:
    coeff} dicts with rows in range(dim); they go into a ColumnReducer on
    reversed rows, so a column's pivot is its first nonzero row; `pivots`
    lists them in insertion order.
    """

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.pivots = []
        self.n_inserted = 0
        self._reducer = ColumnReducer(field)

    def _sparse(self, v):
        top, zero = self.dim - 1, self.field.zero
        return {top - i: x for i, x in v.items() if x != zero}

    def residue(self, v):
        """v reduced to zero at every pivot row, as a {row: coeff} dict."""
        res = self._reducer.reduce(self._sparse(v), full=True)
        return {self.dim - 1 - r: x for r, x in res.items()}

    def contains(self, v):
        return not self._reducer.reduce(self._sparse(v))

    def coords(self, v):
        """{inserted index: coeff} expressing v over the inserted vectors, or
        None.  Only independently inserted vectors appear."""
        combo = {}
        if self._reducer.reduce(self._sparse(v), combo):
            return None
        return {k: self.field.neg(c) for k, c in combo.items()}

    def insert(self, v):
        """Add v to the span.  Returns True if v was independent."""
        # invariant: each stored column == sum(combination[k] * inserted_k)
        idx = self.n_inserted
        self.n_inserted += 1
        low = self._reducer.add(self._sparse(v), {idx: self.field.one})
        if low is None:
            return False
        self.pivots.append(self.dim - 1 - low)
        return True

    @property
    def rank(self):
        return len(self.pivots)


def _reduce_columns(field, a):
    """A ColumnReducer holding the columns of the rows a, each added in order
    with the combination {c: 1}, and the combinations of the dependent
    columns.  Such a combination is c's reduced-echelon null vector: 1 at c,
    0 at every other dependent column."""
    cols = [{} for _ in a[0]] if a else []
    for i, row in enumerate(a):
        for c, x in enumerate(row):
            if x != field.zero:
                cols[c][i] = x
    red, null = ColumnReducer(field), []
    for c, col in enumerate(cols):
        combo = {c: field.one}
        if red.add(col, combo) is None:
            null.append(combo)
    return red, null


def rank(field, vectors):
    """Rank of a list of sparse vectors; they are copied, not consumed."""
    red = ColumnReducer(field)
    for v in vectors:
        red.add(dict(v))
    return red.rank


def nullspace(field, a):
    """Basis of the right null space of a (list of rows), in reduced echelon
    form: one vector per non-pivot column, in column order."""
    cols = len(a[0]) if a else 0
    return [[v.get(c, field.zero) for c in range(cols)]
            for v in _reduce_columns(field, a)[1]]


def solve(field, a, b):
    """The solution x of a x = b (a given as list of rows) that is 0 at every
    non-pivot column, or None."""
    if len(b) != len(a):
        raise ValueError(f"{len(a)} rows but {len(b)} right-hand sides")
    red, combo = _reduce_columns(field, a)[0], {}
    if red.reduce({i: x for i, x in enumerate(b) if x != field.zero}, combo):
        return None
    # b + sum combo[c] * column c == 0
    cols = len(a[0]) if a else 0
    return [field.neg(combo.get(c, field.zero)) for c in range(cols)]

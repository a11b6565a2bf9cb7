"""Exact linear algebra over a coefficient field.

Vectors are sparse: {index: coeff} dicts without zeros.  A map is a list of
such columns, one per basis vector of its source; `mat_mul` composes two
maps, `rank` is the rank of a list of vectors and `nullspace` takes the
columns of a map and returns {column index: coeff} vectors.  Only `solve`
takes a dense matrix, a list of row lists of field elements (the small Gram
systems of `filtration`).  `ColumnSpan` answers `coords` with {inserted
index: coeff}.

`ColumnReducer`, a sparse column reduction with no pivoting heuristics, is
the one elimination in the package: it is behind `rank`, `nullspace` and
`solve`, `ColumnSpan`, the linear elimination rounds of the `quadsys`
solver, barcodes, homology rank tables and kernels, and minimization.  Its
two column types, which the field picks (`exactnum`), each run the one
reduction loop and the one composition (`compose`): {row: coeff} dicts,
and over Z/2 ints whose pivot is the top bit and whose elimination is xor.
Callers see dicts, but for grid modules' packed composites, which
`packed_rank` ranks; `mat_mul` is the dict type's `compose`.  Each
result it gives here is the unique one of its kind (the reduced-echelon
null basis, the solution that is 0 at every non-pivot column), so no
routine depends on the order of reduction.
"""

from .exactnum import DictColumns


def mat_mul(field, later, earlier):
    """The map `later` after `earlier`, both lists of sparse columns, by the
    dict column type's `compose` over any field."""
    return DictColumns(field).compose(later, earlier)


class ColumnReducer:
    """Sparse column reduction over any field, the one sparse elimination in
    the package.  Columns come and go as {row: coeff} dicts without zeros;
    inside, they are kept in the field's column type (`field.columns`, see
    `exactnum`), in which `add_packed` takes them.  A column's pivot is its largest row.  A column may carry a
    combination, a {key: coeff} dict reduced alongside it, to write residues
    over added columns; keys and rows are ints >= 0."""

    def __init__(self, field):
        self.field = field
        self.kind = field.columns
        self.columns = {}       # pivot row -> (column, combination or None), packed

    @property
    def rank(self):
        return len(self.columns)

    def _reduce(self, col, combo, full):
        """Packs combo, reduces it and col (packed) by the column type's
        `reduce`, and writes the combination back into combo.  Returns col
        and combo packed, and, without full, col's largest row if col is
        nonzero."""
        kind = self.kind
        packed = None if combo is None else kind.pack(combo)
        col, packed, low = kind.reduce(self.columns, col, packed, full)
        if packed is not combo:
            combo.clear()
            combo.update(kind.unpack(packed))
        return col, packed, low

    def reduce(self, col, combo=None, full=False):
        """Reduce col (consumed; its reduction is returned), and combo with
        it in place, until its largest row is no pivot; with full, until it
        is zero at every pivot."""
        return self.kind.unpack(self._reduce(self.kind.pack(col), combo, full)[0])

    def add(self, col, combo=None):
        """Reduce col (consumed) and combo with it in place, and keep col
        unless it became zero.  Returns its pivot row, or None when col was
        dependent."""
        return self.add_packed(self.kind.pack(col), combo)

    def add_packed(self, col, combo=None):
        """`add` of a column given in the column type (consumed)."""
        col, combo, low = self._reduce(col, combo, False)
        if not col:
            return None
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


def rank(field, vectors):
    """Rank of a list of sparse vectors; they are copied, not consumed."""
    return packed_rank(field, map(field.columns.pack, vectors))


def packed_rank(field, columns):
    """Rank of a list of columns in the field's column type (`exactnum`);
    they are copied, not consumed."""
    red = ColumnReducer(field)
    for col in columns:
        red.add_packed(red.kind.copy(col))
    return red.rank


def nullspace(field, columns):
    """Basis of the null space of the map with these sparse columns (copied,
    not consumed), in reduced echelon form: one {column index: coeff} vector
    per dependent column c, in column order, 1 at c and 0 at every other
    dependent column.  Column c goes in with the combination {c: 1}, so a
    dependent column's reduced combination is that vector."""
    red, null = ColumnReducer(field), []
    for c, col in enumerate(columns):
        combo = {c: field.one}
        if red.add(dict(col), combo) is None:
            null.append(combo)
    return null


def solve(field, a, b):
    """The solution x of a x = b (a given as list of rows) that is 0 at every
    non-pivot column, or None."""
    if len(b) != len(a):
        raise ValueError(f"{len(a)} rows but {len(b)} right-hand sides")
    zero, cols = field.zero, len(a[0]) if a else 0
    red = ColumnReducer(field)
    for c in range(cols):
        red.add({i: row[c] for i, row in enumerate(a) if row[c] != zero},
                {c: field.one})
    combo = {}
    if red.reduce({i: x for i, x in enumerate(b) if x != zero}, combo):
        return None
    # b + sum combo[c] * column c == 0
    return [field.neg(combo.get(c, zero)) for c in range(cols)]

"""Exact linear algebra over a coefficient field.

`ColumnReducer`, a sparse column reduction with no pivoting heuristics, is
the one elimination in the package: it is behind `rank`, `nullspace`,
`solve` and `ColumnSpan`, the linear rounds of the `quadsys` solver,
barcodes, homology rank tables, kernels and sweeps, and minimization.  It
keeps columns in the field's column type (`exactnum`), which runs the one
reduction loop and the one composition (`compose`): {row: coeff} dicts, or
over Z/2 ints whose pivot is the top bit and whose elimination is xor.  The
presentation path (chain boundaries, the kernel sweep, `minimize`, rank
tables) and grid modules' composites (`packed_rank`) stay in that type
(`add_packed`, `reduce_packed`).  The other callers pass {index: coeff}
dicts without zeros (`add`, `reduce`), as do the helpers here: `mat_mul`
(the dict type's `compose` on lists of columns), `rank`, `nullspace`
({column index: coeff} vectors), `ColumnSpan` ({inserted index: coeff}
coordinates), and `solve`, which alone takes a dense matrix (the small Gram
systems of `filtration`).  Each result is the unique one of its kind (the
reduced-echelon null basis, the solution that is 0 at every non-pivot
column), so no routine depends on the order of reduction.
"""

from .exactnum import DictColumns


def mat_mul(field, later, earlier):
    """The map `later` after `earlier`, both lists of sparse columns, by the
    dict column type's `compose` over any field."""
    return DictColumns(field).compose(later, earlier)


class ColumnReducer:
    """Sparse column reduction over any field, the one sparse elimination in
    the package.  Columns are kept in the field's column type (`exactnum`),
    in which `reduce_packed` and `add_packed` take and give them; `reduce`
    and `add` wrap them for {row: coeff} dicts without zeros.  A column's
    pivot is its largest row.  A column may carry a combination, a {key:
    coeff} vector reduced alongside it, to write residues over added
    columns; keys and rows are ints >= 0."""

    def __init__(self, field):
        self.field = field
        self.kind = field.columns
        self.columns = {}       # pivot row -> (column, combination or None), packed

    @property
    def rank(self):
        return len(self.columns)

    def reduce_packed(self, col, combo=None, full=False):
        """Reduce col and combo (consumed) until col's largest row is no
        pivot, with full until it is zero at every pivot.  Returns (col,
        combo, without full col's largest row if col is nonzero)."""
        return self.kind.reduce(self.columns, col, combo, full)

    def add_packed(self, col, combo=None):
        """Reduce col and combo (consumed), and keep col unless it became
        zero.  Returns (its pivot row, None when col was dependent; combo)."""
        col, combo, low = self.kind.reduce(self.columns, col, combo, False)
        if not col:
            return None, combo
        self.columns[low] = (col, combo)
        return low, combo

    def _on_dicts(self, step, col, combo, *args):
        """step (either packed method) on a dict col and combo, the reduced
        combination written back into combo; dict columns reduce in place."""
        kind = self.kind
        out = step(kind.pack(col), None if combo is None else kind.pack(combo), *args)
        if out[1] is not combo:
            combo.clear()
            combo.update(kind.unpack(out[1]))
        return out

    def reduce(self, col, combo=None, full=False):
        """`reduce_packed` on dicts: returns col's reduction."""
        return self.kind.unpack(self._on_dicts(self.reduce_packed, col, combo, full)[0])

    def add(self, col, combo=None):
        """`add_packed` on dicts: returns the pivot row or None."""
        return self._on_dicts(self.add_packed, col, combo)[0]


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
        kind = self._reducer.kind
        col, combo, _ = self._reducer.reduce_packed(kind.pack(self._sparse(v)), kind.pack({}))
        return None if col else kind.unpack(kind.neg(combo))

    def insert(self, v):
        """Add v to the span.  Returns True if v was independent."""
        # invariant: each stored column == sum(combination[k] * inserted_k)
        idx, kind = self.n_inserted, self._reducer.kind
        self.n_inserted += 1
        low, _ = self._reducer.add_packed(kind.pack(self._sparse(v)), kind.unit(idx))
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

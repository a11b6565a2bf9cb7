"""Exact linear algebra over a coefficient field.

`ColumnReducer`, a sparse column reduction with no pivoting heuristics, is
the one elimination in the package: the linear rounds of the `quadsys`
solver, a chain's rank tables and barcodes (`GradedChainComplex.swept`),
kernels, sweeps and minimization, and every routine here but `packed_rank`
(and `rank`), which keeps its pivots in a plain dict (the ranks between a
grid module's points).  Both hand columns to the field's
column type (`exactnum`), which runs the one reduction loop (`reduce`) and
the one composition (`compose`): {row: coeff} dicts, or over Z/2 ints whose
pivot is the top bit and whose elimination is xor.  Its API (`add_packed`,
`reduce_packed`, and `coords`: minus the combination a column reduces with)
takes and gives columns and combinations in that type; each caller packs a
column once and unpacks only the combination it keeps.  Chain, image and
presentation grid modules take their bases and packed transitions from
`quotient_basis` and `quotient_map`, the one quotient routine.  The
helpers take {index: coeff} dicts without zeros: `mat_mul`, `rank`,
`nullspace` (the reduced-echelon null basis), `ColumnSpan` (coordinates
over inserted vectors) and `solve`, which alone takes a dense matrix (the
Gram systems of `filtration`) and gives the solution that is 0 at every
non-pivot column.  `src/` calls neither `mat_mul`, `nullspace` nor
`ColumnSpan`: the perfbench tracer binds them and test oracles use them.
"""

from .exactnum import DictColumns


def mat_mul(field, later, earlier):
    """The map `later` after `earlier`, both lists of sparse columns, by the
    dict column type's `compose` over any field."""
    return DictColumns(field).compose(later, earlier)


class ColumnReducer:
    """Sparse column reduction over any field, the one sparse elimination in
    the package.  Columns are kept in the field's column type (`exactnum`),
    in which `reduce_packed`, `add_packed` and `coords`, its only API, take
    and give them.  A column's pivot is its largest row.  A column may carry a
    combination, a {key: coeff} vector in the same type reduced alongside
    it, to write residues over added columns; keys and rows are ints >= 0."""

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

    def coords(self, col):
        """Minus the combination col (consumed) reduces with, packed: its
        coordinates over the added combinations' keys; None outside the span."""
        kind = self.kind
        col, combo, _ = kind.reduce(self.columns, col, kind.pack({}), False)
        return None if col else kind.neg(combo)


class ColumnSpan:
    """Echelon basis of a growing span of column vectors in field**dim.

    Supports membership tests, residues, and expressing a vector as a
    combination of the vectors that were inserted (not of the internal
    echelon columns).  Vectors are {row: coeff} dicts with rows in
    range(dim); they go into a ColumnReducer on reversed rows, so a column's
    pivot is its first nonzero row; `pivots` lists them in insertion order.
    """

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.pivots = []
        self.n_inserted = 0
        self._reducer = ColumnReducer(field)

    def _packed(self, v):
        top, zero = self.dim - 1, self.field.zero
        return self._reducer.kind.pack({top - i: x for i, x in v.items() if x != zero})

    def residue(self, v):
        """v reduced to zero at every pivot row, as a {row: coeff} dict."""
        res = self._reducer.reduce_packed(self._packed(v), full=True)[0]
        return {self.dim - 1 - r: x for r, x in self._reducer.kind.unpack(res).items()}

    def contains(self, v):
        return not self._reducer.reduce_packed(self._packed(v))[0]

    def coords(self, v):
        """{inserted index: coeff} expressing v over the inserted vectors, or
        None.  Only independently inserted vectors appear."""
        combo = self._reducer.coords(self._packed(v))
        return None if combo is None else self._reducer.kind.unpack(combo)

    def insert(self, v):
        """Add v to the span.  Returns True if v was independent."""
        # invariant: each stored column == sum(combination[k] * inserted_k)
        idx, kind = self.n_inserted, self._reducer.kind
        self.n_inserted += 1
        low, _ = self._reducer.add_packed(self._packed(v), kind.unit(idx))
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
    they are copied, not consumed.  Each goes through the column type's
    `reduce` into a plain {pivot: (column, None)} dict, as
    `ColumnReducer.add_packed` keeps it, with no reducer object."""
    kind, pivots = field.columns, {}
    for col in columns:
        col, _, low = kind.reduce(pivots, kind.copy(col), None, False)
        if col:
            pivots[low] = col, None
    return len(pivots)


def nullspace(field, columns):
    """Basis of the null space of the map with these sparse columns (copied,
    not consumed), in reduced echelon form: one {column index: coeff} vector
    per dependent column c, in column order, 1 at c and 0 at every other
    dependent column.  Column c goes in with the combination {c: 1}, so a
    dependent column's reduced combination is that vector."""
    red, kind, null = ColumnReducer(field), field.columns, []
    for c, col in enumerate(columns):
        low, combo = red.add_packed(kind.pack(dict(col)), kind.unit(c))
        if low is None:
            null.append(kind.unpack(combo))
    return null


def quotient_basis(field, subspace, candidates):
    """(picked keys, increasing; {key: column}; the ColumnReducer) of a
    quotient: the (key, column) candidates, in the order given, independent
    of the subspace, a ColumnReducer whose columns carry empty combinations,
    and of the earlier picks.  Each pick goes in with its key as combination
    (so `coords` reads a class's coordinates) to a shallow copy of the
    subspace's pivot dict: no reduction changes a stored column, so the
    subspace is left to grow on.  Candidates are copied, each added once."""
    red, kind, picked = ColumnReducer(field), field.columns, {}
    red.columns = dict(subspace.columns)
    for key, col in candidates:
        if red.add_packed(kind.copy(col), kind.unit(key))[0] is not None:
            picked[key] = col
    return sorted(picked), picked, red


def quotient_map(basis, basis_next):
    """The map sending each pick of `basis` to its class over the picks of
    `basis_next` (both from `quotient_basis`), as one column per pick in the
    field's column type, its rows the positions of the next picks."""
    keys, _, red = basis_next
    rows, kind, out = {key: i for i, key in enumerate(keys)}, red.kind, []
    for key in basis[0]:
        x = red.coords(kind.copy(basis[1][key]))
        if x is None:
            raise ValueError("a basis vector escapes the next quotient")
        out.append(kind.pack({rows[k]: c for k, c in kind.unpack(x).items()}))
    return out


def solve(field, a, b):
    """The solution x of a x = b (a given as list of rows) that is 0 at every
    non-pivot column, or None."""
    if len(b) != len(a):
        raise ValueError(f"{len(a)} rows but {len(b)} right-hand sides")
    zero, cols = field.zero, len(a[0]) if a else 0
    red, kind = ColumnReducer(field), field.columns
    for c in range(cols):
        red.add_packed(kind.pack({i: row[c] for i, row in enumerate(a) if row[c] != zero}),
                       kind.unit(c))
    x = red.coords(kind.pack({i: x for i, x in enumerate(b) if x != zero}))
    if x is None:
        return None
    x = kind.unpack(x)
    return [x.get(c, zero) for c in range(cols)]

"""Exact linear algebra over a coefficient field.

`rank`, `nullspace`, `solve` and `mat_mul` take dense matrices, lists of
row lists of field elements.  `ColumnReducer` takes sparse columns, {row:
coeff} dicts without zeros; `ColumnSpan` takes {row: coeff} dicts too, and
its `coords` answers with {inserted index: coeff}.  `ColumnReducer`, a
sparse column reduction with no pivoting heuristics, is the one elimination
in the package: it is behind `rank`, `nullspace` and `solve`, `ColumnSpan`,
the linear elimination rounds of the `quadsys` solver, barcodes, homology
rank tables and minimization.  Each result it gives here is the unique one
of its kind (the reduced-echelon null basis, the solution that is 0 at
every non-pivot column), so no routine depends on the order of reduction.
"""


def zeros(field, rows, cols):
    return [[field.zero] * cols for _ in range(rows)]


def identity(field, n):
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def mat_mul(field, a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(field, rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x == field.zero:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j] != field.zero:
                    oi[j] = field.add(oi[j], field.mul(x, bk[j]))
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


def rank(field, a):
    """Rank of the rows a, each reduced as one column."""
    red = ColumnReducer(field)
    for row in a:
        red.add({c: x for c, x in enumerate(row) if x != field.zero})
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

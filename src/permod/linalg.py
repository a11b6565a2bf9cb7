"""Exact linear algebra over a coefficient field.

Matrices are lists of row lists of field elements.  Everything is Gaussian
elimination at desk scale; no pivoting heuristics beyond "first nonzero",
which keeps every routine deterministic.  `gauss_jordan` is the one dense
reduction, behind `rank`, `nullspace` and `solve`, and the linear elimination
rounds of the `quadsys` solver; `ColumnReducer` is the one sparse one, behind
`ColumnSpan`, barcodes, homology rank tables and minimization.
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


def mat_vec(field, a, v):
    out = [field.zero] * len(a)
    for i, row in enumerate(a):
        acc = field.zero
        for x, y in zip(row, v):
            if x != field.zero and y != field.zero:
                acc = field.add(acc, field.mul(x, y))
        out[i] = acc
    return out


def gauss_jordan(field, a, ncols):
    """Reduced row echelon form of a copy of the rows a, pivoting on the
    first ncols columns only.  Returns (reduced rows, pivot_of_col), where
    pivot_of_col[c] is the row holding column c's pivot, or None."""
    m = [row[:] for row in a]
    rows = len(m)
    pivot_of_col = [None] * ncols
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if m[i][c] != field.zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivot_of_col[c] = r
        r += 1
        if r == rows:
            break
    return m, pivot_of_col


def rank(field, a):
    if not a or not a[0]:
        return 0
    _, pivot_of_col = gauss_jordan(field, a, len(a[0]))
    return len(pivot_of_col) - pivot_of_col.count(None)


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
    what presentation quotients and kernel sweeps need.  Vectors (dense or
    {row: coeff}) go into a ColumnReducer on reversed rows, so a column's
    pivot is its first nonzero row; `pivots` lists them in insertion order.
    """

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.pivots = []
        self.n_inserted = 0
        self._reducer = ColumnReducer(field)

    def _sparse(self, v):
        top, zero = self.dim - 1, self.field.zero
        return {top - i: x for i, x in (v.items() if isinstance(v, dict) else
                                        enumerate(v)) if x != zero}

    def residue(self, v):
        """v reduced to zero at every pivot row, as a {row: coeff} dict."""
        res = self._reducer.reduce(self._sparse(v), full=True)
        return {self.dim - 1 - r: x for r, x in res.items()}

    def contains(self, v):
        return not self._reducer.reduce(self._sparse(v))

    def coords(self, v):
        """Coefficients over inserted vectors expressing v, or None."""
        combo = {}
        if self._reducer.reduce(self._sparse(v), combo):
            return None
        f = self.field
        return [f.neg(combo.get(k, f.zero)) for k in range(self.n_inserted)]

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


def nullspace(field, a):
    """Basis of the right null space of a (list of column vectors)."""
    if not a:
        return []
    cols = len(a[0])
    if cols == 0:
        return []
    m, pivot_of_col = gauss_jordan(field, a, cols)
    basis = []
    for c in range(cols):
        if pivot_of_col[c] is not None:
            continue
        v = [field.zero] * cols
        v[c] = field.one
        for c2 in range(cols):
            pr = pivot_of_col[c2]
            if pr is not None:
                v[c2] = field.neg(m[pr][c])
        basis.append(v)
    return basis


def solve(field, a, b):
    """One solution x of a x = b, or None.  a given as list of rows."""
    if not a or not a[0]:
        return [] if all(x == field.zero for x in b) else None
    cols = len(a[0])
    m, pivot_of_col = gauss_jordan(field, [row + [bv] for row, bv in zip(a, b)],
                                    cols)
    for row in m:
        if all(x == field.zero for x in row[:cols]) and row[cols] != field.zero:
            return None
    x = [field.zero] * cols
    for c in range(cols):
        if pivot_of_col[c] is not None:
            x[c] = m[pivot_of_col[c]][cols]
    return x

"""Reference copies of the dense row-swapping Gauss-Jordan elimination that
``permod.linalg`` replaced with its one sparse ``ColumnReducer``: the three
loops behind ``rank``, ``nullspace`` and ``solve``, and ``gauss_jordan``,
the routine they were later folded into, which also ran the linear rounds
of the ``quadsys`` solver.  Kept as they were, as oracles: the rewritten
code must give the same ranks, null bases, solutions and elimination rounds.
``solve`` still pairs rows with right-hand sides by zip, so it must only be
given as many right-hand sides as rows.

Also here: the dense ``zeros``, ``identity`` and ``mat_mul`` that grid
modules composed their transitions with before transitions became sparse
columns (nothing in the library uses dense products now; ``mat_mul`` takes
the column count, which rows cannot carry through a zero space), and ``rows_of``
and ``columns_of``, which turn a map of sparse columns into the dense rows
the oracles read, and back.

Last, ``DictColumnReducer`` and ``DictColumnSpan``, the sparse reduction
and span as they were when every field kept {row: coeff} dict columns
(before Z/2 columns became int bitsets), and ``column_nullspace``, the
dense-matrix null space that ran on that reduction.
"""


def zeros(field, rows, cols):
    return [[field.zero] * cols for _ in range(rows)]


def identity(field, n):
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def mat_mul(field, a, b, cols):
    """a times b, both dense rows; b (and so the product) has cols columns.
    The shape is passed, not read off b: a map out of a zero space has no
    rows, and the product through one is the rows x cols zero map."""
    rows, inner = len(a), len(b)
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


def rows_of(field, cols, nrows):
    """The dense rows (nrows of them) of a map given as sparse columns."""
    return [[col.get(r, field.zero) for col in cols] for r in range(nrows)]


def columns_of(field, rows, ncols):
    """The sparse columns (ncols of them) of a map given as dense rows."""
    return [{r: row[c] for r, row in enumerate(rows) if row[c] != field.zero}
            for c in range(ncols)]


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
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
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
        r += 1
        if r == rows:
            break
    return r


def nullspace(field, a):
    """Basis of the right null space of a (list of column vectors)."""
    if not a:
        return []
    rows, cols = len(a), len(a[0])
    if cols == 0:
        return []
    m = [row[:] for row in a]
    pivot_of_col = [None] * cols
    r = 0
    for c in range(cols):
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
    rows, cols = len(a), len(a[0])
    m = [row[:] + [bv] for row, bv in zip(a, b)]
    pivot_of_col = [None] * cols
    r = 0
    for c in range(cols):
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
    for i in range(rows):
        if all(x == field.zero for x in m[i][:cols]) and m[i][cols] != field.zero:
            return None
    x = [field.zero] * cols
    for c in range(cols):
        if pivot_of_col[c] is not None:
            x[c] = m[pivot_of_col[c]][cols]
    return x


def subtract_multiple(f, target, c, source):
    """target -= c * source on {key: coeff} dicts, dropping zero entries."""
    zero = f.zero
    for r, x in source.items():
        v = f.sub(target.get(r, zero), f.mul(c, x))
        if v == zero:
            target.pop(r, None)
        else:
            target[r] = v


class DictColumnReducer:
    """Sparse column reduction on {row: coeff} dicts over any field; a
    column's pivot is its largest row.  A column may carry a combination, a
    {key: coeff} dict reduced alongside it."""

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


class DictColumnSpan:
    """Echelon basis of a growing span of {row: coeff} vectors in
    field**dim, on a DictColumnReducer over reversed rows, so a column's
    pivot is its first nonzero row."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.pivots = []
        self.n_inserted = 0
        self._reducer = DictColumnReducer(field)

    def _sparse(self, v):
        top, zero = self.dim - 1, self.field.zero
        return {top - i: x for i, x in v.items() if x != zero}

    def residue(self, v):
        res = self._reducer.reduce(self._sparse(v), full=True)
        return {self.dim - 1 - r: x for r, x in res.items()}

    def contains(self, v):
        return not self._reducer.reduce(self._sparse(v))

    def coords(self, v):
        combo = {}
        if self._reducer.reduce(self._sparse(v), combo):
            return None
        return {k: self.field.neg(c) for k, c in combo.items()}

    def insert(self, v):
        idx = self.n_inserted
        self.n_inserted += 1
        low = self._reducer.add(self._sparse(v), {idx: self.field.one})
        if low is None:
            return False
        self.pivots.append(self.dim - 1 - low)
        return True


def column_nullspace(field, a):
    """Basis of the right null space of a (list of rows), in reduced echelon
    form: one vector per non-pivot column, in column order, from a
    DictColumnReducer that adds column c with the combination {c: 1}."""
    ncols = len(a[0]) if a else 0
    red, null = DictColumnReducer(field), []
    for c in range(ncols):
        combo = {c: field.one}
        if red.add({i: row[c] for i, row in enumerate(a) if row[c] != field.zero},
                   combo) is None:
            null.append(combo)
    return [[v.get(c, field.zero) for c in range(ncols)] for v in null]

"""Dense exact linear algebra over a coefficient field.

Matrices are lists of row lists of field elements.  Everything is Gaussian
elimination at desk scale; no pivoting heuristics beyond "first nonzero",
which keeps every routine deterministic.  `gauss_jordan` is the one reduction
behind `rank`, `nullspace` and `solve`, and the linear elimination rounds of
the `quadsys` solver.
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


class ColumnSpan:
    """Echelon basis of a growing span of column vectors in field**dim.

    Supports membership tests and expressing a vector as a combination of the
    vectors that were inserted (not of the internal echelon columns), which is
    what presentation quotients and kernel sweeps need.
    """

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
        # invariant: col == sum(comb[i] * inserted_i); res == v + sum(combo[i] * inserted_i)
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

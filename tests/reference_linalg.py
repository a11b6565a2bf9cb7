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
columns (nothing in the library uses dense products now), and ``rows_of``
and ``columns_of``, which turn a map of sparse columns into the dense rows
the oracles read, and back.
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

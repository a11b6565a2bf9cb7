"""The one composition kernel and the packed rank against the dense oracles
of reference_linalg.py.

Each column type's `compose` must give the dense product, and `rank` on
packed columns the dense rank, over Z/2 (int bitsets), Z/3 and Q (dicts):
on seeded random sparse maps with empty columns, maps into and out of a
zero space and through one, and identities.  `linalg.mat_mul`, the dict
type's `compose` over any field, must give the dense product too, with no
zero entries kept."""

from fractions import Fraction as F

from permod.exactnum import QQ, PrimeField
from permod.linalg import mat_mul, packed_rank, rank

import reference_linalg as ref
from reference_linalg import rows_of
from conftest import seeded

FIELDS = (PrimeField(2), PrimeField(3), QQ)


def random_map(rng, f, rows, cols):
    """rows x cols as sparse columns, about a third of them empty."""
    out = []
    for _ in range(cols):
        col = {}
        if rng.random() > 0.3:
            for r in range(rows):
                x = f.of(F(rng.randint(0, 4), rng.randint(1, 2) if f == QQ else 1))
                if rng.random() < 0.4 and x != f.zero:
                    col[r] = x
        out.append(col)
    return out


def identity(f, n):
    return [{k: f.one} for k in range(n)]


def shapes(rng):
    """(rows, inner, cols): mostly nonzero, then each of the three zero."""
    for _ in range(60):
        yield tuple(rng.randint(1, 7) for _ in range(3))
    for zero in range(3):
        for _ in range(5):
            dims = [rng.randint(1, 5) for _ in range(3)]
            dims[zero] = 0
            yield tuple(dims)


def dense_product(f, later, earlier, rows, inner, cols):
    """The dense rows of later after earlier."""
    return ref.mat_mul(f, rows_of(f, later, rows), rows_of(f, earlier, inner), cols)


def packed(f, cols):
    return [f.columns.pack(c) for c in cols]


def test_compose_and_mat_mul_give_the_dense_product():
    rng = seeded(401)
    for f in FIELDS:
        kind = f.columns
        for rows, inner, cols in shapes(rng):
            later, earlier = random_map(rng, f, rows, inner), random_map(rng, f, inner, cols)
            want = dense_product(f, later, earlier, rows, inner, cols)
            got = mat_mul(f, later, earlier)
            assert len(got) == cols and rows_of(f, got, rows) == want
            assert all(f.zero not in col.values() for col in got)
            assert [kind.unpack(c) for c in kind.compose(packed(f, later),
                                                           packed(f, earlier))] == got
            # identities on either side give the map back
            assert mat_mul(f, later, identity(f, inner)) == later
            assert mat_mul(f, identity(f, rows), later) == later
            assert kind.compose(packed(f, identity(f, rows)), packed(f, later)) == \
                packed(f, later)


def test_packed_rank_gives_the_dense_rank():
    rng = seeded(409)
    for f in FIELDS:
        for rows, _, cols in shapes(rng):
            m = random_map(rng, f, rows, cols)
            want = ref.rank(f, rows_of(f, m, rows))
            cols_packed = packed(f, m)
            before = [f.columns.copy(c) for c in cols_packed]
            assert rank(f, m) == packed_rank(f, cols_packed) == want
            assert cols_packed == before         # copied, not consumed
        for n in range(6):
            assert packed_rank(f, packed(f, identity(f, n))) == n

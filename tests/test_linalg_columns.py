"""The two column types of `linalg.ColumnReducer` against the dict-only
reduction they grew out of (kept in reference_linalg.py).

Over Z/2 the reducer keeps int bitset columns.  Through its packed API
(`add_packed`, `reduce_packed`, combinations in the column type too, read
back with `unpack`) it must give the same pivots, combinations, full
residues and stored columns as the dict reduction over every field, and
`ColumnSpan` the same pivots, coordinates and residues; the column types'
unit and negated columns must have their dict meaning.  The sparse
`nullspace` must give the dense oracles' reduced-echelon basis over Z/2,
Z/5 and Q."""

from fractions import Fraction as F

from permod.exactnum import QQ, BitColumns, PrimeField
from permod.linalg import ColumnReducer, ColumnSpan, nullspace

import reference_linalg as ref
from conftest import dense, seeded

FIELDS = (PrimeField(2), PrimeField(5), QQ)


def random_vector(rng, field, dim, density):
    v = {}
    for r in range(dim):
        if rng.random() < density:
            x = field.of(F(rng.randint(1, 4), rng.randint(1, 2) if field == QQ else 1))
            if x != field.zero:
                v[r] = x
    return v


def test_z2_reduces_on_bitsets():
    f2 = PrimeField(2)
    assert isinstance(f2.columns, BitColumns)
    red = ColumnReducer(f2)
    assert red.add_packed(0b100001, 0b1000) == (5, 0b1000)
    assert red.add_packed(0b10100001, 0b10000) == (7, 0b10000)
    assert red.add_packed(0b100001, 0b1000) == (None, 0)
    assert all(type(col) is int for col, _ in red.columns.values())


def test_reducer_matches_dict_reduction():
    rng = seeded(401)
    for field in FIELDS:
        kind = field.columns
        for _ in range(20):
            dim = rng.randint(1, 40)
            density = rng.choice((0.05, 0.2, 0.5))
            red, want = ColumnReducer(field), ref.DictColumnReducer(field)
            for k in range(rng.randint(1, 25)):
                v = random_vector(rng, field, dim, density)
                combo = {k: field.one, rng.randrange(100): field.one}
                low, got = red.add_packed(kind.pack(dict(v)), kind.pack(dict(combo)))
                assert low == want.add(dict(v), combo)
                assert kind.unpack(got) == combo
                assert red.rank == want.rank
                v = random_vector(rng, field, dim, density)
                for full in (False, True):
                    combo = {}
                    reduced = want.reduce(dict(v), combo, full=full)
                    col, got, low = red.reduce_packed(kind.pack(dict(v)), kind.pack({}), full)
                    assert (kind.unpack(col), kind.unpack(got)) == (reduced, combo)
                    if reduced and not full:
                        assert low == max(reduced)
                col = red.reduce_packed(kind.pack(dict(v)), full=True)[0]
                assert kind.unpack(col) == want.reduce(dict(v), full=True)
            assert {r: (kind.unpack(c), kind.unpack(x)) for r, (c, x) in red.columns.items()} \
                == want.columns


def test_column_type_units_and_negatives():
    rng = seeded(431)
    for field in (PrimeField(2), PrimeField(3), QQ):
        kind = field.columns
        for _ in range(20):
            r = rng.randrange(60)
            assert kind.unpack(kind.unit(r)) == {r: field.one}
            v = random_vector(rng, field, 30, 0.3)
            assert kind.unpack(kind.neg(kind.pack(dict(v)))) == \
                {i: field.neg(x) for i, x in v.items()}


def test_span_matches_dict_span():
    rng = seeded(409)
    for field in FIELDS:
        for _ in range(20):
            dim = rng.randint(1, 30)
            span, want = ColumnSpan(field, dim), ref.DictColumnSpan(field, dim)
            inserted = []
            for _ in range(rng.randint(1, 20)):
                v = random_vector(rng, field, dim, rng.choice((0.1, 0.3)))
                assert span.insert(v) == want.insert(v)
                inserted.append(v)
                assert span.pivots == want.pivots
                # a sum of inserted vectors lies in the span
                w = {}
                for u in rng.sample(inserted, rng.randint(1, len(inserted))):
                    ref.subtract_multiple(field, w, field.neg(field.one), u)
                for probe in (w, random_vector(rng, field, dim, 0.3)):
                    assert span.coords(probe) == want.coords(probe)
                    assert span.contains(probe) == want.contains(probe)
                    assert span.residue(probe) == want.residue(probe)


def test_sparse_nullspace_matches_dense_oracles():
    rng = seeded(419)
    for field in FIELDS:
        for _ in range(80):
            rows, cols = rng.randint(1, 12), rng.randint(0, 12)
            a = [dense(field, random_vector(rng, field, cols, rng.choice((0.15, 0.4))),
                       cols) for _ in range(rows)]
            got = nullspace(field, ref.columns_of(field, a, cols))
            assert all(field.zero not in v.values() for v in got)
            got = [dense(field, v, cols) for v in got]
            assert got == ref.nullspace(field, a) == ref.column_nullspace(field, a)
    # the columns are copied, not consumed; a map to a zero space has a full kernel
    cols = [{0: 1, 2: 1}, {}, {0: 1, 2: 1}]
    assert nullspace(PrimeField(2), cols) == [{1: 1}, {0: 1, 2: 1}]
    assert cols == [{0: 1, 2: 1}, {}, {0: 1, 2: 1}]
    assert nullspace(QQ, [{}, {}]) == [{0: 1}, {1: 1}]

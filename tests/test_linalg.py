import random

import pytest

from permod.exactnum import QQ, PrimeField
from permod.linalg import ColumnSpan, mat_mul, nullspace, rank, solve

from conftest import dense, mat_vec
from reference_linalg import columns_of


def brute_rank_z2(mat):
    """Rank over Z/2 by enumerating row-space size."""
    rows = [tuple(r) for r in mat]
    space = {tuple([0] * len(mat[0]))}
    for r in rows:
        space |= {tuple((a + b) % 2 for a, b in zip(r, s)) for s in space}
    import math
    return int(math.log2(len(space)))


def test_rank_against_bruteforce():
    rng = random.Random(0)
    f2 = PrimeField(2)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        assert rank(f2, columns_of(f2, m, cols)) == brute_rank_z2(m)


def test_nullspace_and_solve():
    rng = random.Random(1)
    f5 = PrimeField(5)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randrange(5) for _ in range(cols)] for _ in range(rows)]
        null = nullspace(f5, columns_of(f5, m, cols))
        for v in null:
            assert all(x == 0 for x in mat_vec(f5, m, dense(f5, v, cols)))
        assert len(null) == cols - rank(f5, columns_of(f5, m, cols))
        x = [rng.randrange(5) for _ in range(cols)]
        b = mat_vec(f5, m, x)
        got = solve(f5, m, b)
        assert got is not None
        assert mat_vec(f5, m, got) == b
        # infeasible for generic rhs when rank-deficient rows exist
    assert solve(f5, [[0, 0]], [3]) is None


def test_solve_rejects_length_mismatch():
    f2 = PrimeField(2)
    # an extra right-hand side would drop the unsatisfiable 0 = 1, and a
    # missing one would leave row 2 unconstrained
    for a, b in (([[1]], [0, 1]), ([[1], [1]], [1]), ([], [1]), ([[]], [])):
        with pytest.raises(ValueError):
            solve(f2, a, b)
    assert solve(f2, [[1], [1]], [1, 1]) == [1]
    assert solve(f2, [[1], [1]], [0, 1]) is None


def test_column_span_coords():
    rng = random.Random(2)
    for field in (PrimeField(5), QQ):
        for _ in range(25):
            dim = rng.randint(1, 5)
            span = ColumnSpan(field, dim)
            vecs = []
            for _ in range(rng.randint(1, 6)):
                v = [field.of(rng.randrange(5)) for _ in range(dim)]
                span.insert(dict(enumerate(v)))
                vecs.append(v)
            # a random combination must be recognized with valid coords
            lam = [field.of(rng.randrange(5)) for _ in vecs]
            target = [field.zero] * dim
            for c, v in zip(lam, vecs):
                target = [field.add(t, field.mul(c, x)) for t, x in zip(target, v)]
            coords = span.coords(dict(enumerate(target)))
            assert coords is not None
            coords = dense(field, coords, len(vecs))
            rebuilt = [field.zero] * dim
            for c, v in zip(coords, vecs):
                rebuilt = [field.add(t, field.mul(c, x)) for t, x in zip(rebuilt, v)]
            assert rebuilt == target


def test_matmul_identity():
    """Maps are lists of sparse columns; the identity is one {i: 1} column
    per basis vector, and a map from or to a zero space needs no width."""
    f3 = PrimeField(3)
    m = [{0: 1, 2: 2}, {0: 2, 1: 1, 2: 2}]          # 3 x 2
    assert mat_mul(f3, m, [{0: 1}, {1: 1}]) == m
    assert mat_mul(f3, [{i: 1} for i in range(3)], m) == m
    assert mat_mul(f3, m, []) == []
    assert mat_mul(f3, [], [{}, {}]) == [{}, {}]
    # entries that cancel are dropped: (1 1) after (1 2)^T is 1 + 2 = 0
    assert mat_mul(f3, [{0: 1}, {0: 1}], [{0: 1, 1: 2}]) == [{}]

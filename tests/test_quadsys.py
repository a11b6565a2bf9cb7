import itertools
import random
from fractions import Fraction as F

import pytest

from permod.exactnum import QQ, PrimeField
from permod.quadsys import (BudgetExceeded, QuadEquation, QuadraticSystem,
                            QuadSysError, evaluate, export_system, parse_system,
                            solve_finite_field)

from conftest import address_space_limit, root_elimination


def systems_equal(a, b):
    """Structural equality after normalization (used by round-trip tests)."""
    if a.field != b.field or a.nvars != b.nvars:
        return False
    if len(a.equations) != len(b.equations):
        return False
    for ea, eb in zip(a.equations, b.equations):
        if ea.quad != eb.quad or ea.lin != eb.lin or ea.const != eb.const:
            return False
    return True


def eq(field, quad=None, lin=None, const=0):
    return QuadEquation(quad or {}, lin or {}, field.of(const))


def exhaustive_solvable(system):
    f = system.field
    dom = list(f.elements())
    for assign in itertools.product(dom, repeat=system.nvars):
        if evaluate(system, list(assign)) is None:
            return True
    return False


def random_system(rng, field, nvars, neqs):
    p = field.p
    eqs = []
    for _ in range(neqs):
        quad = {}
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randint(1, nvars), rng.randint(1, nvars)
            key = (min(i, j), max(i, j))
            quad[key] = rng.randrange(p)
        lin = {rng.randint(1, nvars): rng.randrange(p)
               for _ in range(rng.randint(0, 3))}
        eqs.append(QuadEquation(quad, lin, rng.randrange(p)))
    return QuadraticSystem(field, nvars, eqs)


class TestEvaluate:
    def test_empty_system(self, f2):
        s = QuadraticSystem(f2, 3, [])
        assert evaluate(s, [0, 1, 0]) is None

    def test_z2_example(self, f2):
        s = QuadraticSystem(f2, 1, [eq(f2, lin={1: 1}, const=1)])
        assert evaluate(s, [1]) is None        # 1 + 1 = 0 in Z/2

    def test_first_violation_index(self, f2):
        s = QuadraticSystem(f2, 1, [eq(f2, lin={1: 1}),
                                    eq(f2, lin={1: 1}, const=1)])
        assert evaluate(s, [0]) == 2

    def test_length_mismatch(self, f2):
        s = QuadraticSystem(f2, 2, [])
        with pytest.raises(QuadSysError):
            evaluate(s, [0])


class TestSolver:
    def test_trivial_square(self, f2):
        s = QuadraticSystem(f2, 1, [eq(f2, quad={(1, 1): 1}, lin={1: 1})])
        res = solve_finite_field(s)
        assert res.status == "solvable"
        assert evaluate(s, res.witness) is None

    def test_xy_plus_one(self, f2):
        s = QuadraticSystem(f2, 2, [eq(f2, quad={(1, 2): 1}, const=1),
                                    eq(f2, lin={1: 1, 2: 1})])
        res = solve_finite_field(s)
        assert res.status == "solvable"
        assert res.witness == [1, 1]

    def test_irreducible_quadratic(self, f2):
        s = QuadraticSystem(f2, 1, [eq(f2, quad={(1, 1): 1}, lin={1: 1}, const=1)])
        assert solve_finite_field(s).status == "unsolvable"

    def test_constants_reduced_into_field(self, f2):
        s = QuadraticSystem(f2, 1, [QuadEquation({}, {}, 2)])
        assert evaluate(s, [0]) is None
        assert solve_finite_field(s).status == "solvable"
        s = QuadraticSystem(f2, 1, [QuadEquation({}, {1: 1}, 3)])
        assert solve_finite_field(s).witness == [1]

    def test_unnormalized_input_comes_out_normalized(self, f3):
        """A key (2, 1), an explicit zero and a coefficient p + 1 are
        normalized in a copy; the caller's equation is left as it was."""
        given = QuadEquation({(2, 1): 4, (1, 1): 0}, {1: 0, 2: 5}, 7)
        s = QuadraticSystem(f3, 2, [given])
        got = s.equations[0]
        assert got is not given
        assert (got.quad, got.lin, got.const) == ({(1, 2): 1}, {2: 2}, 1)
        assert got.vars == {1, 2}
        assert (given.quad, given.lin, given.const) == ({(2, 1): 4, (1, 1): 0},
                                                        {1: 0, 2: 5}, 7)
        assert export_system(s) == ("QUADSYS\nfield zp 3\nvars 2\n"
                                    "eq: 1 1 2  2 2 0  1 0 0\nEND\n")

    def test_fraction_coefficients_taken_into_the_field(self, f3):
        """A Fraction coefficient over Z/p comes out as an int residue, in
        the quadratic and linear terms and the constant alike."""
        given = QuadEquation({(1, 2): F(4)}, {1: F(1), 2: F(3)}, F(5))
        got = QuadraticSystem(f3, 2, [given]).equations[0]
        assert (got.quad, got.lin, got.const) == ({(1, 2): 1}, {1: 1}, 2)
        assert all(type(c) is int for c in [*got.quad.values(), *got.lin.values(),
                                             got.const])
        got = QuadraticSystem(f3, 1, [QuadEquation(lin={1: F(1)})]).equations[0]
        assert type(got.lin[1]) is int
        with pytest.raises(ValueError, match="1/2"):
            QuadraticSystem(f3, 1, [QuadEquation(lin={1: F(1, 2)})])

    def test_normal_equations_kept_as_given(self, f3):
        normal = QuadEquation({(1, 2): 2}, {2: 1}, 0)
        # a non-canonical constant, a coefficient that is no int or terms
        # changed after construction (stale vars) make a normalized copy
        for other in (QuadEquation({}, {1: 1}, 3), QuadEquation({}, {1: True}, 0),
                      QuadEquation({}, {1: F(1)}, 0)):
            got = QuadraticSystem(f3, 2, [other]).equations[0]
            assert got is not other and (got.lin, got.const) == ({1: 1}, other.const % 3)
        stale = QuadEquation({}, {1: 1}, 0)
        stale.quad[(1, 2)] = 1
        got = QuadraticSystem(f3, 2, [stale]).equations[0]
        assert got is not stale and got.vars == {1, 2}
        with pytest.raises(QuadSysError, match="index 3 out of range"):
            QuadraticSystem(f3, 2, [normal, QuadEquation({(1, 3): 1})])

    def test_equation_copies_the_terms_given(self, f3):
        """A dict changed after it built an equation leaves the equation, its
        vars and the solver's answer as they were."""
        quad, lin = {(1, 2): 1}, {1: 1}
        s = QuadraticSystem(f3, 2, [QuadEquation(quad, lin, 0)])
        quad[(2, 2)], lin[1] = 1, 2
        e = s.equations[0]
        assert (e.quad, e.lin, e.vars) == ({(1, 2): 1}, {1: 1}, {1, 2})
        assert solve_finite_field(s).witness == [0, 0]

    def test_agrees_with_enumeration_z2(self, f2):
        rng = random.Random(3)
        for _ in range(60):
            s = random_system(rng, f2, rng.randint(1, 8), rng.randint(1, 6))
            res = solve_finite_field(s)
            assert (res.status == "solvable") == exhaustive_solvable(s)
            if res.status == "solvable":
                assert evaluate(s, res.witness) is None

    def test_agrees_with_enumeration_z3(self, f3):
        rng = random.Random(4)
        for _ in range(40):
            s = random_system(rng, f3, rng.randint(1, 6), rng.randint(1, 5))
            res = solve_finite_field(s)
            assert (res.status == "solvable") == exhaustive_solvable(s)

    def test_linear_elimination_preserves_solvability(self, f3):
        rng = random.Random(5)
        for _ in range(30):
            s = random_system(rng, f3, rng.randint(1, 5), rng.randint(1, 4))
            out = root_elimination(f3, s.equations)
            if out is None:
                assert not exhaustive_solvable(s)
                continue
            eqs, _ = out
            vars_left = sorted({v for e in eqs for v in e.variables()})
            remap = {v: i + 1 for i, v in enumerate(vars_left)}
            remapped = [QuadEquation({(remap[i], remap[j]): c
                                      for (i, j), c in e.quad.items()},
                                     {remap[i]: c for i, c in e.lin.items()},
                                     e.const) for e in eqs]
            reduced = QuadraticSystem(f3, len(vars_left), remapped)
            assert exhaustive_solvable(s) == exhaustive_solvable(reduced)

    def test_deep_search_without_recursion(self, f2):
        """1200 independent x_{2i-1} x_{2i} = 0 branch 1200 levels deep."""
        s = QuadraticSystem(f2, 2400, [eq(f2, quad={(2 * i - 1, 2 * i): 1})
                                       for i in range(1, 1201)])
        res = solve_finite_field(s)
        assert res.status == "solvable"
        assert evaluate(s, res.witness) is None

    def test_budget(self, f3):
        rng = random.Random(6)
        s = random_system(rng, f3, 6, 4)
        with pytest.raises(BudgetExceeded):
            solve_finite_field(s, budget=0)

    def test_negative_budget_refused(self, f3):
        # budget 0 allows elimination only; below it nothing is searched
        s = random_system(random.Random(6), f3, 6, 4)
        with pytest.raises(QuadSysError, match="budget must be >= 0"):
            solve_finite_field(s, budget=-1)
        assert solve_finite_field(QuadraticSystem(f3, 1, [eq(f3, lin={1: 1})]),
                                  budget=0).status == "solvable"

    def test_largest_prime_walks_values_lazily(self):
        """Over Z/(2^31 - 1) a frame walks the values as it needs them:
        x^2 = 1 is solved at the second value, and x^2 = -1, which has no
        root since p = 3 mod 4, runs out of a 100-node budget at once."""
        f = PrimeField(2 ** 31 - 1)
        s = QuadraticSystem(f, 1, [eq(f, quad={(1, 1): 1}, const=-1)])
        with address_space_limit():
            res = solve_finite_field(s)
        assert (res.status, res.witness, res.nodes) == ("solvable", [1], 2)
        assert evaluate(s, res.witness) is None
        s = QuadraticSystem(f, 1, [eq(f, quad={(1, 1): 1}, const=1)])
        with address_space_limit(), pytest.raises(BudgetExceeded) as exc:
            solve_finite_field(s, budget=100)
        assert exc.value.nodes == 101

    def test_rationals_refused(self):
        s = QuadraticSystem(QQ, 1, [])
        with pytest.raises(QuadSysError, match="export-only"):
            solve_finite_field(s)


class TestTextFormat:
    def test_empty_system(self, f2):
        s = QuadraticSystem(f2, 0, [])
        assert export_system(s) == "QUADSYS\nfield zp 2\nvars 0\nEND\n"

    def test_single_product(self, f2):
        s = QuadraticSystem(f2, 2, [eq(f2, quad={(1, 2): 1}, const=1)])
        assert "eq: 1 1 2  1 0 0" in export_system(s)

    def test_roundtrip_random(self, f3):
        rng = random.Random(7)
        for _ in range(25):
            s = random_system(rng, f3, rng.randint(1, 6), rng.randint(0, 5))
            assert systems_equal(parse_system(export_system(s)), s)

    def test_roundtrip_rational(self):
        s = QuadraticSystem(QQ, 2, [QuadEquation({(1, 2): F(3, 4)},
                                                 {1: F(-1, 2)}, F(5))])
        assert systems_equal(parse_system(export_system(s)), s)

    def test_negative_variable_count_rejected(self, f2):
        with pytest.raises(QuadSysError, match="negative variable count -1"):
            parse_system("QUADSYS\nfield zp 2\nvars -1\nEND\n")
        with pytest.raises(QuadSysError, match="negative variable count -2"):
            QuadraticSystem(f2, -2, [])
        assert parse_system("QUADSYS\nfield zp 2\nvars 0\nEND\n").nvars == 0

    def test_variable_index_guard(self, f2):
        with pytest.raises(QuadSysError):
            QuadraticSystem(f2, 1, [eq(f2, lin={2: 1})])
        for term in ("1 2 0", "1 1 2", "1 -1 0"):
            with pytest.raises(QuadSysError, match="out of range"):
                parse_system(f"QUADSYS\nfield zp 2\nvars 1\neq: {term}\nEND\n")

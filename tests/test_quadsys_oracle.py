"""The column-reduction elimination rounds and the explicit-stack search
against the solvers they replaced (kept in reference_quadsys.py): the same
status, witness and node count, the same node count when the budget runs
out, and the same rounds as the Gauss-Jordan elimination, on seeded random
systems and on interleaving systems of random 2-parameter presentation
pairs."""

from fractions import Fraction as F

import pytest

from permod.exactnum import PrimeField
from permod.interleave import assemble_system
from permod.presentation import MonotoneAffineMap
from permod.quadsys import (BudgetExceeded, QuadEquation, QuadraticSystem, _Search,
                            solve_finite_field)

import reference_quadsys as ref
from conftest import random_presentation, rerepresent, root_elimination, seeded

FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5))


def random_system(rng, field, nvars, neqs):
    """Random affine-quadratic system.  A quarter of the equations are
    linear and most constants are zero, so elimination often runs several
    rounds and the search still goes deep."""
    eqs = []
    for _ in range(neqs):
        quad = {}
        if rng.random() < 0.75:
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randint(1, nvars), rng.randint(1, nvars)
                quad[(min(i, j), max(i, j))] = rng.randrange(field.p)
        lin = {rng.randint(1, nvars): rng.randrange(field.p)
               for _ in range(rng.randint(0, 4))}
        const = rng.randrange(field.p) if rng.random() < 0.4 else 0
        eqs.append(QuadEquation(quad, lin, const))
    return QuadraticSystem(field, nvars, eqs)


def interleaving_systems(seed, count):
    """Systems deciding eps-interleaving of random 2-parameter pairs: a
    presentation against two other representations of itself and against
    an unrelated one, at several eps."""
    rng = seeded(seed)
    pool = [F(k, 2) for k in range(0, 7)]
    out = []
    for field in FIELDS:
        for _ in range(count):
            m = random_presentation(rng, field, n=2, max_gens=4, max_rels=3,
                                    grade_pool=pool)
            for n in (rerepresent(rng, m, add_redundant=False),
                      rerepresent(rng, m),
                      random_presentation(rng, field, n=2, max_gens=4,
                                          max_rels=3, grade_pool=pool)):
                for eps in (F(0), F(1, 2), F(3, 2)):
                    j = MonotoneAffineMap.translation(2, eps)
                    out.append(assemble_system(m, n, j, j).system)
    return out


def outcome(solve, system, budget):
    try:
        res = solve(system, budget=budget)
    except BudgetExceeded as exc:
        return ("budget", exc.nodes)
    return (res.status, res.witness, res.nodes)


def assert_same(systems, budget=10 ** 5):
    for system in systems:
        assert (outcome(solve_finite_field, system, budget)
                == outcome(ref.solve_finite_field, system, budget))


class TestAgainstReference:
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
    def test_random_systems(self, field):
        rng = seeded(401 + field.p)
        assert_same([random_system(rng, field, rng.randint(1, 14),
                                   rng.randint(1, 12)) for _ in range(400)])

    @pytest.mark.parametrize("field", (PrimeField(7), PrimeField(11)),
                             ids=lambda f: f.spec)
    def test_random_systems_over_larger_primes(self, field):
        """Exact sums reduced once and values walked lazily: over Z/7 and
        Z/11 too, the same status, witness and nodes, and the same nodes at
        every budget exit."""
        rng = seeded(433 + field.p)
        systems = [random_system(rng, field, rng.randint(1, 6), rng.randint(1, 8))
                   for _ in range(150)]
        for budget in (2000, 0, 4, 30):
            assert_same(systems, budget)

    def test_budget_exceeded_after_same_nodes(self):
        rng = seeded(409)
        systems = [random_system(rng, f, 12, 8) for f in FIELDS for _ in range(40)]
        for budget in (0, 1, 3, 7):
            assert_same(systems, budget)

    def test_interleaving_systems(self):
        systems = interleaving_systems(419, 6)
        assert sum(len(s.equations) for s in systems) > 2000
        assert_same(systems)
        assert_same(systems, budget=2)

    def test_elimination_rounds_past_two_to_the_62(self):
        """Over Z/(2^31 - 1) a coefficient times two substituted coefficients
        passes 2^62 before its one reduction; the rounds and the equations
        left equal the Gauss-Jordan ones all the same."""
        field, rng, past = PrimeField(2 ** 31 - 1), seeded(439), 0
        for _ in range(300):
            s = random_system(rng, field, rng.randint(2, 10), rng.randint(2, 12))
            got = root_elimination(field, s.equations)
            want = ref.eliminate_linear_rounds(field, s.equations)
            assert (got is None) == (want is None)
            if got is None:
                continue
            assert [(e.quad, e.lin, e.const) for e in got[0]] == \
                [(e.quad, e.lin, e.const) for e in want[0]]
            assert got[1] == want[1]
            quad = [c for e in s.equations for c in e.quad.values()]
            subs = [c for r in got[1] for _, lin in r.values() for c in lin.values()]
            past += bool(quad and subs and max(quad) * max(subs) ** 2 > 2 ** 62)
        assert past > 20

    def test_elimination_rounds(self):
        """The remaining equations are the reference's polynomials in the
        same order, the rounds' pivots are the variables it picked, and each
        round equals the Gauss-Jordan round dict for dict: pivots, constants
        and free-variable coefficients.  Some roots make two or more rounds,
        and some meet their contradiction only after a first round."""
        rng = seeded(421)
        systems = [random_system(rng, field, rng.randint(1, 14),
                                 rng.randint(1, 12))
                   for field in FIELDS for _ in range(200)]
        systems += interleaving_systems(431, 2)
        several = late = 0
        for s in systems:
            field = s.field
            got = root_elimination(field, s.equations)
            want = ref._eliminate_linear(field, ref.reference_system(s))
            rounds = ref.eliminate_linear_rounds(field, s.equations)
            assert (got is None) == (want is None) == (rounds is None)
            if got is None:
                late += bool(_Search(field, s.equations).subs)
                continue
            eqs, subs = got
            several += len(subs) >= 2
            assert [(e.quad, e.lin, e.const) for e in eqs] == \
                [(e.quad, e.lin, e.const) for e in want[0]] == \
                [(e.quad, e.lin, e.const) for e in rounds[0]]
            assert sorted(v for r in subs for v in r) == \
                sorted(var for var, _, _ in want[1])
            assert subs == rounds[1]
        assert several > 0 and late > 0

"""The table-driven interleaving-system assembly against the hand-written one
it replaced (kept in reference_interleave.py): the same exported text,
shapes, masks, variable numbering, per-equation term order and solver
outcome, on seeded presentation pairs over Z/2, Z/3 and Q with 1-3
parameters, under translations and general diagonal affine maps."""

from fractions import Fraction as F

import pytest

from permod.exactnum import QQ, PrimeField
from permod.interleave import assemble_system
from permod.presentation import MonotoneAffineMap, Presentation
from permod.quadsys import BudgetExceeded, solve_finite_field

import reference_interleave as ref
from conftest import random_presentation, rerepresent, seeded

FIELDS = (PrimeField(2), PrimeField(3), QQ)
POOL = [F(k, 2) for k in range(0, 7)]


def random_map(rng, n):
    """A translation half of the time, else a diagonal affine map with
    per-axis scales and offsets (not always increasing: assembly does not
    care)."""
    if rng.random() < 0.5:
        return MonotoneAffineMap.translation(n, rng.choice(POOL))
    return MonotoneAffineMap([rng.choice((F(1, 2), F(1), F(3, 2), F(2)))
                              for _ in range(n)],
                             [rng.choice((F(-1, 2), F(0), F(1, 2), F(1)))
                              for _ in range(n)])


def random_side(rng, field, n):
    """A random presentation; one in eight has no generators, one in eight
    generators but no relations."""
    roll = rng.random()
    if roll < 0.125:
        return Presentation(n, field, [], []).validate()
    return random_presentation(rng, field, n=n, max_gens=4,
                               max_rels=0 if roll < 0.25 else 4,
                               grade_pool=POOL)


def pairs(seed, per_case):
    """(m, n, j1, j2) over every field and n = 1-3: unrelated pairs and a
    presentation against another representation of itself."""
    rng = seeded(seed)
    for field in FIELDS:
        for n in (1, 2, 3):
            for _ in range(per_case):
                m = random_side(rng, field, n)
                other = (rerepresent(rng, m) if m.generators and rng.random() < 0.3
                         else random_side(rng, field, n))
                yield m, other, random_map(rng, n), random_map(rng, n)


def terms(system):
    return [(list(eq.lin.items()), list(eq.quad.items()), eq.const)
            for eq in system.equations]


def outcome(system, budget=400):
    try:
        res = solve_finite_field(system, budget=budget)
    except BudgetExceeded as exc:
        return ("budget", exc.nodes)
    return (res.status, res.witness, res.nodes)


def assert_same(m, n, j1, j2):
    got, want = assemble_system(m, n, j1, j2), ref.assemble_system(m, n, j1, j2)
    assert got.export_text() == want.export_text()
    assert got.shapes == want.shapes
    assert got.masks == want.masks
    assert list(got.var_of_entry.items()) == list(want.var_of_entry.items())
    assert got.system.nvars == want.system.nvars
    assert terms(got.system) == terms(want.system)
    if got.system.field != QQ:
        assert outcome(got.system) == outcome(want.system)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", (501, 502, 503))
    def test_random_pairs(self, seed):
        for m, n, j1, j2 in pairs(seed, 12):
            assert_same(m, n, j1, j2)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
    def test_empty_sides(self, field):
        rng = seeded(509)
        for n in (1, 2, 3):
            zero = Presentation(n, field, [], []).validate()
            free = random_presentation(rng, field, n=n, max_rels=0, grade_pool=POOL)
            some = random_presentation(rng, field, n=n, grade_pool=POOL)
            j = MonotoneAffineMap.translation(n, F(1, 2))
            for m, other in ((zero, zero), (zero, some), (some, zero),
                             (free, some), (some, free), (free, free)):
                assert_same(m, other, j, j)

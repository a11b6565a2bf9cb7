"""The table-driven interleaving-system assembly against the hand-written one
it replaced (kept in reference_interleave.py): the same exported text,
shapes, masks, variable numbering, per-equation term order and solver
outcome, on seeded presentation pairs over Z/2, Z/3 and Q with 1-3
parameters, under translations and general diagonal affine maps, both
through `assemble_system` and from one term table per pair at every eps
where a zero pattern changes.  The term table against the one it
replaced, which expanded every entry once per pair and renumbered that
expansion per system.  The candidate set on scaled ints against the one on
Fraction differences."""

from fractions import Fraction as F

import pytest

from permod.exactnum import INF, QQ, PrimeField
from permod.interleave import TermTable, assemble_system, candidate_set
from permod.presentation import MonotoneAffineMap, Presentation
from permod.quadsys import BudgetExceeded, solve_finite_field

import reference_interleave as ref
from conftest import random_presentation, rerepresent, seeded

FIELDS = (PrimeField(2), PrimeField(3), QQ)
POOL = [F(k, 2) for k in range(0, 7)]
# mixed denominators and negative grades
MIXED = sorted({F(k, d) for d in (1, 2, 3, 7) for k in range(-6, 7)})


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


def random_side(rng, field, n, pool=POOL):
    """A random presentation; one in eight has no generators, one in eight
    generators but no relations."""
    roll = rng.random()
    if roll < 0.125:
        return Presentation(n, field, [], []).validate()
    return random_presentation(rng, field, n=n, max_gens=4,
                               max_rels=0 if roll < 0.25 else 4,
                               grade_pool=pool)


def pairs(seed, per_case, pool=POOL):
    """(m, n, j1, j2) over every field and n = 1-3: unrelated pairs and a
    presentation against another representation of itself."""
    rng = seeded(seed)
    for field in FIELDS:
        for n in (1, 2, 3):
            for _ in range(per_case):
                m = random_side(rng, field, n, pool)
                other = (rerepresent(rng, m) if m.generators and rng.random() < 0.3
                         else random_side(rng, field, n, pool))
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


def assert_same_system(got, want):
    assert got.export_text() == want.export_text()
    assert got.shapes == want.shapes
    assert got.masks == want.masks
    assert list(got.var_of_entry.items()) == list(want.var_of_entry.items())
    assert got.system.nvars == want.system.nvars
    assert terms(got.system) == terms(want.system)
    if got.system.field != QQ:
        assert outcome(got.system) == outcome(want.system)


def assert_same(m, n, j1, j2, got=None):
    got = assemble_system(m, n, j1, j2) if got is None else got
    assert_same_system(got, ref.assemble_system(m, n, j1, j2))


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


def table_eps(m, n):
    """Every eps at which a zero pattern of (m, n) changes (the candidate
    set of the unminimized grades), a point between each two of them and
    one past the last."""
    finite = [c.value for c in ref.candidate_set(m, n, minimal=True) if c.is_finite]
    return finite + [(a + b) / 2 for a, b in zip(finite, finite[1:])] + [finite[-1] + 1]


class TestTermTable:
    @pytest.mark.parametrize("seed, pool, per_case", ((511, POOL, 6), (512, MIXED, 2)),
                             ids=("halves", "mixed"))
    def test_one_table_per_pair(self, seed, pool, per_case):
        systems = 0
        for m, n, _, _ in pairs(seed, per_case, pool):
            table = TermTable(m, n)
            for eps in table_eps(m, n):
                j = MonotoneAffineMap.translation(m.n, eps)
                assert_same(m, n, j, j, got=table.at(eps))
                systems += 1
        assert systems > 500

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.spec)
    def test_empty_sides(self, field):
        rng = seeded(513)
        for n in (1, 2):
            zero = Presentation(n, field, [], []).validate()
            free = random_presentation(rng, field, n=n, max_rels=0, grade_pool=MIXED)
            some = random_presentation(rng, field, n=n, grade_pool=MIXED)
            for m, other in ((zero, zero), (zero, some), (some, zero),
                             (free, some), (some, free)):
                table = TermTable(m, other)
                for eps in table_eps(m, other):
                    j = MonotoneAffineMap.translation(n, eps)
                    assert_same(m, other, j, j, got=table.at(eps))


def random_masks(rng, table):
    """A zero pattern per matrix, each entry free with a probability of its
    matrix's own."""
    masks = {}
    for name, (rows, cols) in table.shapes.items():
        p = rng.random()
        masks[name] = [[rng.random() < p for _ in range(cols)] for _ in range(rows)]
    return masks


class TestAgainstAllFreeTable:
    @pytest.mark.parametrize("seed, pool, per_case", ((511, POOL, 6), (512, MIXED, 2)),
                             ids=("halves", "mixed"))
    def test_every_eps_and_random_masks(self, seed, pool, per_case):
        rng, systems = seeded(seed + 20), 0
        for m, n, _, _ in pairs(seed, per_case, pool):
            table, all_free = TermTable(m, n), ref.TermTable(m, n)
            assert (table.scale, table.shapes, table.bases, table.thresholds) == (
                all_free.scale, all_free.shapes, all_free.bases, all_free.thresholds)
            for eps in table_eps(m, n):
                assert_same_system(table.at(eps), all_free.at(eps))
                systems += 1
            for _ in range(4):
                masks = random_masks(rng, table)
                assert_same_system(table.system(masks), all_free.system(masks))
                systems += 1
        assert systems > 700


class TestCandidateSet:
    def test_against_fraction_differences(self):
        """Raw and pre-minimized inputs give the reference's set of the
        minimized pair, and the term table of the raw pair holds the
        reference's set of the raw grades."""
        compared = 0
        for pool in (POOL, MIXED):
            for m, n, _, _ in pairs(521, 8, pool):
                want = ref.candidate_set(m, n)
                assert candidate_set(m, n) == want
                assert candidate_set(m.minimize(), n.minimize()) == want
                table = TermTable(m, n)
                assert [table.value(v) for v in table.levels] + [INF] == \
                    ref.candidate_set(m, n, minimal=True)
                compared += 1
        assert compared > 100

    def test_empty_presentations(self):
        for field in FIELDS:
            zero = Presentation(2, field, [], []).validate()
            some = random_presentation(seeded(523), field, n=2, grade_pool=MIXED)
            for m, n in ((zero, zero), (zero, some), (some, zero)):
                assert candidate_set(m, n) == ref.candidate_set(m, n)

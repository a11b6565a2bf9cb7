import itertools
from fractions import Fraction as F

import pytest

from permod import QQ, PrimeField
from permod.exactnum import INF, NEG_INF
from permod.homology import HomologyError, grid_module_of
from permod.interleave import assemble_system, decide_generalized, zero_pattern_mask
from permod.presentation import (MonotoneAffineMap, Presentation,
                                 PresentationError, direct_sum,
                                 interval_presentation, parse_presentation)

from conftest import random_presentation, rerepresent, seeded
from reference_linalg import mat_mul


def C(field, a, b):
    return interval_presentation(field, a, b)


class TestValidate:
    def test_interval_ok(self, f2):
        assert C(f2, 0, 1).validate()

    def test_zero_pattern_violation(self, f2):
        with pytest.raises(PresentationError, match="larger grade"):
            Presentation(1, f2, [("g", (F(2),))], [("r", (F(1),), [1])]).validate()

    def test_empty_is_zero_module(self, f2):
        p = Presentation(1, f2, [], []).validate()
        assert p.point_dim((F(0),)) == 0

    def test_dense_coefficient_count_mismatch(self, f2):
        with pytest.raises(PresentationError, match="coefficient count"):
            Presentation(1, f2, [("g", (F(0),))], [("r", (F(1),), [1, 0])])

    def test_relations_stored_as_dicts_without_zeros(self, f2):
        gens = [("g", (F(0),)), ("h", (F(0),))]
        for coeffs in ([0, 1], {0: 0, 1: 1}):
            p = Presentation(1, f2, gens, [("r", (F(1),), coeffs)]).validate()
            assert p.relations[0][2] == {1: 1}
        with pytest.raises(PresentationError, match="no generator 2"):
            Presentation(1, f2, gens, [("r", (F(1),), {2: 1})]).validate()

    def test_grade_length_mismatch(self, f2):
        g = ("g", (F(0), F(0)))
        for gens, rels in (([("g", (F(0),))], []), ([("g", (F(0),) * 3)], []),
                           ([g], [("r", (F(1),), {0: 1})]),
                           ([g], [("r", (F(1),) * 3, {0: 1})])):
            with pytest.raises(PresentationError, match="grade length != n"):
                Presentation(2, f2, gens, rels).validate()

    def test_interval_needs_a_below_b(self, f2):
        for b in (0, -1, NEG_INF):
            with pytest.raises(PresentationError, match="interval needs a < b"):
                C(f2, 0, b)
        assert C(f2, 0, INF).point_dim((F(5),)) == 1

    def test_duplicate_names(self, f2):
        with pytest.raises(PresentationError, match="duplicate"):
            Presentation(1, f2, [("g", (F(0),)), ("g", (F(1),))], []).validate()

    # <g at 1 | r at 0 : g> and <g at 0 | r at 1 : generator 5> present no
    # module; unchecked, the first read dimension -1 at grade 0 in the
    # Hilbert table and interleaved with zero, the second 0 there but 1 by
    # point_dim.  Each use below must refuse them as they are built.
    USES = {
        "decide_generalized": lambda p: decide_generalized(
            p, Presentation(1, p.field, [], []), *[MonotoneAffineMap.identity(1)] * 2),
        "assemble_system": lambda p: assemble_system(
            p, p, *[MonotoneAffineMap.identity(1)] * 2),
        "point_dim": lambda p: p.point_dim((F(1),)),
        "hilbert_table": lambda p: p.hilbert_table([[F(0), F(1)]]),
        "grid_module_of": lambda p: grid_module_of(p, [[F(0), F(1)]]),
    }

    @pytest.mark.parametrize("use", USES)
    @pytest.mark.parametrize("gen_at, rel_at, coeffs, match", [
        (1, 0, {0: 1}, "generator g of larger grade"),
        (0, 1, {5: 1}, "no generator 5"),
    ], ids=["larger-grade", "missing-generator"])
    def test_defect_refused_when_built(self, f2, use, gen_at, rel_at, coeffs, match):
        with pytest.raises(PresentationError, match=match):
            self.USES[use](Presentation(1, f2, [("g", (F(gen_at),))],
                                        [("r", (F(rel_at),), coeffs)]))


class TestPointwise:
    def test_interval_dims(self, f2):
        p = C(f2, 0, 1)
        assert p.point_dim((F(1, 2),)) == 1
        assert p.point_dim((F(1),)) == 0
        free = Presentation(1, f2, [("g", (F(0),))], [])
        assert free.point_dim((F(-1),)) == 0

    def test_transition_rank(self, f2):
        p = C(f2, 0, 1)
        gm, (a, b) = through(p, (F(0),), (F(1, 2),))
        assert gm.rank_between(a, b) == 1
        gm, (a, b) = through(p, (F(0),), (F(1),))
        assert gm.rank_between(a, b) == 0
        gm, (a,) = through(p, (F(1, 2),))
        assert gm.rank_between(a, a) == p.point_dim((F(1, 2),))
        gm, (a, b) = through(p, (F(1),), (F(0),))
        with pytest.raises(HomologyError, match="i1 <= i2"):
            gm.rank_between(a, b)

    def test_grade_of_another_length_refused(self, f2):
        p = Presentation(2, f2, [("g", (F(0), F(5)))], [])
        assert p.point_dim((F(0), F(5))) == 1
        for a in ((F(0),), (F(0), F(5), F(0))):
            with pytest.raises(PresentationError, match="grade length != n"):
                p.point_dim(a)
            # the maps between grades are read off a grid module, whose
            # grid must have one axis per parameter
            with pytest.raises(HomologyError, match="axes count"):
                grid_module_of(p, [[x] for x in a])

    def test_rank_composition_bound(self, f2):
        rng = seeded(11)
        pool = [F(k, 2) for k in range(0, 7)]
        for _ in range(20):
            p = random_presentation(rng, f2, n=2, grade_pool=pool)
            pts = sorted({g for _, g in p.generators}
                         | {g for _, g, _ in p.relations})
            gm, at = through(p, *pts)
            for a, ia in zip(pts, at):
                for b, ib in zip(pts, at):
                    for c, ic in zip(pts, at):
                        if all(x <= y for x, y in zip(a, b)) and \
                           all(x <= y for x, y in zip(b, c)):
                            rac = gm.rank_between(ia, ic)
                            assert rac <= gm.rank_between(ia, ib)
                            assert rac <= gm.rank_between(ib, ic)


def through(p, *grades):
    """The grid module of p on the grid through the given grades, and their
    grid indices on it."""
    axes = [sorted(set(values)) for values in zip(*grades)]
    return grid_module_of(p, axes), [tuple(map(list.index, axes, g)) for g in grades]


class TestHilbertTable:
    """The swept table of pointwise dimensions against point_dim, at every
    point of axes that hold values off the grades, stop below some grades,
    or start above some."""

    def _axes(self, rng, n):
        pool = [F(k, 2) for k in range(-1, 9)] + [F(1, 3), F(7, 3), F(13, 4)]
        return [sorted(rng.sample(pool, rng.randint(1, 6))) for _ in range(n)]

    def _check(self, p, axes):
        table = p.hilbert_table(axes)
        shape = [len(ax) for ax in axes]
        assert table == {idx: p.point_dim(tuple(ax[k] for ax, k in zip(axes, idx)))
                         for idx in itertools.product(*map(range, shape))}

    @pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), QQ],
                             ids=["F2", "F3", "QQ"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_point_dim(self, field, n):
        rng = seeded(503 + n)
        for _ in range(25):
            p = random_presentation(rng, field, n=n, max_gens=5, max_rels=5)
            for q in (p, p.minimize()):
                self._check(q, self._axes(rng, n))
                # on the critical axes every grade lies on the grid
                self._check(q, q.axes or [[F(0)]] * n)
            self._check(Presentation(n, field, [], []), self._axes(rng, n))

    def test_grades_past_the_last_axis_value(self, f2):
        p = Presentation(2, f2, [("a", (F(0), F(0))), ("b", (F(5), F(0)))],
                         [("r", (F(0), F(9)), {0: 1})])
        assert p.hilbert_table([[F(0), F(1)], [F(0), F(2)]]) == {
            (0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
        assert p.hilbert_table([[F(1), F(6)], [F(-1), F(10)]]) == {
            (0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}

    def test_refuses_axes_that_do_not_fit(self, f2):
        """One axis per parameter, each strictly increasing: too few axes
        would give a table of the wrong dimension, too many an IndexError,
        and a decreasing or repeated value a wrong table."""
        p = Presentation(2, f2, [("a", (F(0), F(0)))], [("r", (F(1), F(1)), {0: 1})])
        assert p.hilbert_table([[F(0), F(1)], [F(0), F(1)]])[(1, 1)] == 0
        for axes in ([[F(0), F(1)]], [[F(0), F(1)]] * 3, [[F(1), F(0)], [F(0), F(1)]],
                     [[F(0), F(1)], [F(1), F(1)]]):
            with pytest.raises(PresentationError):
                p.hilbert_table(axes)


class TestShiftRestrict:
    def test_translation_shift(self, f2):
        p = C(f2, 0, 1)
        sh = p.shift(MonotoneAffineMap.translation(1, 1))
        assert sh.generators[0][1] == (F(-1),)
        assert sh.relations[0][1] == (F(0),)
        # pointwise: M(1)_a = M_{a+1}
        for a in [F(-1), F(-1, 2), F(0), F(1)]:
            assert sh.point_dim((a,)) == p.point_dim((a + 1,))

    def test_identity_shift(self, f2):
        p = C(f2, 0, 1)
        sh = p.shift(MonotoneAffineMap.identity(1))
        assert sh.generators == p.generators

    def test_scaling_shift(self, f2):
        p = C(f2, 0, 2)
        j = MonotoneAffineMap([F(2)], [F(0)])
        sh = p.shift(j)
        # dim 1 exactly on {a : 0 <= 2a < 2} = [0, 1)
        for a, want in [(F(-1, 2), 0), (F(0), 1), (F(1, 2), 1),
                        (F(99, 100), 1), (F(1), 0)]:
            assert sh.point_dim((a,)) == want

    def test_shift_inverse_roundtrip(self, f2):
        rng = seeded(5)
        for _ in range(10):
            p = random_presentation(rng, f2, n=2)
            j = MonotoneAffineMap([F(3, 2), F(2)], [F(1), F(1, 2)])
            rt = p.shift(j).shift(j.inverse())
            for _, g in p.generators:
                assert rt.point_dim(g) == p.point_dim(g)

    def test_restrict_free_generator(self, f2):
        free = Presentation(1, f2, [("g", (F(0),))], [])
        r = free.restrict([F(1)])
        ref = C(f2, 0, 1)
        for a in [F(0), F(1, 2), F(1), F(2)]:
            assert r.point_dim((a,)) == ref.point_dim((a,))

    def test_restrict_infinite_is_noop(self, f2):
        from permod.exactnum import INF
        p = C(f2, 0, 2)
        r = p.restrict([INF])
        assert len(r.relations) == len(p.relations)

    def test_restrict_tightens(self, f2):
        p = C(f2, 0, 2)
        r = p.restrict([F(1)])
        ref = C(f2, 0, 1)
        for a in [F(0), F(1, 2), F(1), F(3, 2), F(2)]:
            assert r.point_dim((a,)) == ref.point_dim((a,))


class TestDirectSum:
    def test_empty(self, f2):
        z = direct_sum([], n=1, field=f2)
        assert z.point_dim((F(0),)) == 0

    def test_sum_dims(self, f2):
        s = direct_sum([C(f2, 0, 1), C(f2, 0, 1)])
        assert s.point_dim((F(1, 2),)) == 2

    def test_singleton(self, f2):
        p = C(f2, 0, 1)
        s = direct_sum([p])
        for a in [F(0), F(1, 2), F(1)]:
            assert s.point_dim((a,)) == p.point_dim((a,))

    def test_mixed_fields_rejected(self, f2, f3):
        with pytest.raises(PresentationError, match="fields"):
            direct_sum([C(f2, 0, 1), C(f3, 0, 1)])


class TestMinimize:
    def test_equal_grade_elimination(self, f2):
        p = Presentation(1, f2, [("g1", (F(0),)), ("g2", (F(0),))],
                         [("r", (F(0),), [1, 1])])
        m = p.minimize()
        assert len(m.generators) == 1 and len(m.relations) == 0

    def test_already_minimal(self, f2):
        p = C(f2, 0, 1)
        m = p.minimize()
        assert [g for _, g in m.generators] == [(F(0),)]
        assert [g for _, g, _ in m.relations] == [(F(1),)]

    def test_redundant_relation_dropped(self, f2):
        p = Presentation(1, f2, [("g", (F(0),))],
                         [("r", (F(1),), [1]), ("r2", (F(1),), [1])])
        m = p.minimize()
        assert len(m.relations) == 1

    def test_invalid_presentation_refused(self, f2):
        # b (1,1) is the relation's own-grade generator, but a (2,0) is not
        # below the relation's grade: no minimization to give, and the
        # constructor refuses the presentation before minimize can run
        with pytest.raises(PresentationError, match="generator a of larger grade"):
            Presentation(2, f2, [("a", (F(2), F(0))), ("b", (F(1), F(1)))],
                         [("r", (F(1), F(1)), {0: 1, 1: 1})]).minimize()

    def test_preserves_pointwise_dims(self, f2):
        rng = seeded(23)
        for _ in range(15):
            p = random_presentation(rng, f2, n=2)
            m = p.minimize()
            grades = ({g for _, g in p.generators} | {g for _, g, _ in p.relations}
                      | {g for _, g in m.generators} | {g for _, g, _ in m.relations})
            axes = [sorted({g[i] for g in grades}) for i in range(2)]
            for z in itertools.product(*axes):
                assert m.point_dim(z) == p.point_dim(z)

    def test_uniqueness_under_representation_changes(self, f3):
        rng = seeded(31)
        for _ in range(12):
            p = random_presentation(rng, f3, n=2)
            q = rerepresent(rng, p)
            mp, mq = p.minimize(), q.minimize()
            assert sorted(g for _, g in mp.generators) == \
                sorted(g for _, g in mq.generators)
            assert sorted(g for _, g, _ in mp.relations) == \
                sorted(g for _, g, _ in mq.relations)


class TestCriticalGrades:
    def test_interval(self, f2):
        _, axes = C(f2, 0, 1).critical_grades()
        assert axes == [[F(0), F(1)]]

    def test_zero_module(self, f2):
        u, axes = Presentation(1, f2, [], []).critical_grades()
        assert u == [] and axes == [[]]

    def test_direct_sum(self, f2):
        _, axes = direct_sum([C(f2, 0, 1), C(f2, 2, 3)]).critical_grades()
        assert axes == [[F(0), F(1), F(2), F(3)]]


class TestZeroPatternClosure:
    def test_product_preserves_pattern(self, f3):
        rng = seeded(7)
        for _ in range(25):
            def grades(k):
                return [tuple(F(rng.randint(0, 3)) for _ in range(2))
                        for _ in range(k)]
            b, b1, b2 = grades(3), grades(3), grades(3)
            m1_mask = zero_pattern_mask(b1, b)     # maps <B> -> <B'>
            m2_mask = zero_pattern_mask(b2, b1)
            def sample(mask):
                return [[f3.of(rng.randrange(3)) if mask[i][j] else 0
                         for j in range(len(mask[0]))] for i in range(len(mask))]
            x, y = sample(m1_mask), sample(m2_mask)
            prod = mat_mul(f3, y, x, len(b))
            prod_mask = zero_pattern_mask(b2, b)
            for i in range(len(b2)):
                for j in range(len(b)):
                    if not prod_mask[i][j]:
                        assert prod[i][j] == 0
            s = [[f3.add(a, c) for a, c in zip(ra, rc)]
                 for ra, rc in zip(x, sample(m1_mask))]
            for i in range(len(b1)):
                for j in range(len(b)):
                    if not m1_mask[i][j]:
                        assert s[i][j] == 0


class TestTextFormat:
    def test_roundtrip(self, f2):
        text = """PRESENTATION
n 2
field zp 2
generator g1 0 0
generator g2 1/2 0
relation r1 1 1 : g1 1  g2 1
END
"""
        p = parse_presentation(text)
        assert p.n == 2 and len(p.generators) == 2 and len(p.relations) == 1
        again = parse_presentation(p.to_text())
        assert again.generators == p.generators
        assert again.relations == p.relations

    def test_roundtrip_rational_field(self):
        p = Presentation(1, QQ, [("g", (F(1, 3),))],
                         [("r", (F(2),), [F(5, 7)])])
        q = parse_presentation(p.to_text())
        assert q.relations[0][2] == {0: F(5, 7)}

    def test_random_roundtrip(self, f3):
        rng = seeded(77)
        for _ in range(10):
            p = random_presentation(rng, f3, n=2)
            q = parse_presentation(p.to_text())
            assert q.generators == p.generators
            assert [c for _, _, c in q.relations] == [c for _, _, c in p.relations]

    def test_generator_listed_twice_rejected(self):
        # over Z/2 the two entries would sum to 0; neither value may win
        text = ("PRESENTATION\nn 1\nfield zp 2\ngenerator g 0\n"
                "relation r 1 : g 1  g 1\nEND\n")
        with pytest.raises(PresentationError, match="g listed twice"):
            parse_presentation(text)

    def test_explicit_zero_dropped(self):
        p = parse_presentation("PRESENTATION\nn 1\nfield zp 3\ngenerator g 0\n"
                               "generator h 0\nrelation r 1 : g 0  h 2\nEND\n")
        assert p.relations[0][2] == {1: 2}
        assert "relation r 1 : h 2\n" in p.to_text()

    def test_coefficient_zero_in_the_field_dropped(self, f2, f3):
        # 2 is 0 in Z/2, so {g: 2} is the zero relation and g lives on; over
        # Z/3, -1 is stored and written as 2
        for field, coeff, kept in ((f2, 2, {}), (f3, -1, {0: 2}), (f3, 4, {0: 1})):
            p = Presentation(1, field, [("g", (F(0),))], [("r", (F(1),), {0: coeff})])
            assert p.relations[0][2] == kept
            q = parse_presentation(p.to_text())
            assert q.relations == p.relations
            assert q.point_dim((F(1),)) == p.point_dim((F(1),)) == 1 - len(kept)

    @pytest.mark.parametrize("gen, rel, name", [("0 7", "1", "g"), ("0", "1 9", "r")])
    def test_extra_grade_coordinate_refused(self, gen, rel, name):
        """With n 1, `generator g 0 7` used to read as the grade (0)."""
        text = f"PRESENTATION\nn 1\nfield zp 2\ngenerator g {gen}\nrelation r {rel} : g 1\nEND\n"
        with pytest.raises(PresentationError, match=f"^{name}: grade length != n$"):
            parse_presentation(text)

    def test_parse_errors(self):
        with pytest.raises(PresentationError):
            parse_presentation("nope\n")
        with pytest.raises(PresentationError):
            parse_presentation("PRESENTATION\nn 1\nfield zp 2\n")  # missing END

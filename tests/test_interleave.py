import time
from fractions import Fraction as F

import pytest

from permod import interleave
from permod.exactnum import INF, QQ, PrimeField, ext
from permod.interleave import (DistanceBudgetExceeded, SearchStats,
                               assemble_system, candidate_set,
                               decide_generalized, decide_interleaving,
                               interleaving_distance)
from permod.onedim import bottleneck, diagram_of
from permod.presentation import (MonotoneAffineMap, Presentation,
                                 PresentationError, interval_presentation)
from permod.quadsys import QuadraticSystem, evaluate, solve_finite_field

from conftest import (address_space_limit, dense_relations, mat_vec, random_presentation,
                      rerepresent, search_from_zero, seeded)


def C(field, a, b):
    return interval_presentation(field, a, b)


def jittered_pair(rng):
    """A 2-parameter Z/2 module with 6-7 generators on the integer grid
    [0, 10]^2 and 4-5 relations, each joining two generators, against a copy
    whose generator grades move down and relation grades move up by 0 or the
    jitter (1/2 or 1)."""
    f2 = PrimeField(2)
    k, r = rng.choice((6, 7)), rng.choice((4, 5))
    gens = [(F(rng.randint(0, 10)), F(rng.randint(0, 10))) for _ in range(k)]
    rels = []
    for _ in range(r):
        pick = rng.sample(range(k), 2)
        grade = tuple(max(gens[i][a] for i in pick) + rng.randint(0, 2)
                      for a in range(2))
        rels.append((grade, [f2.of(int(i in pick)) for i in range(k)]))
    jitter = rng.choice((F(1, 2), F(1)))
    moved_gens = [tuple(x - jitter * rng.randint(0, 1) for x in g) for g in gens]
    moved_rels = [(tuple(x + jitter * rng.randint(0, 1) for x in g), c)
                  for g, c in rels]
    return tuple(Presentation(2, f2, [(f"g{i}", g) for i, g in enumerate(gs)],
                              [(f"r{j}", g, c) for j, (g, c) in enumerate(rs)]
                              ).validate()
                 for gs, rs in ((gens, rels), (moved_gens, moved_rels)))


def all_zero_grade_presentation(field, ngens, nrels):
    gens = [(f"g{i}", (F(0), F(0))) for i in range(ngens)]
    rels = [(f"r{j}", (F(0), F(0)), [field.one] * ngens) for j in range(nrels)]
    return Presentation(2, field, gens, rels).validate()


class TestAssemble:
    def test_free_module_identity(self, f2):
        m = Presentation(1, f2, [("g", (F(0),))], [])
        j0 = MonotoneAffineMap.translation(1, 0)
        sy = assemble_system(m, m, j0, j0)
        assert sy.shapes["A"] == (1, 1) and sy.masks["A"][0][0]
        assert sy.shapes["B"] == (1, 1) and sy.masks["B"][0][0]
        res = solve_finite_field(sy.system)
        assert res.status == "solvable"
        assert res.witness == [1, 1]          # A = B = 1

    def test_forced_zero_unsolvable(self, f2):
        m = Presentation(1, f2, [("g", (F(0),))], [])
        n = Presentation(1, f2, [("g", (F(1),))], [])
        j0 = MonotoneAffineMap.translation(1, 0)
        sy = assemble_system(m, n, j0, j0)
        assert not sy.masks["A"][0][0] and sy.masks["B"][0][0]
        assert solve_finite_field(sy.system).status == "unsolvable"

    def test_counts_2_2(self, f2):
        m = all_zero_grade_presentation(f2, 2, 2)
        j0 = MonotoneAffineMap.translation(2, 0)
        sy = assemble_system(m, m, j0, j0)
        assert sy.free_variable_count == 24
        assert sy.equation_count == 16

    def test_export_mentions_entries(self, f2):
        m = C(f2, 0, 1)
        j = MonotoneAffineMap.translation(1, 1)
        txt = assemble_system(m, m, j, j).export_text()
        assert "# var 1 = A[1][1]" in txt

    @pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(5), QQ],
                             ids=lambda f: f.spec)
    def test_systems_handed_over_normal(self, field):
        """A term table's systems are stored unchecked, so each must be as
        the checking constructor normalizes it: built again through it, at
        every level of seeded pairs, every equation keeps its terms, constant
        and variables, those in 1..nvars."""
        rng, equations = seeded(443 + len(field.spec)), 0
        for _ in range(8):
            m = random_presentation(rng, field, n=2, max_gens=4, max_rels=3)
            for n in (rerepresent(rng, m), random_presentation(rng, field, n=2,
                                                               max_gens=4, max_rels=3)):
                table = interleave.TermTable(m, n)
                for level in table.levels:
                    system = table.at(F(level, table.scale)).system
                    again = QuadraticSystem(field, system.nvars, system.equations)
                    assert len(again.equations) == len(system.equations)
                    assert [(e.quad, e.lin, e.const, e.vars) for e in again.equations] == \
                        [(e.quad, e.lin, e.const, e.vars) for e in system.equations]
                    assert all(1 <= v <= system.nvars for e in system.equations
                               for v in e.vars)
                    equations += len(system.equations)
        assert equations > 1000

    def test_mismatched_inputs(self, f2, f3):
        j0 = MonotoneAffineMap.translation(1, 0)
        with pytest.raises(PresentationError):
            assemble_system(C(f2, 0, 1), C(f3, 0, 1), j0, j0)
        m2 = Presentation(2, f2, [], [])
        with pytest.raises(PresentationError):
            assemble_system(C(f2, 0, 1), m2, j0, j0)


class TestDecide:
    def test_reflexive(self, f2):
        assert decide_interleaving(C(f2, 0, 1), C(f2, 0, 1), 0) == "yes"

    def test_cross_checked_against_bottleneck(self, f2):
        assert decide_interleaving(C(f2, 0, 1), C(f2, 0, 2), 1) == "yes"
        assert decide_interleaving(C(f2, 0, 1), C(f2, 0, 2), F(1, 2)) == "no"

    def test_against_zero_module(self, f2):
        zero = Presentation(1, f2, [], [])
        assert decide_interleaving(C(f2, 0, 1), zero, F(1, 2)) == "yes"
        assert decide_interleaving(C(f2, 0, 1), zero, F(1, 4)) == "no"

    def test_negative_eps_rejected(self, f2):
        with pytest.raises(PresentationError):
            decide_interleaving(C(f2, 0, 1), C(f2, 0, 1), F(-1))

    def test_term_table_refuses_negative_eps(self, f2):
        # every exported or decided system is built by TermTable.at
        table = interleave.TermTable(C(f2, 0, 1), C(f2, 0, 1))
        with pytest.raises(PresentationError, match="eps must be >= 0"):
            table.at(F(-1, 2))

    def test_slice_bound_answers_no_without_the_solver(self, f2, monkeypatch):
        """Free modules of ranks 4 and 5 at grade (0, 0): their dimensions
        above all grades differ, so no diagonal slice matches and every eps
        is decided no at once (the solver alone took over 1.5 s CPU at
        eps = 1)."""
        def free(rank):
            return Presentation(2, f2, [(f"g{i}", (F(0), F(0))) for i in range(rank)], [])

        solves = []
        monkeypatch.setattr(interleave, "solve_finite_field",
                            lambda *a, **k: solves.append(a) or solve_finite_field(*a, **k))
        t0 = time.process_time()
        assert [decide_interleaving(free(4), free(5), eps) for eps in (0, 1, 100)] == ["no"] * 3
        assert time.process_time() - t0 < 0.1
        assert solves == []
        assert decide_interleaving(free(4), free(4), 1) == "yes" and len(solves) == 1

    def test_budget_exit_carries_the_slice_bracket(self, f2):
        """Free modules on generators at 0, 1 and at 1, 2: the slice bound
        is 1, so eps = 1 goes to the solver and its budget exit brackets d_I
        from the candidate below the bound."""
        def free(*grades):
            return Presentation(1, f2, [(f"g{i}", (F(g),)) for i, g in enumerate(grades)], [])

        assert decide_interleaving(free(0, 1), free(1, 2), F(1, 2)) == "no"
        with pytest.raises(DistanceBudgetExceeded) as info:
            decide_interleaving(free(0, 1), free(1, 2), 1, budget=0)
        assert info.value.bracket == (ext(F(1, 2)), INF) and info.value.undecided == ext(1)
        assert decide_interleaving(free(0, 1), free(1, 2), 1) == "yes"

    def test_negative_budget_refused_before_any_work(self, f2, monkeypatch):
        """Both searches refuse budget < 0 before minimizing anything, with
        a ValueError as every domain error; budget 0 stays legal."""
        def free(*grades):
            return Presentation(1, f2, [(f"g{i}", (F(g),)) for i, g in enumerate(grades)], [])

        m, n = free(0, 1), free(1, 2)
        minimized = []
        monkeypatch.setattr(Presentation, "minimize",
                            lambda self, _m=Presentation.minimize: minimized.append(1) or _m(self))
        for search in (lambda b: decide_interleaving(m, n, 1, budget=b),
                       lambda b: interleaving_distance(m, n, budget=b)):
            with pytest.raises(ValueError, match="budget must be >= 0"):
                search(-1)
        assert minimized == []
        assert decide_interleaving(m, n, F(1, 2), budget=0) == "no"


class TestDecideGeneralized:
    def test_identity_pair(self, f2):
        rng = seeded(13)
        i1 = MonotoneAffineMap.identity(1)
        for _ in range(5):
            p = random_presentation(rng, f2, n=1)
            assert decide_generalized(p, p, i1, i1) == "yes"

    def test_asymmetry(self, f2):
        m, n = C(f2, 0, 1), C(f2, 0, 2)
        j1 = MonotoneAffineMap.translation(1, 1)
        i1 = MonotoneAffineMap.identity(1)
        assert decide_generalized(m, n, j1, i1) == "yes"
        assert decide_generalized(m, n, i1, j1) == "no"

    def test_field_mismatch_rejected(self, f2):
        with pytest.raises(PresentationError, match="coefficient fields differ"):
            candidate_set(C(f2, 0, 1), C(PrimeField(3), 0, 1))

    def test_parameter_count_mismatch_rejected(self, f2):
        m2 = Presentation(2, f2, [("g", (F(0), F(0)))], [])
        i1, i2 = MonotoneAffineMap.identity(1), MonotoneAffineMap.identity(2)
        with pytest.raises(PresentationError):
            decide_generalized(m2, C(f2, 0, 1), i2, i2)
        with pytest.raises(PresentationError):
            decide_interleaving(C(f2, 0, 1), m2, 0)
        with pytest.raises(PresentationError):
            decide_generalized(C(f2, 0, 1), m2, i1, i1)

    def test_map_not_increasing_at_the_largest_grade_rejected(self, f2):
        # J(x) = x/2 + 1 is increasing at 0, but J(4) = 3 < 4
        m = Presentation(1, f2, [("g", (F(0),)), ("h", (F(4),))], []).validate()
        j = MonotoneAffineMap([F(1, 2)], [F(1)])
        with pytest.raises(PresentationError, match="not increasing"):
            decide_generalized(m, m, j, j)
        with pytest.raises(PresentationError, match="not increasing"):
            decide_generalized(C(f2, 0, 1), m, MonotoneAffineMap.identity(1), j)
        assert decide_generalized(C(f2, 0, 1), C(f2, 0, 1), j, j) == "yes"

    def test_rips_cech_pipeline(self, f2):
        # small point-cloud pipeline lives in test_homology; here a direct
        # module-level check of the scale-doubling relation on one axis
        m = C(f2, 1, 2)                      # Rips-like: alive on [1, 2)
        n = C(f2, 1, 3)                      # Cech-like: alive on [1, 3)
        j = MonotoneAffineMap([F(2)], [F(0)])
        i1 = MonotoneAffineMap.identity(1)
        assert decide_generalized(m, n, j, i1) == "yes"


class TestCandidates:
    def test_example(self, f2):
        cs = candidate_set(C(f2, 0, 1), C(f2, 0, 2))
        assert cs == [ext(0), ext(F(1, 2)), ext(1), ext(2), INF]

    def test_contains_zero(self, f2):
        assert ext(0) in candidate_set(C(f2, 0, 1), C(f2, 0, 1))

    def test_zero_modules(self, f2):
        zero = Presentation(1, f2, [], [])
        assert candidate_set(zero, zero) == [ext(0), INF]

    def test_parameter_count_mismatch_rejected(self, f2):
        m2 = Presentation(2, f2, [("g", (F(0), F(1)))], [])
        with pytest.raises(PresentationError, match="parameter counts differ"):
            candidate_set(C(f2, 0, 1), m2)
        with pytest.raises(PresentationError, match="parameter counts differ"):
            candidate_set(m2, C(f2, 0, 1))


class TestDistance:
    def test_each_presentation_minimized_once(self, f2, monkeypatch):
        calls = []
        minimize = Presentation.minimize

        def counted(p):
            calls.append(p)
            return minimize(p)

        monkeypatch.setattr(Presentation, "minimize", counted)
        m = Presentation(1, f2, [("g", (F(0),)), ("h", (F(1),))],
                         [("r", (F(1),), [f2.one, f2.one]),
                          ("s", (F(2),), [f2.one, f2.zero])])
        assert interleaving_distance(m, C(f2, 0, 3)) == ext(1)
        assert len(calls) == 2
        assert candidate_set(m, C(f2, 0, 3)) == candidate_set(m.minimize(), C(f2, 0, 3))

    def test_one_term_table_per_distance(self, f2, monkeypatch):
        tables, masks = [], []
        init, mask = interleave.TermTable.__init__, interleave.zero_pattern_mask

        def counted_init(table, m, n):
            tables.append((m, n))
            init(table, m, n)

        def counted_mask(*args):
            masks.append(args)
            return mask(*args)

        monkeypatch.setattr(interleave.TermTable, "__init__", counted_init)
        monkeypatch.setattr(interleave, "zero_pattern_mask", counted_mask)
        search_from_zero(monkeypatch)
        m = Presentation(1, f2, [("g", (F(0),)), ("h", (F(1),))],
                         [("r", (F(1),), [f2.one, f2.one]),
                          ("s", (F(2),), [f2.one, f2.zero])])
        stats = SearchStats()
        assert interleaving_distance(m, C(f2, 0, 3), stats=stats) == ext(1)
        assert stats.decisions >= 2
        assert len(tables) == 1 and masks == []
        # the general-map path goes through the masks, one per matrix
        assert decide_generalized(m, m, *[MonotoneAffineMap.identity(1)] * 2) == "yes"
        assert len(tables) == 2 and len(masks) == 6

    def test_deep_searches_pinned(self, monkeypatch):
        """The deepest searches among seeded 6-7-generator pairs.  Each
        probe's (status, nodes) is that of `solve_finite_field(table.at(eps))`
        with the binary search's solver, for every eps the search decides;
        then d_I and the total nodes.  The binary search took 2476, 596,
        266, 250, 229 and 203 nodes on these pairs.  The search starts at
        candidate 0, as it did before the slice start."""
        search_from_zero(monkeypatch)
        un, yes = "unsolvable", "solvable"
        probes = {134: {"0": (un, 0), "1/2": (un, 0), "3/2": (yes, 19), "1": (yes, 20)},
                  231: {"0": (un, 0), "1/4": (un, 0), "3/4": (yes, 7), "1/2": (yes, 6)},
                  77: {"0": (un, 0), "1/4": (un, 0), "3/4": (yes, 14)},
                  171: {"0": (un, 0), "1/2": (un, 0), "3/2": (yes, 12), "1": (yes, 25)},
                  42: {"0": (un, 0), "1/4": (un, 0), "3/4": (yes, 18)},
                  177: {"0": (un, 0), "1/4": (un, 0), "3/4": (yes, 10)}}
        pins = {134: (ext(1), 39), 231: (ext(F(1, 2)), 13), 77: (ext(F(1, 2)), 14),
                171: (ext(1), 37), 42: (ext(F(1, 2)), 18), 177: (ext(F(1, 2)), 10)}
        seen = []
        at, solve = interleave.TermTable.at, interleave.solve_finite_field

        def recorded_at(table, eps):
            seen.append(str(eps))
            return at(table, eps)

        def recorded_solve(system, budget):
            res = solve(system, budget=budget)
            seen[-1] = (seen[-1], (res.status, res.nodes))
            return res

        monkeypatch.setattr(interleave.TermTable, "at", recorded_at)
        monkeypatch.setattr(interleave, "solve_finite_field", recorded_solve)
        for seed, (d, nodes) in pins.items():
            seen.clear()
            stats = SearchStats()
            got = interleaving_distance(*jittered_pair(seeded(seed)), budget=20000,
                                        stats=stats)
            assert seen == list(probes[seed].items()), seed
            assert (got, stats.nodes) == (d, nodes), seed

    def test_deep_searches_start_at_the_distance(self, monkeypatch):
        """The same pairs from the slice start: each search makes one
        decision, a yes at d_I, in no more nodes than that probe took when
        the search started at 0."""
        pins = {134: ("1", 20), 231: ("1/2", 6), 77: ("1/2", 13),
                171: ("1", 25), 42: ("1/2", 18), 177: ("1/2", 10)}
        seen = []
        solve = interleave.solve_finite_field

        def recorded_solve(system, budget):
            res = solve(system, budget=budget)
            seen.append((res.status, res.nodes))
            return res

        monkeypatch.setattr(interleave, "solve_finite_field", recorded_solve)
        for seed, (d, nodes) in pins.items():
            seen.clear()
            stats = SearchStats()
            got = interleaving_distance(*jittered_pair(seeded(seed)), budget=20000,
                                        stats=stats)
            assert (str(got), seen) == (d, [("solvable", nodes)]), seed
            assert (stats.decisions, stats.nodes) == (1, nodes), seed

    def test_budget_bracket_holds_the_distance(self, f2, monkeypatch):
        """A budget exit's bracket runs from the largest eps decided no to
        the least decided or certified yes (+inf before any), so it holds
        d_I; the eps being decided when the budget ran out is no upper
        bound.  Pairs whose dimensions differ above all their grades get
        d_I = inf before any decision, so most of these pairs never exit.
        The search starts at candidate 0, as it did before the slice start."""
        search_from_zero(monkeypatch)
        rng = seeded(0)
        exits, below = 0, []
        for _ in range(100):
            m = random_presentation(rng, f2, n=2, max_gens=4, max_rels=3)
            n = random_presentation(rng, f2, n=2, max_gens=4, max_rels=3)
            d = interleaving_distance(m, n, budget=100000)
            for budget in range(3):
                try:
                    interleaving_distance(m, n, budget=budget)
                except DistanceBudgetExceeded as exc:
                    exits += 1
                    lo, hi = exc.bracket
                    assert lo <= d <= hi and lo <= exc.undecided <= hi
                    if exc.undecided < d:
                        below.append((lo, exc.undecided, hi, d))
        assert exits > 40
        assert below[0] == (ext(F(3, 4)), ext(F(7, 4)), INF, ext(2))

    def test_budget_bracket_from_the_slice_start(self, f2):
        """The pairs above from the slice start: the bracket's lower end is
        the candidate below the start, so it is positive on 44 of the 46
        exits, and no exit is undecided below d_I: each is at d_I or, after
        decisions in 0 nodes, above it."""
        rng = seeded(0)
        brackets = []
        for _ in range(100):
            m = random_presentation(rng, f2, n=2, max_gens=4, max_rels=3)
            n = random_presentation(rng, f2, n=2, max_gens=4, max_rels=3)
            d = interleaving_distance(m, n, budget=100000)
            for budget in range(3):
                try:
                    interleaving_distance(m, n, budget=budget)
                except DistanceBudgetExceeded as exc:
                    lo, hi = exc.bracket
                    assert lo <= d <= hi and lo <= exc.undecided <= hi
                    brackets.append((lo, exc.undecided, hi, d))
        assert len(brackets) == 46
        assert sum(lo > 0 for lo, *_ in brackets) == 44
        assert [u < d for _, u, _, d in brackets].count(True) == 0
        assert [u > d for _, u, _, d in brackets].count(True) == 3
        assert brackets[:3] == [(ext(2), ext(3), INF, ext(3))] * 2 + [
            (ext(F(3, 2)), ext(F(5, 2)), INF, ext(F(5, 2)))]

    def test_slices_stop_once_none_can_match(self, f2, monkeypatch):
        """A free module on three generators against the zero module: the
        first of the three diagonal lines already rules out every level, so
        k = len(levels) and d_I = inf, and no later line is barcoded: two
        `bars` calls, one per module, not two per line."""
        m = Presentation(2, f2, [("g", (F(0), F(0))), ("h", (F(1), F(3))),
                                 ("k", (F(4), F(2)))], [])
        zero, calls, bars = Presentation(2, f2, [], []), [], interleave.bars
        monkeypatch.setattr(interleave, "bars",
                            lambda *args: calls.append(args) or bars(*args))
        table = interleave.TermTable(m, zero)
        assert interleave.slice_start(table, m, zero) == len(table.levels)
        assert len(calls) == 2
        assert interleaving_distance(m, zero) == INF and len(calls) == 4

    def test_self(self, f2):
        assert interleaving_distance(C(f2, 0, 4), C(f2, 0, 4)) == ext(0)

    def test_deletion_dominates(self, f2):
        assert interleaving_distance(C(f2, 0, 1), C(f2, 2, 3)) == ext(F(1, 2))

    def test_match_dominates(self, f2):
        assert interleaving_distance(C(f2, 0, 4), C(f2, 1, 3)) == ext(1)

    def test_membership_and_monotonicity(self, f2):
        rng = seeded(17)
        for _ in range(6):
            m = random_presentation(rng, f2, n=1, max_gens=2, max_rels=2)
            n = random_presentation(rng, f2, n=1, max_gens=2, max_rels=2)
            mm, nn = m.minimize(), n.minimize()
            cands = candidate_set(mm, nn)
            answers = [decide_interleaving(mm, nn, c.value)
                       for c in cands if c.is_finite]
            assert answers == sorted(answers, key=lambda a: a == "yes")
            d = interleaving_distance(m, n)
            assert d in cands
            if d.is_finite:
                assert answers[[c for c in cands if c.is_finite].index(d)] == "yes"

    def test_symmetry(self, f2):
        rng = seeded(19)
        for _ in range(5):
            m = random_presentation(rng, f2, n=1, max_gens=2, max_rels=2)
            n = random_presentation(rng, f2, n=1, max_gens=2, max_rels=2)
            eps = F(rng.randint(0, 4), 2)
            assert decide_interleaving(m, n, eps) == decide_interleaving(n, m, eps)

    def test_triangle_inequality(self, f2):
        rng = seeded(29)
        for _ in range(4):
            ps = [random_presentation(rng, f2, n=1, max_gens=2, max_rels=2)
                  for _ in range(3)]
            d01 = interleaving_distance(ps[0], ps[1])
            d12 = interleaving_distance(ps[1], ps[2])
            d02 = interleaving_distance(ps[0], ps[2])
            try:
                assert d02 <= d01 + d12
            except ArithmeticError:
                pass

    def test_shift_invariance(self, f2):
        rng = seeded(37)
        for _ in range(4):
            m = random_presentation(rng, f2, n=1, max_gens=2, max_rels=1)
            n = random_presentation(rng, f2, n=1, max_gens=2, max_rels=1)
            u = F(rng.randint(-2, 2))
            j = MonotoneAffineMap([F(1)], [u])
            assert interleaving_distance(m, n) == \
                interleaving_distance(m.shift(j), n.shift(j))

    def test_interval_lemma(self, f2):
        rng = seeded(41)
        for _ in range(10):
            a, b = sorted(rng.sample([F(k, 2) for k in range(0, 9)], 2))
            a2, b2 = sorted(rng.sample([F(k, 2) for k in range(0, 9)], 2))
            eps = max(abs(a - a2), abs(b - b2))
            assert decide_interleaving(C(f2, a, b), C(f2, a2, b2), eps) == "yes"

    def test_one_dim_ground_truth(self, f2):
        rng = seeded(43)
        for _ in range(5):
            m = random_presentation(rng, f2, n=1, max_gens=2, max_rels=2)
            n = random_presentation(rng, f2, n=1, max_gens=2, max_rels=2)
            di = interleaving_distance(m, n)
            db = bottleneck(diagram_of(m), diagram_of(n))
            assert di == db


def brute_force_interleaved(m, n, eps):
    """Independent oracle: enumerate the two lift matrices entrywise and
    check the four span conditions directly (no C/D/E/F variables, no
    equation assembly).  Oracle-scale only."""
    import itertools as it
    from permod.linalg import ColumnSpan
    from reference_linalg import mat_mul
    f = m.field
    gm = [g for _, g in m.generators]
    gn = [g for _, g in n.generators]
    rels_m, rels_n = dense_relations(m), dense_relations(n)

    def leq_shift(a, b, s):
        return all(x <= y + s for x, y in zip(a, b))

    def free_entries(targets, sources, s):
        return [(i, j) for i in range(len(targets)) for j in range(len(sources))
                if leq_shift(targets[i], sources[j], s)]

    free_a = free_entries(gn, gm, eps)
    free_b = free_entries(gm, gn, eps)

    def rel_span(rels, gens_count, bound, shift):
        span = ColumnSpan(f, gens_count)
        for _, g, coeffs in rels:
            if leq_shift(g, bound, shift):
                span.insert(dict(enumerate(coeffs)))
        return span

    def matrices(free, rows, cols):
        vals = list(f.elements())
        for combo in it.product(vals, repeat=len(free)):
            mat = [[f.zero] * cols for _ in range(rows)]
            for (i, j), v in zip(free, combo):
                mat[i][j] = v
            yield mat

    eye_m = [[f.one if i == j else f.zero for j in range(len(gm))]
             for i in range(len(gm))]
    eye_n = [[f.one if i == j else f.zero for j in range(len(gn))]
             for i in range(len(gn))]

    for a_mat in matrices(free_a, len(gn), len(gm)):
        cond1 = all(rel_span(rels_n, len(gn), g, eps).contains(
            dict(enumerate(mat_vec(f, a_mat, coeffs))))
            for _, g, coeffs in rels_m)
        if not cond1:
            continue
        for b_mat in matrices(free_b, len(gm), len(gn)):
            cond2 = all(rel_span(rels_m, len(gm), g, eps).contains(
                dict(enumerate(mat_vec(f, b_mat, coeffs))))
                for _, g, coeffs in rels_n)
            if not cond2:
                continue
            ba = mat_mul(f, b_mat, a_mat, len(gm))
            cond3 = all(rel_span(rels_m, len(gm), gmi, 2 * eps).contains(
                {r: f.sub(ba[r][i], eye_m[r][i]) for r in range(len(gm))})
                for i, gmi in enumerate(gm))
            if not cond3:
                continue
            ab = mat_mul(f, a_mat, b_mat, len(gn))
            cond4 = all(rel_span(rels_n, len(gn), gni, 2 * eps).contains(
                {r: f.sub(ab[r][i], eye_n[r][i]) for r in range(len(gn))})
                for i, gni in enumerate(gn))
            if cond4:
                return True
    return False


class TestLargestPrimeField:
    def test_pair_over_the_largest_prime(self):
        """Over Z/(2^31 - 1), within 1 GiB more address space, the pair has
        d_I = 1/2 in 2 nodes as over Z/2, and the witness at 1/2 satisfies
        its system."""
        for p in (2, 2 ** 31 - 1):
            f = PrimeField(p)
            m, n = (Presentation(1, f, [("a", (F(0),)), ("b", (F(b),))],
                                 [("r", (F(1),), {0: 1, 1: 1})]) for b in (0, 1))
            stats = SearchStats()
            system = interleave.TermTable(m.minimize(), n.minimize()).at(F(1, 2)).system
            with address_space_limit():
                d = interleave.interleaving_distance(m, n, stats=stats)
                res = solve_finite_field(system)
            assert d == ext(F(1, 2)) and (stats.decisions, stats.nodes) == (1, 2)
            assert res.status == "solvable" and res.nodes == 2
            assert evaluate(system, res.witness) is None


class TestBruteForceOracle:
    def test_reduction_matches_span_conditions(self, f2):
        rng = seeded(211)
        pool = [F(k) for k in range(0, 4)]
        checked = 0
        for _ in range(20):
            m = random_presentation(rng, f2, n=2, max_gens=2, max_rels=2,
                                    grade_pool=pool)
            n = random_presentation(rng, f2, n=2, max_gens=2, max_rels=2,
                                    grade_pool=pool)
            eps = F(rng.randint(0, 3))
            want = brute_force_interleaved(m, n, eps)
            got = decide_interleaving(m, n, eps) == "yes"
            assert got == want, f"eps={eps}: solver {got} vs oracle {want}"
            checked += 1
        assert checked == 20

    def test_oracle_matches_on_one_dim(self, f2):
        rng = seeded(223)
        pool = [F(k, 2) for k in range(0, 7)]
        for _ in range(15):
            m = random_presentation(rng, f2, n=1, max_gens=2, max_rels=2,
                                    grade_pool=pool)
            n = random_presentation(rng, f2, n=1, max_gens=2, max_rels=2,
                                    grade_pool=pool)
            eps = F(rng.randint(0, 6), 2)
            assert (decide_interleaving(m, n, eps) == "yes") == \
                brute_force_interleaved(m, n, eps)


class TestTwoParameters:
    def box(self, f2, side):
        # the module alive exactly on the box [0, side)^2
        return Presentation(2, f2, [("g", (F(0), F(0)))],
                            [("rx", (F(side), F(0)), [1]),
                             ("ry", (F(0), F(side)), [1])]).validate()

    def test_box_against_zero(self, f2):
        # S(M, 2eps) vanishes on the side-2 box iff eps >= 1
        m = self.box(f2, 2)
        zero = Presentation(2, f2, [], [])
        assert decide_interleaving(m, zero, F(1)) == "yes"
        assert decide_interleaving(m, zero, F(3, 4)) == "no"
        assert interleaving_distance(m, zero) == ext(1)

    def test_box_pair(self, f2):
        # boxes of sides 2 and 4: matching at eps < 2 fails because
        # f(eps).g = S(N, 2eps) would have to factor through the dead
        # smaller box at grades like (2 - eps, 0); deleting both needs
        # S(N, 2eps) = 0, i.e. eps >= 2.  Hand derivation gives d_I = 2,
        # matching the 1-D analogue d_B(C(0,2), C(0,4)) = 2.
        m, n = self.box(f2, 2), self.box(f2, 4)
        assert decide_interleaving(m, n, F(2)) == "yes"
        assert decide_interleaving(m, n, F(3, 2)) == "no"
        assert interleaving_distance(m, n) == ext(2)

    def test_diagonal_translation_bound(self, f2):
        rng = seeded(47)
        for _ in range(4):
            m = random_presentation(rng, f2, n=2, max_gens=2, max_rels=2)
            t = F(rng.randint(0, 3), 2)
            shifted = m.shift(MonotoneAffineMap.translation(2, t))
            d = interleaving_distance(m, shifted)
            assert d <= ext(t)

import sys
from fractions import Fraction as F

import pytest

from permod.exactnum import INF, NEG_INF, QQ, PrimeField, ext
from permod.onedim import (PersistenceDiagram, bottleneck,
                           bottleneck_bruteforce, diagram_of, parse_diagram,
                           presentation_of)
from permod.presentation import (Presentation, PresentationError,
                                 interval_presentation)

import reference_onedim as ref
from conftest import random_presentation, rerepresent, seeded


def D(*pts):
    return PersistenceDiagram(list(pts))


class TestDiagramType:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            D((ext(1), ext(1), 1))
        with pytest.raises(ValueError):
            D((INF, INF, 1))
        with pytest.raises(ValueError):
            D((ext(0), NEG_INF, 1))

    def test_merges_multiplicity(self):
        d = D((ext(0), ext(1), 1), (ext(0), ext(1), 2))
        assert d.points == [(ext(0), ext(1), 3)]

    def test_text_roundtrip(self):
        d = D((ext(0), INF, 2), (ext(F(1, 2)), ext(3), 1))
        assert parse_diagram(d.to_text()) == d


class TestDiagramOf:
    def test_interval(self, f2):
        assert diagram_of(interval_presentation(f2, 0, 1)) == D((ext(0), ext(1), 1))

    def test_free_generator(self, f2):
        p = Presentation(1, f2, [("g", (F(0),))], [])
        assert diagram_of(p) == D((ext(0), INF, 1))

    def test_removable_generator(self, f2):
        # <g@0, h@1 | r@1 = g + h>: h is eliminated, the module is free on g
        p = Presentation(1, f2, [("g", (F(0),)), ("h", (F(1),))],
                         [("r", (F(1),), [1, 1])])
        assert diagram_of(p) == D((ext(0), INF, 1))

    def test_requires_one_parameter(self, f2):
        with pytest.raises(PresentationError):
            diagram_of(Presentation(2, f2, [], []))

    def test_invariant_under_rerepresentation(self, f3):
        rng = seeded(53)
        for _ in range(10):
            p = random_presentation(rng, f3, n=1)
            q = rerepresent(rng, p)
            assert diagram_of(p) == diagram_of(q)
            assert diagram_of(p) == diagram_of(p.minimize())


    @pytest.mark.parametrize("field", (PrimeField(2), PrimeField(3), QQ),
                             ids=("z2", "z3", "q"))
    def test_same_text_as_the_rank_formula(self, field):
        """One column reduction gives the diagram the k x k rank table gave
        (kept in reference_onedim.py): on random presentations, on their
        rerepresentations (a redundant generator killed by a relation of
        its own grade, a zero-length bar), and with a redundant relation,
        a multiple of another one at a grade above it, added."""
        rng = seeded(71)
        for _ in range(40):
            p = random_presentation(rng, field, n=1, max_gens=4, max_rels=4)
            q = rerepresent(rng, p)
            r = q
            if q.relations:
                _, (g,), cs = rng.choice(q.relations)
                c = field.of(rng.randrange(1, getattr(field, "p", 5)))
                r = Presentation(1, field, q.generators, q.relations + [
                    ("dup", (g + F(rng.randint(0, 2), 2),),
                     {i: field.mul(c, x) for i, x in cs.items()})]).validate()
            for x in (p, q, r):
                assert diagram_of(x).to_text() == ref.diagram_of(x).to_text()


class TestRoundTrip:
    def test_simple(self, f2):
        d = D((ext(0), ext(1), 1))
        assert diagram_of(presentation_of(d, f2)) == d

    def test_empty(self, f2):
        p = presentation_of(PersistenceDiagram([]), f2)
        assert p.point_dim((F(0),)) == 0

    def test_multiplicities_and_infinite(self, f2):
        d = D((ext(0), ext(1), 2), (ext(2), INF, 1))
        p = presentation_of(d, f2)
        assert len(p.generators) == 3 and len(p.relations) == 2
        assert diagram_of(p) == d

    def test_rejects_infinite_birth(self, f2):
        d = D((NEG_INF, ext(0), 1))
        with pytest.raises(PresentationError):
            presentation_of(d, f2)

    def test_random_roundtrip(self, f2):
        rng = seeded(59)
        for _ in range(10):
            pts = {}
            for _ in range(rng.randint(1, 4)):
                a = F(rng.randint(0, 6), 2)
                b = a + F(rng.randint(1, 4), 2) if rng.random() < 0.7 else INF
                key = (ext(a), b if b == INF else ext(b))
                pts[key] = pts.get(key, 0) + rng.randint(1, 2)
            d = PersistenceDiagram([(b, dd, m) for (b, dd), m in pts.items()])
            assert diagram_of(presentation_of(d, f2)) == d


class TestBottleneck:
    def test_empty(self):
        assert bottleneck(D(), D()) == ext(0)

    def test_single_deletion(self):
        assert bottleneck(D((ext(0), ext(1), 1)), D()) == ext(F(1, 2))

    def test_match_beats_deletion(self):
        d1 = D((ext(0), ext(2), 1))
        d2 = D((ext(F(1, 2)), ext(2), 1))
        assert bottleneck(d1, d2) == ext(F(1, 2))

    def test_infinite_classes_must_pair(self):
        d1 = D((ext(0), INF, 1))
        assert bottleneck(d1, D()) == INF
        d2 = D((ext(1), INF, 1))
        assert bottleneck(d1, d2) == ext(1)

    def test_brute_force_examples(self):
        assert bottleneck_bruteforce(D((ext(0), ext(1), 1)),
                                     D((ext(0), ext(1), 1))) == ext(0)
        assert bottleneck_bruteforce(D((ext(0), ext(1), 1)),
                                     D((ext(0), ext(2), 1))) == ext(1)

    def test_brute_force_guard(self):
        big = D((ext(0), ext(1), 7))
        with pytest.raises(ValueError):
            bottleneck_bruteforce(big, D())

    def test_agreement_random(self):
        rng = seeded(61)
        for _ in range(40):
            def rand_diagram():
                pts = {}
                for _ in range(rng.randint(0, 3)):
                    a = F(rng.randint(0, 6), 2)
                    b = a + F(rng.randint(1, 5), 2) if rng.random() < 0.8 else INF
                    key = (ext(a), b if b == INF else ext(b))
                    pts[key] = pts.get(key, 0) + rng.randint(1, 2)
                return PersistenceDiagram([(b, d, m) for (b, d), m in pts.items()])
            d1, d2 = rand_diagram(), rand_diagram()
            if sum(m for _, _, m in d1.points) > 5 or \
               sum(m for _, _, m in d2.points) > 5:
                continue
            assert bottleneck(d1, d2) == bottleneck_bruteforce(d1, d2)

    def test_same_distance_as_the_doubled_graph(self):
        """Against the parent bottleneck (kept in reference_onedim.py), on
        diagrams too large for the brute force: up to 12 points a side,
        -inf births, +inf deaths and multiplicities, many ties."""
        rng = seeded(73)
        checked = 0
        for _ in range(150):
            def rand_diagram():
                pts = []
                for _ in range(rng.randint(0, 8)):
                    a = NEG_INF if rng.random() < 0.03 else ext(F(rng.randint(0, 8), 2))
                    b = INF if rng.random() < 0.1 else ext(
                        (a.value if a.is_finite else 0) + F(rng.randint(1, 6), 2))
                    pts.append((a, b, rng.randint(1, 2)))
                return PersistenceDiagram(pts)
            d1, d2 = rand_diagram(), rand_diagram()
            assert bottleneck(d1, d2) == ref.bottleneck(d1, d2)
            checked += bottleneck(d1, d2).is_finite
        assert checked == 56

    def test_long_augmenting_paths_need_no_recursion(self):
        """Two shifted staircases of 150 bars: the matching search walks
        augmenting paths far longer than a recursion limit of 120 allows."""
        left = D(*[(ext(2 * k), ext(2 * k + 20), 1) for k in range(150)])
        right = D(*[(ext(2 * k + 1), ext(2 * k + 21), 1) for k in range(150)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(120)
        try:
            assert bottleneck(left, right) == ext(1)
        finally:
            sys.setrecursionlimit(limit)

    def test_pseudometric_properties(self):
        rng = seeded(67)
        diagrams = []
        for _ in range(6):
            pts = []
            for _ in range(rng.randint(0, 3)):
                a = F(rng.randint(0, 4), 2)
                pts.append((ext(a), ext(a + F(rng.randint(1, 4), 2)), 1))
            diagrams.append(PersistenceDiagram(pts))
        for x in diagrams:
            assert bottleneck(x, x) == ext(0)
            for y in diagrams:
                assert bottleneck(x, y) == bottleneck(y, x)
                for z in diagrams:
                    assert bottleneck(x, z) <= bottleneck(x, y) + bottleneck(y, z)

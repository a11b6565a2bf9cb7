"""The ranked `Presentation` against the copies of its Fraction-comparing
methods in `reference_presentation`, over Z/2, Z/3 and Q with one to three
parameters: the same validation outcome, the same minimized text, the same
Hilbert table on axes that hold values off the grades, and the same critical
grades and candidate set.  Every grade is also read back off the ranks.
Minimization is also compared on presentations large and dense enough for
long chains of step-1 pivots, and over Z/2 it must call no field method."""

import operator
import random
from fractions import Fraction as F

import pytest

import reference_interleave
import reference_presentation as ref
from permod.exactnum import QQ, PrimeField, common_denominator, ext, grade_ranks, INF
from permod.interleave import candidate_set
from permod.presentation import Presentation

from conftest import random_presentation, rerepresent

FIELDS = (PrimeField(2), PrimeField(3), QQ)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:    # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def assert_ranks_read_back(p):
    assert [g for _, g in p.generators] == \
        [tuple(map(operator.getitem, p.axes, k)) for k in p.gen_index]
    assert [g for _, g, _ in p.relations] == \
        [tuple(map(operator.getitem, p.axes, k)) for k in p.rel_index]
    grades = [g for _, g in p.generators] + [g for _, g, _ in p.relations]
    assert p.axes == [sorted({g[a] for g in grades}) for a in range(p.n)]


def cases():
    rng = random.Random("presentation-oracle")
    for k in range(120):
        field, n = FIELDS[k % 3], 1 + k % 3
        pool = [F(x, rng.choice((1, 2, 3))) for x in range(-2, 5)]
        p = random_presentation(rng, field, n=n, max_gens=5, max_rels=6,
                                grade_pool=pool)
        yield rng, p
        yield rng, rerepresent(rng, p)


def test_minimize_hilbert_and_critical_grades_match_reference():
    for rng, p in cases():
        m = p.minimize()
        assert m.to_text() == ref.minimize(p).to_text()
        for q in (p, m):
            assert_ranks_read_back(q)
            assert q.critical_grades() == ref.critical_grades(q)
            assert q.axes == ref.critical_grades(q, minimal=True)[1]
            pool = sorted({x for ax in q.axes for x in ax} | {F(-3), F(1, 7), F(9)})
            axes = [sorted(rng.sample(pool, rng.randint(1, len(pool))))
                    for _ in range(q.n)]
            assert q.hilbert_table(axes) == ref.hilbert_table(q, axes)


def test_candidate_set_matches_sorted_fraction_sets():
    pairs = list(cases())
    for (_, p), (_, q) in zip(pairs, pairs[1:]):
        if p.n != q.n or p.field != q.field:
            continue
        (_, axes_p), (_, axes_q) = (ref.critical_grades(x) for x in (p, q))
        scale = 2 * common_denominator(x for axis in axes_p + axes_q for x in axis)
        values = {0}
        for up, uq in zip(axes_p, axes_q):
            values |= {abs(x - y) for x in up for y in uq}
            values |= {abs(x - y) / 2 for x in up for y in up}
            values |= {abs(x - y) / 2 for x in uq for y in uq}
        want = [ext(F(int(v * scale), scale)) for v in sorted(values)] + [INF]
        assert candidate_set(p, q) == want
        assert reference_interleave.candidate_set(p, q) == want


def unchecked(n, field, gens, rels):
    """The presentation of these generators and relations built on the
    trusted path, `from_ranks`, which the constructor's `validate` does not
    guard."""
    axes, keys = grade_ranks([g for _, g, *_ in gens + rels], n)
    return Presentation.from_ranks(
        n, field, axes, [(name, k) for (name, _), k in zip(gens, keys)],
        [(name, k, cs) for (name, _, cs), k in zip(rels, keys[len(gens):])])


def test_validate_matches_reference():
    """The constructor refuses each bad presentation as the reference
    `validate` does, and so does `validate` on its trusted-path copy."""
    f2 = FIELDS[0]
    g0, g1 = (F(0), F(1)), (F(1), F(0))
    bad = [
        (2, f2, [("g", g0), ("g", g1)], []),
        (2, f2, [("g", g0)], [("g", g1, {0: 1})]),
        (2, f2, [("g", g0)], [("r", g1, {0: 1})]),
        (2, f2, [("g", g0)], [("r", g0, {1: 1})]),
        (2, f2, [("g", g0), ("h", (F(2), F(2)))], [("r", (F(2), F(1)), {0: 1, 1: 1})]),
        (0, f2, [], []),
    ]
    for args in bad:
        p = unchecked(*args)
        want = outcome(ref.validate, p)
        assert want is not p
        assert outcome(Presentation, *args) == want == outcome(Presentation.validate, p)
    for _, p in cases():
        assert outcome(Presentation.validate, p) is p is outcome(ref.validate, p)


def filled_presentation(rng, field, n):
    """A valid presentation with 30-60 generators and 40-80 relations, each
    grade coordinate one of 4 values per axis, each relation nonzero at
    about 70% of the generators below its grade."""
    axes = [sorted(rng.sample([F(x, 2) for x in range(-2, 9)], 4)) for _ in range(n)]
    gens = [(f"g{j}", tuple(map(rng.choice, axes))) for j in range(rng.randint(30, 60))]
    rels = []
    for i in range(rng.randint(40, 80)):
        grade = tuple(map(rng.choice, axes))
        rels.append((f"r{i}", grade, {
            j: field.of(rng.randrange(1, getattr(field, "p", 5)))
            for j, (_, g) in enumerate(gens)
            if all(map(operator.le, g, grade)) and rng.random() < 0.7}))
    return Presentation(n, field, gens, rels).validate()


def filled_cases():
    rng = random.Random("presentation-oracle:filled")
    for k in range(18):
        p = filled_presentation(rng, FIELDS[k % 3], 1 + k // 3 % 3)
        yield p
        yield rerepresent(rng, p)


def test_minimize_matches_reference_on_filled_presentations():
    removing = []
    for p in filled_cases():
        m = p.minimize()
        assert m.to_text() == ref.minimize(p).to_text()
        removing.append(len(m.generators) < len(p.generators))
    assert 2 * sum(removing) >= len(removing)


@pytest.mark.parametrize("seed", range(3))
def test_minimize_over_z2_calls_no_field_method(seed, monkeypatch):
    rng = random.Random(f"presentation-oracle:z2:{seed}")
    p = filled_presentation(rng, FIELDS[0], 1 + seed)
    calls = []
    for name in ("add", "sub", "mul", "div", "neg", "inv"):
        def counted(self, *args, _name=name, _method=getattr(PrimeField, name)):
            calls.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(PrimeField, name, counted)
    m = p.minimize()
    assert len(m.generators) < len(p.generators) and calls == []

"""The ranked `BifilteredComplex` against `reference_filtration.ReferenceComplex`,
which sorts and face-checks the grade values themselves.  On every input both
must give the same `to_text()` or the same exception and message; the same
fixed-scale slices at every scale axis value and between them (through the
reference `fixed_scale_slice`); the same barcodes of the one-parameter
complexes and slices over Z/2, Z/3 and Q (through the reference
`barcode_1d`); and the same rational axes, bases or irrational-grade error
in a chain complex.

Inputs: seeded Rips and Cech bifiltrations of L1, L2 and Linf clouds with
duplicate and collinear points, fed in shuffled order (L2 brings irrational
`Scale` grades); random complexes whose grades mix rationals, negative
values and Scales, among them `Scale(4)` beside the Fraction 2 with the same
square; and `parse_complex` texts with a missing face or a face that appears
later."""

import random
from fractions import Fraction as F

import pytest

import reference_filtration as ref
import reference_homology
from conftest import bracket_sqrt
from permod.exactnum import QQ, PrimeField, Scale
from permod.filtration import (BifilteredComplex, PointCloud,
                               cech_bifiltration, fixed_scale_slice,
                               parse_complex, rips_bifiltration)
from permod.homology import barcode_1d, chain_complex_of

F2, F3 = PrimeField(2), PrimeField(3)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:    # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def text_of(fn, *args):
    got = outcome(fn, *args)
    return got if type(got) is tuple else got.to_text()


def probe_deltas(ref_cx):
    """Every nonnegative rational scale value, a rational just below and just
    above each Scale, the midpoints between them, 0 and one past the top."""
    stops = {F(0)}
    for _, grade in ref_cx.simplices:
        x = grade[-1]
        stops.update(bracket_sqrt(x.sq) if isinstance(x, Scale) else [x] if x >= 0 else [])
    stops = sorted(stops)
    return stops + [(a + b) / 2 for a, b in zip(stops, stops[1:])] + [stops[-1] + 1]


def chain_view(cx):
    chain = chain_complex_of(cx, F2)
    return chain.axes, [chain.simplices(d) for d in range(chain.max_deg + 1)]


def ref_chain_view(ref_cx):
    grades = ref_cx.grades_rational()
    axes = [sorted({g[a] for _, g in grades}) for a in range(ref_cx.nparams)]
    degrees = max((len(v) for v, _ in grades), default=0)
    return axes, [[s for s in grades if len(s[0]) == d + 1] for d in range(degrees)]


def check_barcodes(got, want):
    for d in (0, 1, 2):
        for field in (F2, F3, QQ):      # Z/3 is where a boundary's -1 is no 1
            assert text_of(barcode_1d, got, d, field) == \
                text_of(reference_homology.barcode_1d, want, d, field)


def check_complex(nparams, simplices):
    """One input through both complexes; returns whether it was accepted."""
    got, want = outcome(BifilteredComplex, nparams, simplices), \
        outcome(ref.ReferenceComplex, nparams, simplices)
    if type(want) is tuple:
        assert got == want
        return False
    assert got.to_text() == want.to_text()
    assert outcome(chain_view, got) == outcome(ref_chain_view, want)
    check_barcodes(got, want)
    if nparams:
        for delta in probe_deltas(want):
            s_got = outcome(fixed_scale_slice, got, delta)
            s_want = outcome(ref.fixed_scale_slice, want, delta)
            if type(s_want) is tuple:
                assert s_got == s_want
                continue
            assert s_got.to_text() == s_want.to_text()
            assert outcome(chain_view, s_got) == outcome(ref_chain_view, s_want)
            check_barcodes(s_got, s_want)
    return True


def random_cloud(rng):
    dim = rng.randint(1, 3)
    pts = [tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(dim))
           for _ in range(rng.randint(1, 7))]
    if rng.random() < 0.3:      # collinear: multiples of one direction
        step = pts[0]
        pts = [tuple(k * x for x in step) for k in range(len(pts))]
    for _ in range(rng.choice((0, 1, 2))):     # duplicates
        pts.append(rng.choice(pts))
    value = {pt: (F(rng.randint(0, 4)),) for pt in pts}
    return PointCloud(pts), [value[pt] for pt in pts]


def test_seeded_bifiltrations_match_reference():
    rng = random.Random("complex-oracle")
    scales = 0
    for _ in range(100):
        cloud, vals = random_cloud(rng)
        p = rng.choice((1, 2, 2, "inf"))
        build = rips_bifiltration if p == 1 or rng.random() < 0.5 else cech_bifiltration
        cx = build(cloud, p, vals, rng.randint(1, 2), F(rng.randint(1, 8), 2))
        simplices = list(cx.simplices)
        assert cx.to_text() == ref.ReferenceComplex(2, simplices).to_text()
        rng.shuffle(simplices)
        assert check_complex(2, simplices)
        scales += any(isinstance(g[-1], Scale) for _, g in simplices)
    assert scales >= 10


POOL = (F(-1), F(0), F(1, 2), F(1), Scale(2), F(3, 2), Scale(F(9, 4)), F(2),
        Scale(4), Scale(5), F(3))


def key(x):
    return x.sq if isinstance(x, Scale) else x * abs(x)


def random_complex(rng, nparams):
    """Grades drawn from POOL (or its rationals alone), mostly monotone along
    faces; now and then a coface below a face or a face left out."""
    pool = POOL if rng.random() < 0.6 else [x for x in POOL if not isinstance(x, Scale)]
    grades = {}
    for v in range(rng.randint(1, 5)):
        grades[(v,)] = tuple(rng.choice(pool) for _ in range(nparams))
    nv = len(grades)
    for size in (2, 3):
        for _ in range(rng.randint(0, 6)):
            verts = tuple(sorted(rng.sample(range(nv), min(size, nv))))
            faces = [verts[:k] + verts[k + 1:] for k in range(len(verts))]
            if len(verts) < size or verts in grades or any(f not in grades for f in faces):
                continue
            lower = [max((grades[f][a] for f in faces), key=key) for a in range(nparams)]
            grades[verts] = tuple(
                rng.choice(pool) if rng.random() < 0.05 else
                rng.choice([x for x in pool if key(x) >= key(lo)])
                if rng.random() < 0.3 else lo for lo in lower)
    simplices = list(grades.items())
    if rng.random() < 0.1 and len(simplices) > 1:
        simplices.pop(rng.randrange(len(simplices)))
    rng.shuffle(simplices)
    return simplices


def test_mixed_scale_grades_match_reference():
    rng = random.Random("complex-oracle-pool")
    accepted = 0
    for _ in range(300):
        nparams = rng.choice((1, 2, 2))
        accepted += check_complex(nparams, random_complex(rng, nparams))
    assert accepted >= 150


@pytest.mark.parametrize("column", [0, 1])
def test_scale_with_the_square_of_a_fraction(column):
    """sqrt(4) and 2 share a rank: the order falls to the vertices, and a
    slice that keeps only the Fraction is rational."""
    def grade(x):
        return (x, F(1)) if column == 0 else (F(1), x)
    simplices = [((0,), grade(Scale(4))), ((1,), grade(F(2))), ((2,), grade(F(1))),
                 ((0, 1), grade(F(2))), ((1, 2), grade(Scale(4))),
                 ((0, 2), grade(F(3))), ((0, 1, 2), grade(Scale(9)))]
    assert check_complex(2, simplices)
    cx = BifilteredComplex(2, simplices)
    assert [v for v, _ in cx.simplices][:3] == [(2,), (0,), (1,)]
    assert cx.axes[column] == [F(1), F(2), F(3)]


TEXTS = [
    "0 : 0 0\n1 : 0 0\n0,1 : 0 1\n0,1,2 : 1 1\n",       # missing vertex 2 and edges
    "0 : 0 0\n1 : 0 0\n2 : 0 0\n0,1 : 0 1\n1,2 : 0 1\n0,1,2 : 1 1\n",  # missing 0,2
    "0 : 0 2\n1 : 0 0\n0,1 : 0 1\n",                    # vertex after its edge
    "0 : 0 sqrt(3)\n1 : 0 0\n0,1 : 0 3/2\n",            # sqrt(3) > 3/2
    "0 : 0 sqrt(2)\n1 : 0 0\n0,1 : 0 3/2\n",
    "0 : 1\n1 : 0\n0,1 : 1\n1,2 : 2\n2 : 2\n",           # a face given later
    "0 : 1\n0 : 1\n",                                  # duplicate
]


@pytest.mark.parametrize("text", TEXTS)
def test_parsed_texts_match_reference(text):
    got, want = outcome(parse_complex, text), outcome(ref.parse_complex, text)
    if type(want) is tuple:
        assert got == want
    else:
        assert check_complex(want.nparams, want.simplices)

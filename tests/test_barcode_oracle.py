"""`homology.barcode_1d`, which reads the pairs of every degree from the
lows of the chain complex's `swept`, against `reference_homology.barcode_1d_bars`, which
found the creators by one reduction and paired them by `onedim.bars` of the
restricted next boundaries.  Both must give the same diagram text, or the
same exception and message, over Z/2, Z/3 and Q in degrees -1 to 3, on
fixed-scale slices of seeded Rips and Cech bifiltrations at several scales
and on random one-parameter complexes up to dimension 3.  And each degree
of a chain is reduced once, whichever barcodes ask for it."""

import itertools
import random
from fractions import Fraction as F

import pytest

import reference_homology
from permod.exactnum import QQ, PrimeField
from permod.filtration import (BifilteredComplex, PointCloud, cech_bifiltration,
                               fixed_scale_slice, rips_bifiltration)
from permod.homology import barcode_1d, chain_complex_of
from permod.linalg import ColumnReducer

FIELDS = (PrimeField(2), PrimeField(3), QQ)
DEGREES = (-1, 0, 1, 2, 3)


def text_of(fn, *args):
    try:
        return fn(*args).to_text()
    except Exception as exc:    # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def slices(rng):
    """Fixed-scale slices at 0, a scale in [3/2, 5/2], the cap and past it, of
    seeded bifiltrations: of random clouds with a duplicate point, and of
    jittered planar lattices (spacing 3, so cycles stay open)."""
    for k in range(24):
        if k % 2:
            dim = rng.randint(1, 3)
            pts = [tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(dim))
                   for _ in range(rng.randint(1, 8))]
            pts.append(rng.choice(pts))
        else:
            pts = [(3 * a + rng.randint(0, 1), 3 * b + rng.randint(0, 1))
                   for a in range(rng.randint(2, 3)) for b in range(3)]
        value = {pt: (F(rng.randint(0, 3)),) for pt in pts}
        build, p = [(rips_bifiltration, 1), (rips_bifiltration, "inf"),
                    (cech_bifiltration, "inf"), (rips_bifiltration, 2),
                    (cech_bifiltration, 2), (rips_bifiltration, 1)][k % 6]
        cx = build(PointCloud(pts), p, [value[pt] for pt in pts], 3, F(3))
        for delta in (F(0), F(rng.randint(3, 5), 2), F(3), F(7)):
            yield fixed_scale_slice(cx, delta)


def random_complex(rng):
    """Every face set of up to 4 of nv vertices kept with some chance (its
    faces present), at the max of its faces' grades plus 0, 1/2 or 1: equal
    grades give bars dropped at b == d."""
    grades = {(v,): F(rng.randint(0, 4), 2) for v in range(rng.randint(1, 7))}
    for size in (2, 3, 4):
        for verts in itertools.combinations(range(len(grades)), size):
            faces = list(itertools.combinations(verts, size - 1))
            if all(f in grades for f in faces) and rng.random() < 0.7:
                grades[verts] = max(grades[f] for f in faces) + F(rng.randint(0, 2), 2)
    return BifilteredComplex(1, [(verts, (g,)) for verts, g in grades.items()])


def test_slices_match_the_bars_reference():
    complexes = list(slices(random.Random("barcode-oracle:slices")))
    bars = 0
    for cx in complexes:
        for field in FIELDS:
            for d in DEGREES:
                got = text_of(barcode_1d, cx, d, field)
                assert got == text_of(reference_homology.barcode_1d_bars, cx, d, field)
                bars += got.count("\n") if d == 1 else 0
    assert len(complexes) == 96 and bars >= 20     # H1 bars over the three fields


def test_random_complexes_match_the_bars_reference():
    rng = random.Random("barcode-oracle:complexes")
    tops, bars = set(), dict.fromkeys(DEGREES, 0)
    for _ in range(120):
        cx = random_complex(rng)
        tops.add(max(len(v) for v, _ in cx.simplices))
        for field in FIELDS:
            for d in DEGREES:
                got = text_of(barcode_1d, cx, d, field)
                assert got == text_of(reference_homology.barcode_1d_bars, cx, d, field)
                bars[d] += got.count("\n")
    assert tops == {1, 2, 3, 4} and bars[1] >= 100 and bars[2] >= 20


def test_two_parameter_complex_refused_alike():
    cx = rips_bifiltration(PointCloud([(0,), (1,)]), 1, [(0,), (1,)], 1, 1)
    for d in DEGREES:
        assert text_of(barcode_1d, cx, d, QQ) == \
            text_of(reference_homology.barcode_1d_bars, cx, d, QQ)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_each_degree_is_reduced_once(monkeypatch, field):
    """The barcodes of degrees -1 to 3, twice over, add each nonempty
    boundary column of the chain to a reducer once."""
    calls = []
    add_packed = ColumnReducer.add_packed

    def counting(self, col, combo=None):
        calls.append(1)
        return add_packed(self, col, combo)

    monkeypatch.setattr(ColumnReducer, "add_packed", counting)
    rng = random.Random("barcode-oracle:count")
    for cx in [next(slices(rng)), random_complex(rng)]:
        chain = chain_complex_of(cx, field)
        calls.clear()
        for _ in range(2):
            for d in DEGREES:
                barcode_1d(cx, d, field)
        assert len(calls) == sum(len(chain.columns[d]) for d in range(1, chain.max_deg + 1))

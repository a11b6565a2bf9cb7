"""Grid modules hold their transitions packed in the field's column type
(`exactnum`: ints over Z/2, {row: coeff} dicts otherwise).  Every builder
hands them over packed; dict columns, from the text parser and from
callers, are packed at the door of `GridModule` and then pass the same
checks.  Checked here:

* the transitions of every builder arrive packed and are stored as they
  are, and `step`, `trans` and `to_text` are views unpacked from them;
* every refusal of `GridModule` raises through both entries, dict and
  packed, over Z/2 and Z/3;
* the text of chain, image and resampled modules on seeded inputs is byte
  for byte what it was when transitions were stored as dicts, pinned by a
  sha256 taken from that code; the text of presentation modules, H_0 of
  their two-term complexes with bases picked in chain position order, is
  pinned by its own sha256 and is the chain reference's on that complex.
"""

import hashlib
from fractions import Fraction as F

import pytest

from permod.exactnum import QQ, PrimeField
from permod.homology import (GridModule, HomologyError, chain_complex_of,
                             grid_module_of, image_grid_module, parse_grid_module,
                             resample)
from permod.infer import cech_cluster_module, offset_cluster_module

import reference_grid as ref
from conftest import random_one_critical_complex, random_presentation, seeded
from test_grid_oracle import widened

F2, F3 = PrimeField(2), PrimeField(3)

# sha256 of the joined texts of `seeded_modules()`: the chain, image and
# resampled ones, taken on the code that stored each transition as
# {row: coeff} dicts; the presentation ones, taken when their bases became
# those of H_0 of the two-term complex (candidates in chain position
# order, where they had been offered by generator index from the last down)
CHAIN_TEXTS_SHA256 = "3bb0491b72af64f2c8bccf348e7c51b6d5f3eb845512aac1804eab804d9eb4f2"
PRESENTATION_TEXTS_SHA256 = "b35e390e613f6370911f1e88fe4b55c01876a74a68999e0e11ab9d64b939b697"


def seeded_modules():
    """(the presentation or None, module): chain modules (1 to 3 parameters),
    their resamplings onto widened axes, image modules and presentation
    modules over Z/2, Z/3 and Q."""
    rng, wide = seeded(9001), seeded(9002)
    for f in (F2, F3, QQ):
        for nparams in (1, 2, 3):
            for _ in range(3):
                cx = random_one_critical_complex(rng, nparams, max_simplices=9)
                axes = chain_complex_of(cx, f).axes
                for degree in (0, 1):
                    gm = grid_module_of(cx, axes, degree=degree, field=f)
                    yield None, gm
                    if nparams < 3:
                        yield None, resample(gm, widened(wide, axes))
        for nparams in (2, 3):
            for _ in range(3):
                cx = random_one_critical_complex(rng, nparams, max_simplices=10)
                scales = sorted({g[-1] for _, g in cx.simplices})
                d1, d2 = sorted(rng.choice(scales) for _ in range(2))
                axes = [sorted({g[a] for _, g in cx.simplices}) for a in range(nparams - 1)]
                for degree in (0, 1):
                    yield None, image_grid_module(cx, degree, d1, d2, widened(wide, axes), f)
        for n in (1, 2):
            for _ in range(4):
                p = random_presentation(rng, f, n=n)
                axes = p.critical_grades()[1]
                if all(axes):
                    yield p, grid_module_of(p, axes)
                    yield p, grid_module_of(p, widened(wide, axes))


def cluster_modules(f):
    pts = [(F(0), F(-1)), (F(1), F(-2)), (F(3), F(-1)), (F(4), F(0))]
    grid = [F(k) for k in range(6)]
    a_axis, b_axis = [F(-2), F(-1), F(0)], [F(0), F(1, 2), F(1)]
    yield cech_cluster_module(f, pts, a_axis, b_axis)
    yield offset_cluster_module(f, grid, [F(-k % 3) for k in grid], a_axis, b_axis)


def test_texts_of_chain_image_presentation_and_resampled_modules_unchanged():
    texts = {False: [], True: []}
    for p, gm in seeded_modules():
        text = gm.to_text()
        texts[p is not None].append(text)
        if p is not None:
            assert text == ref.grid_module_of_chain(p.chain_complex(), 0, gm.axes,
                                                    gm.field).to_text()
    assert len(texts[False]) > 100 and sum("trans" in t for t in texts[False]) > 50
    assert len(texts[True]) > 20 and sum("trans" in t for t in texts[True]) > 10
    for text in texts[False] + texts[True]:
        assert parse_grid_module(text).to_text() == text
    assert [hashlib.sha256("".join(texts[k]).encode()).hexdigest() for k in (False, True)] == \
        [CHAIN_TEXTS_SHA256, PRESENTATION_TEXTS_SHA256]


def test_builders_hand_over_packed_transitions(monkeypatch):
    """Every builder (chain, image, presentation, resample, cluster) hands
    `GridModule` its Z/2 transitions as ints, which are stored as they
    are; `step` and `trans` are views unpacked from them, and feeding the
    views back in (packed at the door) gives the same text."""
    handed, init = [], GridModule.__init__

    def recording(self, field, axes, dims, trans):
        if field == F2:
            handed.extend(type(col) for cols in trans.values() for col in cols)
        init(self, field, axes, dims, trans)
    monkeypatch.setattr(GridModule, "__init__", recording)
    mods = [gm for _, gm in seeded_modules()]
    mods += [gm for f in (F2, F3, QQ) for gm in cluster_modules(f)]
    monkeypatch.undo()
    assert len(handed) > 500 and set(handed) == {int}
    for gm in mods:
        kind = gm.field.columns
        for (idx, a), cols in gm.trans.items():
            packed = gm._steps[a][gm._flat[idx]]
            assert all(type(c) is (int if gm.field == F2 else dict) for c in packed)
            assert cols == gm.step(idx, a) == list(map(kind.unpack, packed))
        again = GridModule(gm.field, gm.axes, gm.dims, gm.trans)
        assert again.to_text() == gm.to_text()


def square(f, form):
    """A commuting 2 x 2 grid of one-dimensional identities, as (axes,
    dims, trans) with dict or packed columns."""
    one = {0: f.one} if form == "dict" else f.columns.unit(0)
    trans = {((i, j), a): [one] for i in range(2) for j in range(2) for a in range(2)
             if (i, j)[a] == 0}
    return [[F(0), F(1)], [F(0), F(1)]], {(i, j): 1 for i in range(2) for j in range(2)}, trans


def bad_column(f, form, what):
    """A column of the given fault: a row past the target's dimension, a
    negative row, an explicit zero entry, or the zero column."""
    rows = {"past": {1: f.one}, "negative": {-1: f.one}, "zero entry": {0: f.zero},
            "zero": {}}[what]
    if form == "dict" or f != F2:      # over Z/3 the packed column is the dict
        return rows
    return {"past": 2, "negative": -1, "zero": 0}[what]


def refusals(f, form):
    """(name, axes, dims, trans, message) for each refusal of GridModule."""
    axes, dims, trans = square(f, form)
    out = [("descending axis", [[F(1), F(0)], axes[1]], dims, trans, "strictly increasing"),
           ("dimension off the grid", axes, {**dims, (2, 0): 1}, trans,
            r"dimension given off the grid at \(2, 0\)"),
           ("dimension missing", axes, {k: v for k, v in dims.items() if k != (1, 1)}, trans,
            r"dimension missing at grid index \(1, 1\)"),
           ("transition missing", axes, dims,
            {k: v for k, v in trans.items() if k != ((0, 0), 0)},
            r"no transition given at \(0, 0\) axis 0"),
           ("column count", axes, dims, {**trans, ((0, 0), 0): []}, "wrong shape"),
           ("off the grid", axes, dims, {**trans, ((1, 1), 0): trans[((0, 0), 0)]},
            r"transition given off the grid at \(1, 1\) axis 0")]
    for what in ("past", "negative", "zero entry", "zero"):
        if what == "zero entry" and form == "packed" and f == F2:
            continue        # a bitset holds no explicit zero
        col = bad_column(f, form, what)
        out.append((what, axes, dims, {**trans, ((0, 1), 0): [col]},
                    "does not commute" if what == "zero" else "wrong shape"))
    return out


@pytest.mark.parametrize("form", ["dict", "packed"])
@pytest.mark.parametrize("f", [F2, F3], ids=str)
def test_every_refusal_raises_through_both_entries(f, form):
    axes, dims, trans = square(f, form)
    assert GridModule(f, axes, dims, trans).rank_between((0, 0), (1, 1)) == 1
    cases = refusals(f, form)
    assert len(cases) == 10 - (form == "packed" and f == F2)
    for name, axes_, dims_, trans_, message in cases:
        with pytest.raises(HomologyError, match=message):
            GridModule(f, axes_, dims_, trans_)

"""Grid modules on packed composites with flat indices, and rank-shift
probes over the unclipped box of pairs only, against the code they replaced
(kept at the end of reference_grid.py): the tuple-indexed composite walk on
{row: coeff} columns, the probe over every index pair, and cluster modules
sorted by Fraction pairs.

Every composite and rank must match on chain, image, uneven-basis and
cluster modules; rank-shift values must match on 1- and 2-parameter pairs
with unequal axes (the `resample` path), at an eps where every pair clips,
and on Cech modules with repeated positions and tied weights.  A counting
guard on one seeded 10 x 10 inference pair checks that no composite is
composed twice and that no rank lands on a clipped pair."""

import bisect
import itertools
from fractions import Fraction as F

from permod import homology
from permod.exactnum import QQ, BitColumns, PrimeField, common_denominator
from permod.filtration import DensitySpec
from permod.homology import (GridModule, chain_complex_of, grid_module_of,
                             image_grid_module, rank_shift_distance)
from permod.infer import (cech_cluster_module, offset_cluster_module,
                          run_experiment)
from permod.presentation import Presentation

import reference_grid as ref
from reference_linalg import columns_of
from conftest import random_one_critical_complex, random_presentation, seeded
from test_grid_oracle import rebased

FIELDS = (PrimeField(2), PrimeField(3))


def assert_same_composites(gm):
    """Every composite and rank of gm equals the tuple walk's on the same
    transitions, pairs asked in a seeded random order so that the caches
    of both fill differently."""
    old = ref.TupleWalkModule(gm)
    pairs = [(i1, i2) for i1 in gm.indices() for i2 in gm.indices()
             if all(a <= b for a, b in zip(i1, i2))]
    seeded(len(pairs)).shuffle(pairs)
    for i1, i2 in pairs:
        assert gm.matrix_between(i1, i2) == old.matrix_between(i1, i2)
        assert gm.rank_between(i1, i2) == old.rank_between(i1, i2)


def chain_modules(seed, nparams, count=4):
    rng = seeded(seed)
    for f in FIELDS:
        for _ in range(count):
            cx = random_one_critical_complex(rng, nparams, max_simplices=9)
            axes = chain_complex_of(cx, f).axes
            for degree in (0, 1):
                yield grid_module_of(cx, axes, degree=degree, field=f)


def cluster_inputs(rng):
    """Cech points with repeated positions and tied weights, and an offset
    grid, on small axes."""
    coords = [F(rng.randint(0, 10), 2) for _ in range(9)]
    coords += coords[:3]                          # repeated positions
    weights = [F(-rng.randint(0, 3), 2) for _ in coords]
    weights[4] = weights[5] = weights[0]          # tied weights
    grid = [F(k, 2) for k in range(12)]
    gw = [F(-rng.randint(0, 4), 2) for _ in grid]
    a_axis = [F(k, 2) for k in range(-4, 1)]
    b_axis = [F(k, 2) for k in range(5)]
    return list(zip(coords, weights)), grid, gw, a_axis, b_axis


class TestComposites:
    def test_chain_modules(self):
        for nparams, seed in ((1, 601), (2, 607)):
            for gm in chain_modules(seed, nparams):
                assert_same_composites(gm)

    def test_image_modules(self):
        rng = seeded(613)
        for f in FIELDS:
            for _ in range(4):
                cx = random_one_critical_complex(rng, 2, max_simplices=10)
                scales = sorted({g[-1] for _, g in cx.simplices})
                d1, d2 = sorted(rng.choice(scales) for _ in range(2))
                axes = [sorted({g[0] for _, g in cx.simplices})]
                for degree in (0, 1):
                    assert_same_composites(image_grid_module(cx, degree, d1, d2, axes, f))

    def test_uneven_modules_in_random_bases(self):
        rng = seeded(617)
        axes = [[F(k) for k in range(4)] for _ in range(2)]
        for f in (PrimeField(3), PrimeField(5), QQ):
            for _ in range(4):
                p = random_presentation(rng, f, n=2, max_gens=4, max_rels=3)
                gm = grid_module_of(p, axes)
                if f == QQ:
                    assert_same_composites(gm)
                    continue
                axes_, dims, trans = rebased(rng, gm)
                cols = {(idx, a): columns_of(f, m, dims[idx])
                        for (idx, a), m in trans.items()}
                assert_same_composites(GridModule(f, axes_, dims, cols))

    def test_cluster_modules(self):
        rng = seeded(619)
        f = PrimeField(2)
        for _ in range(4):
            pts, grid, gw, a_axis, b_axis = cluster_inputs(rng)
            cech = cech_cluster_module(f, pts, a_axis, b_axis)
            assert cech.to_text() == \
                ref.fraction_cech_cluster_module(f, pts, a_axis, b_axis).to_text()
            assert_same_composites(cech)
            off = offset_cluster_module(f, grid, gw, a_axis, b_axis)
            assert off.to_text() == \
                ref.fraction_offset_cluster_module(f, grid, gw, a_axis, b_axis).to_text()
            assert_same_composites(off)

    def test_long_composite_without_recursion(self, f2):
        p = Presentation(1, f2, [("g", (F(0),))], [])
        gm = grid_module_of(p, [[F(k) for k in range(2000)]])
        old = ref.TupleWalkModule(gm)
        assert gm.matrix_between((0,), (1999,)) == old.matrix_between((0,), (1999,))
        assert gm.rank_between((0,), (1999,)) == 1


def both(gm, gn):
    """rank_shift_distance of the library and of the tuple walk."""
    return (rank_shift_distance(gm, gn),
            ref.tuple_walk_rank_shift_distance(ref.TupleWalkModule(gm),
                                               ref.TupleWalkModule(gn)))


class TestRankShift:
    def test_pairs_on_unequal_axes(self):
        unequal = 0
        for nparams, seed in ((1, 631), (2, 641)):
            mods = list(chain_modules(seed, nparams, count=3))
            for gm, gn in itertools.combinations(mods[:6], 2):
                unequal += gm.axes != gn.axes
                new, old = both(gm, gn)
                assert new == old
        assert unequal >= 10

    def test_every_pair_clips(self, f2):
        # a free module against the zero module: every unclipped pair fails
        # until eps = 2, where no pair survives the shift on axes [0, 3]
        # and [0, 2]^2, so the probe checks nothing and holds
        for axes in ([[F(k) for k in range(4)]], [[F(k) for k in range(3)]] * 2):
            n = len(axes)
            free = grid_module_of(Presentation(n, f2, [("g", (F(0),) * n)], []), axes)
            zero = grid_module_of(Presentation(n, f2, [], []), axes)
            new, old = both(free, zero)
            assert new == old == 2

    def test_cech_with_repeated_positions_and_tied_weights(self):
        rng = seeded(643)
        f = PrimeField(2)
        for _ in range(4):
            pts, grid, gw, a_axis, b_axis = cluster_inputs(rng)
            cech = cech_cluster_module(f, pts, a_axis, b_axis)
            off = offset_cluster_module(f, grid, gw, a_axis, b_axis)
            old = ref.tuple_walk_rank_shift_distance(
                ref.TupleWalkModule(ref.fraction_cech_cluster_module(f, pts, a_axis, b_axis)),
                ref.TupleWalkModule(ref.fraction_offset_cluster_module(
                    f, grid, gw, a_axis, b_axis)))
            assert rank_shift_distance(cech, off) == old


def snapped(axis, k, eps, up):
    """The index axis[k] -/+ eps snaps out to, or None off the axis."""
    if up:
        i = bisect.bisect_left(axis, axis[k] + eps)
        return i if i < len(axis) else None
    i = bisect.bisect_right(axis, axis[k] - eps) - 1
    return i if i >= 0 else None


def test_inference_pair_composes_once_and_ranks_no_clipped_pair(monkeypatch):
    """One seeded 10 x 10 pair of the inference harness: a composite is
    composed only where the walk caches a new one, and every rank asked
    while probing eps is of an unclipped pair or of its snapped pair."""
    modules, composes, probes = [], [0], []
    in_check = [False]

    init = GridModule.__init__

    def record_init(self, *args):
        modules.append(self)
        init(self, *args)
    monkeypatch.setattr(GridModule, "__init__", record_init)

    check = GridModule.check_squares

    def flagged_check(self):
        in_check[0] = True
        try:
            check(self)
        finally:
            in_check[0] = False
    monkeypatch.setattr(GridModule, "check_squares", flagged_check)

    compose = BitColumns.compose

    def counting_compose(later, earlier):
        composes[0] += not in_check[0]
        return compose(later, earlier)
    monkeypatch.setattr(BitColumns, "compose", staticmethod(counting_compose))

    least_feasible = homology.least_feasible

    def probing(values, feasible):
        def probe(eps):
            probes.append((eps, []))
            return feasible(eps)
        return least_feasible(values, probe)
    monkeypatch.setattr(homology, "least_feasible", probing)

    rank_between = GridModule.rank_between

    def recording(self, i1, i2):
        probes[-1][1].append((i1, i2))
        return rank_between(self, i1, i2)
    monkeypatch.setattr(GridModule, "rank_between", recording)

    run_experiment(DensitySpec.parse("1/2,-1,1/4;1/2,1,1/4"), [100], trials=1,
                   seed=11, bandwidth=F(1, 5), thresholds=10, offsets=10)

    assert len(modules) == 2 and all(gm.shape() == (10, 10) for gm in modules)
    made = 0
    for gm in modules:
        for key in gm._composites:
            f1, f2 = divmod(key, len(gm._dims))
            made += f2 - f1 not in gm._strides      # one step is not composed
    assert composes[0] == made > 0

    axes = modules[0].axes
    assert modules[1].axes == axes and len(probes) > 1
    # the probed candidates are ints on the axes' common denominator
    scale = common_denominator(x for ax in axes for x in ax)
    for e, calls in probes:
        eps = F(e, scale)
        unclipped = set()
        allowed = set()
        for i1 in modules[0].indices():
            for i2 in modules[0].indices():
                lo = tuple(snapped(ax, k, eps, False) for ax, k in zip(axes, i1))
                hi = tuple(snapped(ax, k, eps, True) for ax, k in zip(axes, i2))
                if all(map(int.__le__, i1, i2)) and None not in lo + hi:
                    unclipped.add((i1, i2))
                    allowed |= {(i1, i2), (lo, hi)}
        assert set(calls) <= allowed
        assert bool(calls) == bool(unclipped)

"""Cluster modules listed on grid indices, each transition a packed unit
column per cluster found by one walk over sorted cluster ranges, against
the dense reference (`reference_grid._cluster_grid_module`, which searches
every big cluster for each small one, and its `rank_shift_distance`).

Inputs are seeded KDE samples of the inference harness's density, weighted
and axed as `run_experiment` does, up to the size of acceptance criterion
12 (800 points, 17 x 17 axes), over Z/2 and Z/3.  Up to 200 points the
text, every packed step, the rank between every two grid indices and the
rank-shift value against the truth module must all equal the reference's
(on 17 x 17 axes the tuple-walk reference's, on steps shown equal to the
dense reference's).  At 800 points the dense text and composites are too slow to build: every
packed step must equal the reference's, which fixes the text; the ranks
are checked against the number of big clusters that hold a small one, read
off the reference's clusters; and the rank-shift value against the
tuple-walk reference.  Two mutants of the containment, a home off by one
cluster and a row past the target, must be caught.  Small hand-made inputs
cover what the Cech runs' sorted gaps must get right: duplicate positions
(a gap of 0), a gap of exactly 2b (no split), a threshold at which no point
is active and one at which a single point is."""

import bisect
import itertools
from fractions import Fraction as F

import pytest

from permod import infer
from permod.exactnum import PrimeField
from permod.filtration import DensitySpec, KdeSpec, kde_evaluate, sample_density
from permod.homology import HomologyError, rank_shift_distance
from permod.infer import cech_cluster_module, default_ambient_grid, offset_cluster_module

import reference_grid as ref
from reference_linalg import columns_of

FIELDS = (PrimeField(2), PrimeField(3))
DENSITY = DensitySpec.parse("1/2,-1,1/4;1/2,1,1/4")


def harness_inputs(z, seed, n):
    """(sample points, truth grid, truth weights, a axis, b axis) as
    `run_experiment` makes them for z samples with n thresholds and n
    offsets."""
    ambient = default_ambient_grid(DENSITY, 33)
    truth = [-DENSITY.pdf((y,)) for y in ambient]
    peak = max(-w for w in truth)
    a_axis = sorted({-peak * F(k, n) for k in range(1, n + 1)})
    b_axis = [(ambient[1] - ambient[0]) * k for k in range(n)]
    cloud = sample_density(DENSITY, z, seed)
    estimates = kde_evaluate(cloud, KdeSpec("gaussian", F(1, 5)), cloud)
    pts = [(p[0], -e) for p, e in zip(cloud, estimates)]
    return pts, ambient, truth, a_axis, b_axis


def index_pairs(gm):
    return [(i1, i2) for i1 in gm.indices() for i2 in gm.indices()
            if all(map(int.__le__, i1, i2))]


def assert_same_steps(gm, old):
    """Same axes and dimensions, and every stored (packed) step equals the
    reference's dense rows packed."""
    f = gm.field
    assert gm.axes == old.axes and gm.dims == old.dims
    assert len(old.trans) == sum(s is not None for axis in gm._steps for s in axis)
    for (idx, a), rows in old.trans.items():
        want = list(map(f.columns.pack, columns_of(f, rows, gm.dims[idx])))
        assert gm._steps[a][gm._flat[idx]] == want


def assert_same_modules(gm, old):
    assert gm.to_text() == old.to_text()
    assert_same_steps(gm, old)
    for i1, i2 in index_pairs(gm):
        assert gm.rank_between(i1, i2) == old.rank_between(i1, i2)


def homes_rank(clusters, starts, i1, i2):
    """The rank of the containment i1 -> i2: the number of clusters at i2
    that hold a cluster of i1, each found by the last start at or before
    the small cluster's start (the reference checked that they nest)."""
    return len({bisect.bisect_right(starts[i2], lo) - 1 for lo, _ in clusters[i1]})


def modules(f, inputs):
    pts, ambient, truth, a_axis, b_axis = inputs
    return (cech_cluster_module(f, pts, a_axis, b_axis),
            offset_cluster_module(f, ambient, truth, a_axis, b_axis),
            ref._cluster_grid_module(f, sorted(pts), a_axis, b_axis, "cech"),
            ref._cluster_grid_module(f, list(zip(ambient, truth)), a_axis, b_axis, "offset"))


@pytest.mark.parametrize("z, seed, n", [(50, 7001, 10), (200, 7003, 10), (50, 7005, 17)])
def test_harness_modules_match_the_dense_reference(z, seed, n):
    inputs = harness_inputs(z, seed, n)
    for f in FIELDS:
        cech, off, cech_ref, off_ref = modules(f, inputs)
        assert max(cech.dims.values()) > z // 2      # b = 0 keeps most points apart
        assert_same_modules(cech, cech_ref)
        assert_same_modules(off, off_ref)
        # the dense probe over every pair takes seconds on 17 x 17 axes
        want = ref.rank_shift_distance(cech_ref, off_ref) if n == 10 else \
            ref.tuple_walk_rank_shift_distance(ref.TupleWalkModule(cech),
                                               ref.TupleWalkModule(off))
        assert rank_shift_distance(cech, off) == want


def test_criterion_12_size_modules_match_the_reference():
    inputs = harness_inputs(800, 2024, 17)
    pts, ambient, truth, a_axis, b_axis = inputs
    pts = sorted(pts)
    clusters = {(i, j): ref._clusters(pts, a, b, "cech")
                for (i, a), (j, b) in itertools.product(enumerate(a_axis), enumerate(b_axis))}
    starts = {idx: [lo for lo, _ in cl] for idx, cl in clusters.items()}
    for f in FIELDS:
        cech, off, cech_ref, off_ref = modules(f, inputs)
        assert cech.shape() == (17, 17) and max(cech.dims.values()) > 700
        assert_same_steps(cech, cech_ref)
        assert_same_modules(off, off_ref)
        for i1, i2 in index_pairs(cech):
            assert cech.rank_between(i1, i2) == homes_rank(clusters, starts, i1, i2)
        assert rank_shift_distance(cech, off) == ref.tuple_walk_rank_shift_distance(
            ref.TupleWalkModule(cech), ref.TupleWalkModule(off))


def mutant_builder(monkeypatch, mutate):
    """Rebuild infer's cluster modules with mutate(cols, len(big)) applied
    to the first transition it changes (it returns None to pass one by)."""
    build = infer.build_grid_module

    def mutated_build(field, axes, point, dim, transition):
        done = []

        def mutated(small, big):
            cols = transition(small, big)
            if not done:
                changed = mutate(field, cols, len(big))
                if changed is not None:
                    done.append(True)
                    return changed
            return cols
        return build(field, axes, point, dim, mutated)
    monkeypatch.setattr(infer, "build_grid_module", mutated_build)


def home_off_by_one(field, cols, nbig):
    """The first column whose home has a next cluster, moved there."""
    kind = field.columns
    for c, col in enumerate(cols):
        (home,) = kind.unpack(col)
        if home + 1 < nbig:
            return cols[:c] + [kind.unit(home + 1)] + cols[c + 1:]
    return None


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_a_home_off_by_one_cluster_is_caught(f, monkeypatch):
    inputs = harness_inputs(50, 7001, 10)
    pts, ambient, truth, a_axis, b_axis = inputs
    want = ref._cluster_grid_module(f, sorted(pts), a_axis, b_axis, "cech")
    mutant_builder(monkeypatch, home_off_by_one)
    with pytest.raises((AssertionError, HomologyError)):
        assert_same_modules(cech_cluster_module(f, pts, a_axis, b_axis), want)


@pytest.mark.parametrize("form", ["packed", "dict"])
@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_a_row_out_of_range_is_refused(f, form, monkeypatch):
    def past_the_end(field, cols, nbig):
        kind = field.columns
        if not cols:
            return None
        cols = cols[:-1] + [kind.unit(nbig)]
        return cols if form == "packed" else list(map(kind.unpack, cols))

    pts, _, _, a_axis, b_axis = harness_inputs(50, 7001, 10)
    mutant_builder(monkeypatch, past_the_end)
    with pytest.raises(HomologyError, match="wrong shape"):
        cech_cluster_module(f, pts, a_axis, b_axis)


# (points as (position, weight), a axis, b axis); positions need not be sorted
EDGE_CASES = {
    "duplicate positions": ([(F(1), F(-2)), (F(0), F(-1)), (F(1), F(-2)), (F(1), F(-1)),
                             (F(3), F(-2))], [F(-2), F(-1)], [F(0), F(1, 2), F(1)]),
    "a gap of exactly 2b": ([(F(0), F(-1)), (F(1), F(-1)), (F(3), F(-1)), (F(9, 2), F(-1))],
                            [F(-1)], [F(0), F(1, 2), F(3, 4), F(1)]),
    "no point active": ([(F(0), F(-1)), (F(1, 3), F(-1)), (F(2), F(0))],
                        [F(-3), F(-2), F(-1), F(0)], [F(0), F(1, 6), F(1)]),
    "a single active point": ([(F(0), F(-1)), (F(1), F(-2)), (F(5, 2), F(-1))],
                              [F(-2), F(-1)], [F(0), F(1, 2), F(5, 4), F(2)]),
}


@pytest.mark.parametrize("case", EDGE_CASES)
@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_edge_cases_match_the_dense_reference(f, case):
    pts, a_axis, b_axis = EDGE_CASES[case]
    cech = cech_cluster_module(f, pts, a_axis, b_axis)
    assert_same_modules(cech, ref._cluster_grid_module(f, sorted(pts), a_axis, b_axis, "cech"))
    if len({x for x, _ in pts}) == len(pts):     # an ambient grid has no duplicates
        grid, weights = zip(*sorted(pts))
        assert_same_modules(offset_cluster_module(f, grid, weights, a_axis, b_axis),
                            ref._cluster_grid_module(f, sorted(pts), a_axis, b_axis, "offset"))
    dims = [[cech.dims[i, j] for j in range(len(b_axis))] for i in range(len(a_axis))]
    assert dims == {"duplicate positions": [[2, 2, 1], [3, 2, 1]],
                    "a gap of exactly 2b": [[4, 3, 2, 1]],
                    "no point active": [[0] * 3, [0] * 3, [2, 1, 1], [3, 2, 1]],
                    "a single active point": [[1] * 4, [3, 2, 1, 1]]}[case]

"""The sublevelset-Rips and -Cech builders against their reference copies in
`reference_filtration`: the same `to_text()`, or the same exception type
and message, on seeded clouds in R^1 to R^3 with duplicate points and
conflicting values, every metric, caps 0 to 12 and max_dim 0 to 3, and on
the 144-point L1 lattice of the rips_present benchmark.  Against the
Fraction pair pass (`reference_filtration.sublevel_bifiltration`) also on
coordinates and caps with denominators 1 to 5 and collinear clouds; and the
int pair pass makes no Fraction for a pair it does not keep.

The builders store their complexes from their own ranks, unchecked; so on
seeded clouds (every builder and metric, one or two function columns,
duplicate and collinear points, the empty cloud, max_dim 0 to 3, caps 0,
1/2 and 3) the complex made again from its simplices by the checking
`BifilteredComplex` constructor must have the same simplices, grade
indices, axes and text.  And a scale value is made once per distinct
scale, not once per edge."""

import itertools
import random
from fractions import Fraction as F

import reference_filtration as ref
from permod.filtration import (BifilteredComplex, PointCloud, cech_bifiltration,
                               rips_bifiltration)

BUILDERS = ((rips_bifiltration, ref.rips_bifiltration),
            (cech_bifiltration, ref.cech_bifiltration))


def outcome(build, *args):
    try:
        cx = build(*args)
    except Exception as exc:    # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return cx.nparams, cx.to_text()


def random_input(rng):
    dim, nfun = rng.randint(1, 3), rng.randint(1, 2)
    pts = [tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(dim))
           for _ in range(rng.randint(0, 10))]
    vals = [tuple(F(rng.randint(0, 4)) for _ in range(nfun)) for _ in pts]
    for _ in range(rng.choice((0, 0, 1, 2))):
        if pts:
            k = rng.randrange(len(pts))
            pts.append(pts[k])
            # mostly the same value again; sometimes a conflicting one
            vals.append(vals[k] if rng.random() < 0.8 else
                        tuple(x + 1 for x in vals[k]))
    return (PointCloud(pts), rng.choice((1, 2, "inf")), vals,
            rng.randint(0, 3), F(rng.randint(0, 24), 2))


def test_seeded_clouds_match_reference():
    rng = random.Random("filtration-oracle")
    outcomes = set()
    for _ in range(400):
        args = random_input(rng)
        for build, reference in BUILDERS:
            got, want = outcome(build, *args), outcome(reference, *args)
            assert got == want, args
            outcomes.add(got[0])
    # the matrix reaches complexes of one and two functions and both errors
    assert {2, 3, ref.FiltrationError} <= outcomes


def test_function_rows_of_unequal_length_are_refused():
    # a row longer or shorter than the first is refused, not truncated to
    # the first row's length
    pts = PointCloud([(0, 0), (1, 0), (0, 1)])
    for vals in ([(1,), (2, 3), (0,)], [(1, 2), (2,), (0, 1)]):
        for build, _ in BUILDERS:
            assert outcome(build, pts, "inf", vals, 2, F(1)) == \
                (ref.FiltrationError, "grade length mismatch")


def test_sibling_scales_are_independent():
    # vertex 0's first upper neighbour is far and its later ones near, so a
    # scale carried from one child of 0 to the next would show on 0,2 and 0,3
    pts = PointCloud([(0, 0), (4, 4), (1, 0), (0, 1)])
    for p in (1, 2, "inf"):
        for build, reference in BUILDERS:
            args = (pts, p, [(F(0),)] * 4, 2, F(6))
            assert outcome(build, *args) == outcome(reference, *args)


def test_144_point_lattice_matches_reference():
    rng = random.Random("rips_present:1")
    pts = PointCloud([(3 * a + rng.randint(0, 1), 3 * b + rng.randint(0, 1))
                      for a in range(12) for b in range(12)])
    vals = [(rng.randint(0, 4),) for _ in range(len(pts))]
    for build, reference in BUILDERS:
        args = (pts, 1, vals, 2, F(5))
        assert outcome(build, *args) == outcome(reference, *args)


PARENT = ((rips_bifiltration, lambda *args: ref.sublevel_bifiltration(*args, False)),
          (cech_bifiltration, lambda *args: ref.sublevel_bifiltration(*args, True)))

# directions of integer length (1, 5, 7), so an L2 cloud along one has
# rational distances
DIRECTIONS = {1: (1,), 2: (3, 4), 3: (2, 3, 6)}


def rational_input(rng):
    dim, nfun = rng.randint(1, 3), rng.randint(1, 2)

    def q():
        return F(rng.randint(-12, 12), rng.choice((1, 2, 3, 5)))

    count = rng.randint(0, 8)
    if rng.random() < 0.4:
        base = tuple(q() for _ in range(dim))
        pts = [tuple(b + t * d for b, d in zip(base, DIRECTIONS[dim]))
               for t in (q() for _ in range(count))]
    else:
        pts = [tuple(q() for _ in range(dim)) for _ in range(count)]
    vals = [tuple(F(rng.randint(0, 6), rng.choice((1, 3))) for _ in range(nfun))
            for _ in pts]
    if pts and rng.random() < 0.3:
        k = rng.randrange(len(pts))
        pts.append(pts[k])
        vals.append(vals[k] if rng.random() < 0.8 else tuple(x + 1 for x in vals[k]))
    cap = rng.choice((F(0), F(rng.randint(0, 40), rng.choice((1, 2, 3, 5)))))
    return PointCloud(pts), rng.choice((1, 2, "inf")), vals, rng.randint(0, 3), cap


def test_int_pair_pass_matches_fraction_pair_pass():
    rng = random.Random("filtration-int-pairs")
    outcomes = set()
    for _ in range(300):
        args = rational_input(rng)
        for build, parent in PARENT if args[1] != 1 else PARENT[:1]:
            got, want = outcome(build, *args), outcome(parent, *args)
            assert got == want, args
            outcomes.add(got[0])
    assert {2, 3, ref.FiltrationError} <= outcomes


def test_unkept_pairs_make_no_fractions(monkeypatch):
    """Points 10 apart with cap 1/2 keep no edge: the Fractions made grow
    with the points (one function value each), not with the pairs."""
    made = []
    new = F.__dict__["__new__"]

    def counting_new(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    for p in (1, 2, "inf"):
        counts = []
        for n in (10, 40):
            cloud = PointCloud([(10 * i, 3 * i) for i in range(n)])
            made.clear()
            monkeypatch.setattr(F, "__new__", counting_new)
            cx = rips_bifiltration(cloud, p, [(0,)] * n, 2, F(1, 2))
            monkeypatch.undo()
            assert len(cx.simplices) == n
            counts.append(len(made))
        # 30 more points, 735 more pairs
        assert counts[1] - counts[0] <= 30, (p, counts)


def ranked_view(cx):
    """A complex's simplices, grade indices, axes and text, with each grade
    value shown by its type and repr (`Scale` has no ==)."""
    def shown(values):
        return [(type(x).__name__, repr(x)) for x in values]
    return (cx.nparams, [(verts, shown(grade)) for verts, grade in cx.simplices],
            cx.grade_index, list(map(shown, cx.axes)), cx.to_text())


def test_builders_store_what_the_constructor_ranks():
    rng = random.Random("builder-ranks")
    builds = ((rips_bifiltration, 1), (rips_bifiltration, 2), (rips_bifiltration, "inf"),
              (cech_bifiltration, 2), (cech_bifiltration, "inf"))
    seen, scales = set(), 0
    for k in range(300):
        build, p = builds[k % 5]
        dim, nfun = rng.randint(1, 3), 1 + k // 60 % 2
        pts = [tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(dim))
               for _ in range(0 if k < 10 else rng.randint(1, 8))]
        if pts and rng.random() < 0.3:      # collinear: multiples of one direction
            pts = [tuple(t * x for x in pts[0]) for t in range(len(pts))]
        value = {pt: tuple(F(rng.randint(0, 4)) for _ in range(nfun)) for pt in pts}
        pts += [rng.choice(pts) for _ in range(rng.choice((0, 1, 2)) if pts else 0)]
        max_dim, cap = k // 5 % 4, (F(0), F(1, 2), F(3))[k // 20 % 3]
        cx = build(PointCloud(pts), p, [value[pt] for pt in pts], max_dim, cap)
        assert ranked_view(BifilteredComplex(cx.nparams, cx.simplices)) == ranked_view(cx)
        seen.add((build, p, max_dim, cap, nfun) if pts else (build, p))
        scales = max(scales, len(cx.axes[-1]))
    # every builder on the empty cloud and at each max_dim, cap and width
    assert len(seen) == 5 + 5 * 4 * 3 * 2 and scales >= 8


def test_a_scale_value_per_scale_not_per_edge(monkeypatch):
    """On the corners of the unit m-cube, Rips edges only (max_dim 1): the
    Fractions made grow with the points and the distinct scales (m of them
    for L2, one otherwise), not with the edges, which go from 120 to 496
    between m = 4 and m = 5."""
    made = []
    new = F.__dict__["__new__"]

    def counting_new(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    for p in (1, 2, "inf"):
        counts = []
        for m in (4, 5):
            cloud = PointCloud(list(itertools.product((0, 1), repeat=m)))
            cap = F(m, 2) if p != "inf" else F(1, 2)
            made.clear()
            monkeypatch.setattr(F, "__new__", counting_new)
            cx = rips_bifiltration(cloud, p, [(0,)] * len(cloud), 1, cap)
            monkeypatch.undo()
            assert len(cx.simplices) == 2 ** m + 2 ** (m - 1) * (2 ** m - 1)
            counts.append(len(made))
        # 16 more points, 376 more edges
        assert counts[1] - counts[0] <= 24, (p, counts)

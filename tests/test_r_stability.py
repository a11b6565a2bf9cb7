"""The paper's R-stability of sublevelset-Rips, checked exactly across clouds.

d_I(H_i SR(X, f), H_i SR(Y, g)) <= d_R((X, f), (Y, g)), where d_R is the
least, over correspondences, of the larger of the half metric distortion and
the function gap: `gromov_function_distance`, exact for clouds of at most 5
points.  The check runs on seeded chains of 3-5-point clouds in [0, 8]^2
with function values 0..6, in L1 and in L-infinity, every pair of
neighbours in a chain a pair, all pairs of points edges.  Neither side shares
code with the presentation path beyond its output, so this is an oracle for
rewrites of `present_homology`, `minimize` and the interleaving search.

The same distances over Z/2 are checked from below: d_I is at least the
largest bottleneck distance of the diagonal slices (`slice_lower_bound`),
read as a matching at d_I of the slices' diagrams on every line, by the
reference matching.

A budget exit of the search is not caught: it fails the test.  Three
mutants must fail a check: complexes built on doubled coordinates, whose
scale is then the full edge length in place of half of it; a d_R that drops
the function gap; and a builder whose edges take the smaller endpoint value,
which drops the function's max.
"""

import functools
import itertools
import random

import pytest

from permod.exactnum import PrimeField, grade_ranks
from permod.filtration import (BifilteredComplex, PointCloud, distance, gromov_function_distance,
                               rips_bifiltration)
from permod.homology import HomologyError, present_homology
from permod.interleave import interleaving_distance

from reference_onedim import _feasible, slice_diagrams

CHAIN = 51          # clouds per metric: 50 neighbouring pairs each
TRIPLES = 15        # triangle checks per metric, on (c_2k, c_2k+1, c_2k+2)


def clouds(p):
    """The seeded chain of (points, function values) for the metric p."""
    rng = random.Random(f"r-stability:{p}")
    cells = list(itertools.product(range(9), repeat=2))
    return [(rng.sample(cells, k), [(rng.randint(0, 6),) for _ in range(k)])
            for k in (rng.randint(3, 5) for _ in range(CHAIN))]


def d_R(p, a, b, gap=True):
    """`gromov_function_distance` of two clouds; without the function gap
    when gap is false (a mutant)."""
    (xa, fa), (xb, fb) = a, b
    if not gap:
        fa, fb = [(0,)] * len(xa), [(0,)] * len(xb)
    dists = [[[distance(u, v, p) for v in x] for u in x] for x in (xa, xb)]
    return gromov_function_distance(PointCloud(xa), dists[0], fa,
                                    PointCloud(xb), dists[1], fb)


def low_edges(cx):
    """cx with each edge at the smaller of its endpoints' function values
    (a mutant builder: the function's max dropped on edges), stored
    unchecked as the builder stores its complexes."""
    value = {verts: grade[0] for verts, grade in cx.simplices if len(verts) == 1}
    grades = [(verts, (min(value[(v,)] for v in verts),) + grade[1:] if len(verts) == 2 else grade)
              for verts, grade in cx.simplices]
    axes, ranks = grade_ranks([grade for _, grade in grades], cx.nparams)
    return BifilteredComplex.from_ranks(
        cx.nparams, axes, [(verts, grade, key) for (verts, grade), key in zip(grades, ranks)])


class Presentations:
    """H_degree presentations of the clouds of one metric, each built once;
    with double, on doubled coordinates, and with low, by `low_edges`
    (mutants)."""

    def __init__(self, p, chain, double=False, low=False):
        self.p, self.chain, self.double, self.low, self.made = p, chain, double, low, {}

    def __call__(self, i, degree, field):
        key = i, degree, field.spec
        if key not in self.made:
            pts, vals = self.chain[i]
            if self.double:
                pts = [(2 * x, 2 * y) for x, y in pts]
            cx = rips_bifiltration(PointCloud(pts), self.p, vals, 2, 10 ** 6)
            self.made[key] = present_homology(low_edges(cx) if self.low else cx, degree, field)
        return self.made[key]


def checks():
    """(metric, i, j, degree, field) of every bound check: Z/2 on every
    neighbouring pair, Z/3 on every third, in H0 and H1."""
    for p in (1, "inf"):
        for i in range(CHAIN - 1):
            for field in [PrimeField(2)] + [PrimeField(3)] * (i % 3 == 0):
                for degree in (0, 1):
                    yield p, i, i + 1, degree, field


def first_violation(double=False, gap=True, low=False, degrees=(0, 1)):
    """The first check in `degrees` whose d_I exceeds d_R, or None, with
    the count of checks made, of those where d_I = d_R, and each Z/2
    check's two presentations and d_I."""
    made = {p: Presentations(p, clouds(p), double, low) for p in (1, "inf")}
    bounds, done, tight, z2 = {}, 0, 0, []
    for p, i, j, degree, field in checks():
        if degree not in degrees:
            continue
        if (p, i) not in bounds:
            bounds[p, i] = d_R(p, made[p].chain[i], made[p].chain[j], gap)
        m, n = made[p](i, degree, field), made[p](j, degree, field)
        d_i = interleaving_distance(m, n)
        done += 1
        if field.spec == "zp 2":
            z2.append((m, n, d_i))
        if d_i > bounds[p, i]:
            return (p, i, degree, field.spec), done, tight, z2
        tight += d_i == bounds[p, i]
    return None, done, tight, z2


@functools.cache
def as_built():
    """`first_violation` of the builder as it is, made once for the tests
    that read it."""
    return first_violation()


def test_interleaving_distance_is_bounded_by_d_R():
    violation, done, tight, _ = as_built()
    assert violation is None
    assert done == 2 * 2 * (50 + 17)
    # equality is reached, so the bound is tight and its constant right
    assert tight == 27


def test_triangle_inequality():
    f2 = PrimeField(2)
    for p in (1, "inf"):
        made = Presentations(p, clouds(p))
        for k in range(TRIPLES):
            a, b, c = 2 * k, 2 * k + 1, 2 * k + 2
            for degree in (0, 1):
                ab, bc, ac = (interleaving_distance(made(x, degree, f2), made(y, degree, f2))
                              for x, y in ((a, b), (b, c), (a, c)))
                assert ac <= ab + bc


def test_doubled_coordinates_break_the_bound():
    # the scale is then the full edge length, which can double d_I
    assert first_violation(double=True)[0] is not None


def test_dropping_the_function_gap_breaks_the_bound():
    assert first_violation(gap=False)[0] is not None


def test_edges_at_the_smaller_value_fail():
    """In H0 the presentation sweep refuses such a complex, an edge before
    its vertex; in H1 the modules break the bound."""
    with pytest.raises(HomologyError, match="boundary escapes the kernel span"):
        first_violation(low=True, degrees=(0,))
    assert first_violation(low=True, degrees=(1,))[0] is not None


def test_interleaving_distance_is_at_least_the_slice_bound():
    """On every line through a grade, the reference matching pairs the
    slices' diagrams at d_I, so `slice_lower_bound` <= d_I: every
    neighbouring pair over Z/2, in H0 and H1."""
    z2 = as_built()[3]
    assert len(z2) == 2 * 2 * 50
    for m, n, d_i in z2:
        for left, right in slice_diagrams(m, n):
            assert _feasible(left.expanded(), right.expanded(), d_i) == d_i

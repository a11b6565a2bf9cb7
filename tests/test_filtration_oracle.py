"""The sublevelset-Rips and -Cech builders against their reference copies in
`reference_filtration`: the same `to_text()`, or the same exception type
and message, on seeded clouds in R^1 to R^3 with duplicate points and
conflicting values, every metric, caps 0 to 12 and max_dim 0 to 3, and on
the 144-point L1 lattice of the rips_present benchmark."""

import random
from fractions import Fraction as F

import reference_filtration as ref
from permod.filtration import PointCloud, cech_bifiltration, rips_bifiltration

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

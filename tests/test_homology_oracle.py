"""The row-sweep `present_homology`, the one-pass `Presentation.minimize`,
the table-driven `homology_dim_at` and the sparse `ColumnSpan` against the
code they replaced (kept in reference_homology.py): byte-identical
presentation text, identical minimization, the same dimension at every
grid point, and the same pivots and residues.  `present_homology` on grid
indices also against the sweep on grade values (`present_homology_sweep`),
on Rips and Cech builds of L1, L2 and Linf clouds with rational, duplicate
and collinear points and caps of 0 and fractional caps.  The growing
per-column kernel reduction against the sweep that took a nullspace at
each birth (`present_homology_births`), over Z/2, Z/3 and Q, with one
chain complex per field and in either degree order.  The fused sweep and
minimization against the two-stage path it replaced
(`present_homology_two_stage`: one presentation of every boundary, then the
parent `Presentation.minimize`) on Rips clouds in L1, L2 and Linf, Linf
Cech clouds, their fixed-scale slices and the first 200 inputs of the
rips_present benchmark for three seeds; and `Presentation.minimize` on the
core against that parent minimize as well as the rescanning one."""

import importlib.util
import itertools
import pathlib
import random
from fractions import Fraction as F

from permod.exactnum import QQ, PrimeField
from permod.filtration import (FiltrationError, PointCloud, cech_bifiltration,
                               fixed_scale_slice, rips_bifiltration)
from permod.homology import chain_complex_of, present_homology
from permod.linalg import ColumnReducer, ColumnSpan
from permod.presentation import Presentation

import reference_homology as ref
from reference_linalg import rank
from conftest import (dense, random_one_critical_complex, random_presentation,
                      rerepresent, seeded)
from test_filtration_oracle import rational_input

FIELDS = (PrimeField(2), PrimeField(3), QQ)


def random_clouds(rng, count):
    """Seeded Rips/Cech bifiltrations with L1/Linf metrics, 1 and 2
    parameters (Cech takes Linf only)."""
    lattice = [(a, b) for a in range(7) for b in range(7)]
    for case in range(count):
        pts = rng.sample(lattice, rng.randint(3, 7))
        nvals = case % 2                  # function coordinates: 0 or 1
        vals = [tuple(rng.randint(0, 3) for _ in range(nvals)) for _ in pts]
        if case % 4 < 2:
            metric = 1 if case % 8 < 4 else "inf"
            yield rips_bifiltration(PointCloud(pts), metric, vals, max_dim=2,
                                    scale_cap=3)
        else:
            yield cech_bifiltration(PointCloud(pts), "inf", vals, max_dim=2,
                                    scale_cap=3)


def assert_same_presentations(cx, field):
    for degree in (0, 1, 2):
        new = present_homology(cx, degree, field)
        old = ref.present_homology(cx, degree, field)
        assert new.to_text() == old.to_text()
        assert new.to_text() == ref.present_homology_sweep(cx, degree, field).to_text()


def test_random_complexes_byte_identical():
    rng = seeded(601)
    for case in range(90):
        cx = random_one_critical_complex(rng, 1 + case % 2,
                                         max_simplices=rng.randint(5, 16),
                                         max_dim=3)
        assert_same_presentations(cx, FIELDS[case % 3])


def test_rips_and_cech_byte_identical():
    rng = seeded(602)
    for case, cx in enumerate(random_clouds(rng, 24)):
        assert_same_presentations(cx, FIELDS[case % 3])


def presented(fn, *args):
    try:
        return fn(*args).to_text()
    except Exception as exc:    # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def test_growing_kernels_match_the_per_birth_nullspace():
    """Rips and Cech clouds with 1 and 2 parameters, each over Z/2, Z/3 and
    Q, against the sweep that took a nullspace at every birth; each build
    is presented over the three fields in turn, so each gets its own chain."""
    rng = seeded(607)
    nparams = set()
    for cx in random_clouds(rng, 24):
        nparams.add(cx.nparams)
        for field in FIELDS:
            for degree in (0, 1, 2):
                assert presented(present_homology, cx, degree, field) == \
                    presented(ref.present_homology_births, cx, degree, field)
        assert sorted(cx.chains) == ["q", "zp 2", "zp 3"]
    assert nparams == {1, 2}


def test_h1_before_h0_matches_the_per_birth_nullspace():
    """The chain's tables filled by H1 first, then read by H0."""
    rng = seeded(608)
    for case, cx in enumerate(random_clouds(rng, 8)):
        field = FIELDS[case % 3]
        texts = {d: present_homology(cx, d, field).to_text() for d in (1, 0)}
        for d, text in texts.items():
            assert text == ref.present_homology_births(cx, d, field).to_text()


def test_each_field_gets_its_own_chain():
    """A cloud presented over Z/2 and then Z/3: its H1 relation has the
    coefficient 2 over Z/3, from the boundary signs a Z/2 chain drops."""
    cx = rips_bifiltration(PointCloud([(2, 1), (0, 2), (3, 0), (0, 1), (2, 2)]), 1,
                           [(0,), (2,), (2,), (1,), (1,)], max_dim=2, scale_cap=2)
    texts = [present_homology(cx, 1, field).to_text() for field in FIELDS[:2]]
    assert texts == [ref.present_homology_births(cx, 1, field).to_text()
                     for field in FIELDS[:2]]
    assert texts[1].endswith(": k1 2\nEND\n") and texts[0].endswith(": k1 1\nEND\n")
    assert [cx.chains[f.spec].field for f in FIELDS[:2]] == list(FIELDS[:2])


def test_rational_clouds_match_the_sweep_on_values():
    """Clouds from `test_filtration_oracle.rational_input`, with one function
    value; L2 clouds off a line mostly end in the irrational-grade error,
    which both must raise alike."""
    rng = random.Random("present-on-ranks")
    outcomes = set()
    for case in range(90):
        cloud, p, vals, _, cap = rational_input(rng)
        build = cech_bifiltration if p != 1 and case % 3 == 2 else rips_bifiltration
        try:
            cx = build(cloud, p, [v[:1] for v in vals], 2, cap)
        except FiltrationError:
            continue
        for degree in (0, 1):
            got = presented(present_homology, cx, degree, FIELDS[case % 3])
            assert got == presented(ref.present_homology_sweep, cx, degree,
                                    FIELDS[case % 3])
            outcomes.add(type(got))
    assert outcomes == {str, tuple}


def two_stage_clouds(rng, count):
    """Seeded Rips clouds in L1, L2 and Linf and Linf Cech clouds, with 0 or
    1 function coordinates (1 or 2 parameters) and integer and fractional
    caps.  An L2 cloud is drawn from a rhombus and its centre, whose
    pairwise distances are all rational."""
    lattice = [(a, b) for a in range(7) for b in range(7)]
    rhombus = [(0, 0), (3, 0), (-3, 0), (0, 4), (0, -4)]
    for case in range(count):
        metric = (1, 2, "inf", "inf")[case % 4]
        pts = rng.sample(rhombus, rng.randint(3, 5)) if metric == 2 else \
            rng.sample(lattice, rng.randint(3, 7))
        vals = [tuple(rng.randint(0, 3) for _ in range(case // 4 % 2)) for _ in pts]
        build = cech_bifiltration if case % 4 == 3 else rips_bifiltration
        yield build(PointCloud(pts), metric, vals, max_dim=2,
                    scale_cap=rng.choice((2, 3, F(7, 2))))


def assert_same_as_two_stage(cx, fields=FIELDS, degrees=(-1, 0, 1, 2)):
    """present_homology against the sweep, one presentation of every
    boundary, and the parent minimize, byte for byte; returns the count."""
    for field in fields:
        for degree in degrees:
            new = present_homology(cx, degree, field).to_text()
            assert new == ref.present_homology_two_stage(cx, degree, field).to_text()
    return len(fields) * len(degrees)


def test_clouds_match_the_two_stage_presentation():
    rng = seeded(609)
    nparams, compared = set(), 0
    for cx in two_stage_clouds(rng, 48):
        nparams.add(cx.nparams)
        compared += assert_same_as_two_stage(cx)
    assert (nparams, compared) == ({1, 2}, 576)


def test_fixed_scale_slices_match_the_two_stage_presentation():
    rng = seeded(610)
    compared = 0
    for cx in two_stage_clouds(rng, 24):
        if cx.nparams == 2:
            for delta in (0, 1, F(5, 2), 3):
                compared += assert_same_as_two_stage(fixed_scale_slice(cx, delta))
    assert compared == 576


def test_rips_present_inputs_match_the_two_stage_presentation():
    """The first 200 inputs of the rips_present benchmark workload for
    seeds 1, 2 and 7919, built as its op builds them, H0 and H1 over Z/2."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", pathlib.Path(__file__).resolve().parents[1] / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    wl, f2 = workloads.WORKLOADS["rips_present"], PrimeField(2)
    compared = 0
    for seed in (1, 2, 7919):
        for inp in wl.inputs(seed, n=200):
            cx = rips_bifiltration(PointCloud(inp["points"]),
                                   1 if inp["metric"] == "l1" else "inf",
                                   [(v,) for v in inp["values"]], max_dim=2, scale_cap=wl.cap)
            compared += assert_same_as_two_stage(cx, (f2,), (0, 1))
    assert compared == 1200


def test_dims_table_matches_pointwise_elimination():
    rng = seeded(603)
    cxs = [random_one_critical_complex(rng, 1 + k % 2, max_simplices=14,
                                       max_dim=3) for k in range(20)]
    for case, cx in enumerate(cxs + list(random_clouds(rng, 8))):
        chain = chain_complex_of(cx, FIELDS[case % 3])
        # the critical values, plus points below, between and above them
        axes = [sorted(set(ax) | {ax[0] - 1, ax[-1] + 1} |
                       {(x + y) / 2 for x, y in zip(ax, ax[1:])})
                for ax in chain.axes]
        for degree in (-1, 0, 1, 2, 3):
            for z in itertools.product(*axes):
                assert chain.homology_dim_at(degree, chain.floor(z)) == \
                    ref.homology_dim_at(chain, degree, z)


def equal_grade_presentation(field):
    """Three generators and three relations at one grade, each relation
    with unit coefficients at generators of its grade, plus relations
    above that become dependent once the units are eliminated."""
    g, h = (F(1), F(1)), (F(2), F(2))
    one, zero = field.one, field.zero
    gens = [(f"g{i}", g) for i in range(3)] + [("x", (F(0), F(0)))]
    rels = [("r0", g, [one, one, zero, one]),
            ("r1", g, [zero, one, one, zero]),
            ("r2", g, [one, zero, one, one]),
            ("s0", h, [zero, zero, zero, one]),
            ("s1", h, [one, zero, zero, one]),
            ("s2", (F(3), F(1)), [zero, zero, zero, one])]
    return Presentation(2, field, gens, rels).validate()


def test_minimize_matches_reference():
    rng = seeded(604)
    cases = [equal_grade_presentation(f) for f in FIELDS]
    for k in range(300):
        field = FIELDS[k % 3]
        # few grades, so many relations and generators share one
        pool = [F(x) for x in range(1 + k % 3)]
        p = random_presentation(rng, field, n=1 + k % 3, max_gens=6,
                                max_rels=7, grade_pool=pool)
        cases += [p, rerepresent(rng, p, add_redundant=True)]
    for p in cases:
        text = p.minimize().to_text()
        assert text == ref.minimize(p).to_text() == ref.minimize_two_stage(p).to_text()


def random_sparse_columns(rng, field, rows, cols, density):
    out = []
    for _ in range(cols):
        col = {r: field.of(rng.randrange(1, 5)) for r in range(rows)
               if rng.random() < density}
        out.append({r: x for r, x in col.items() if x != field.zero})
    return out


def test_reducer_rank_matches_dense_rank():
    rng = seeded(605)
    for k in range(120):
        field = FIELDS[k % 3]
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        columns = random_sparse_columns(rng, field, rows, cols,
                                        rng.choice([0.15, 0.3, 0.6]))
        # duplicated columns make dependent ones certain
        columns += [dict(c) for c in rng.sample(columns, min(3, len(columns)))]
        reducer = ColumnReducer(field)
        for j, col in enumerate(columns):
            reducer.add_packed(field.columns.pack(dict(col)))
            dense = [[c.get(r, field.zero) for c in columns[:j + 1]]
                     for r in range(rows)]
            assert reducer.rank == rank(field, dense)


def test_column_span_matches_dense_span():
    rng = seeded(606)
    for k in range(120):
        field = FIELDS[k % 3]
        dim = rng.randint(1, 10)
        new, old = ColumnSpan(field, dim), ref.ColumnSpan(field, dim)
        vecs = []
        for col in random_sparse_columns(rng, field, dim, rng.randint(1, 10),
                                         rng.choice([0.2, 0.5])):
            v = [col.get(r, field.zero) for r in range(dim)]
            vecs.append(v)
            probe = [field.of(rng.randrange(5)) for _ in range(dim)]
            assert new.contains(dict(enumerate(probe))) == old.contains(probe)
            res = new.residue(dict(enumerate(probe)))
            assert [res.get(r, field.zero) for r in range(dim)] == \
                old._reduce(probe)[0]
            assert new.insert(dict(enumerate(v))) == old.insert(v)
            assert new.pivots == old.pivots and new.rank == old.rank
        lam = [field.of(rng.randrange(5)) for _ in vecs]
        target = [field.zero] * dim
        for c, v in zip(lam, vecs):
            target = [field.add(t, field.mul(c, x)) for t, x in zip(target, v)]
        coords = dense(field, new.coords(dict(enumerate(target))), len(vecs))
        rebuilt = [field.zero] * dim
        for c, v in zip(coords, vecs):
            rebuilt = [field.add(t, field.mul(c, x)) for t, x in zip(rebuilt, v)]
        assert rebuilt == target

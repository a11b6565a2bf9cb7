"""The single grid-module construction path against the code it replaced
(kept in reference_grid.py): identical text, composite maps for every pair of
grid indices, rank tables and rank-shift values on seeded random complexes
with 1 to 3 parameters over Z/2, Z/3 and Q, presentations, modules with
uneven dimensions under random bases, and cluster modules of up to 200
points.  The library keeps transitions as sparse columns and the reference
as dense rows; composites are compared as dense rows, and the text of both
must round-trip through the parser.

The packed per-point bases of chain and image modules are also compared,
by text, with the `ColumnSpan` tracker they replaced, on the 48-point
lattice where the dense reference is too slow, on critical and widened
axes; and counted: each grid point's basis is built once, each active
column reduced once per grid column and each candidate once per point."""

import bisect
import collections
import itertools
from fractions import Fraction as F

from permod import homology, linalg
from permod.exactnum import QQ, BitColumns, DictColumns, PrimeField
from permod.filtration import DensitySpec, KdeSpec, kde_evaluate, sample_density
from permod.homology import (GridModule, chain_complex_of, grid_module_of,
                             image_grid_module, parse_grid_module,
                             rank_shift_distance, resample)
from permod.infer import cech_cluster_module, offset_cluster_module
from permod.linalg import ColumnReducer, ColumnSpan, nullspace, rank, solve
from permod.presentation import Presentation, grade_leq

import reference_grid as ref
import reference_presentation as ref_presentation
import reference_linalg as ref_linalg
from reference_linalg import columns_of, identity, mat_mul, rows_of
from conftest import (dense, dense_relations, mat_vec,
                      random_one_critical_complex, random_presentation, seeded)
from test_homology import lattice_48

FIELDS = (PrimeField(2), PrimeField(3))


def index_pairs(gm):
    return [(i1, i2) for i1 in gm.indices() for i2 in gm.indices()
            if all(a <= b for a, b in zip(i1, i2))]


def assert_same(new, old):
    """Same text, which parses back to the same transitions, and the same
    composite map and rank for every pair i1 <= i2 (a wrong composite can
    still have the right rank)."""
    text = new.to_text()
    assert text == old.to_text()
    again = parse_grid_module(text)
    assert again.trans == new.trans and again.to_text() == text
    for i1, i2 in index_pairs(new):
        cols = new.matrix_between(i1, i2)
        assert len(cols) == new.dims[i1]
        assert rows_of(new.field, cols, new.dims[i2]) == old.matrix_between(i1, i2)
        assert new.rank_between(i1, i2) == old.rank_between(i1, i2)


def random_basis_change(rng, f, n):
    """A random invertible n x n matrix over Z/p and its inverse, built from
    elementary row operations."""
    p, q = identity(f, n), identity(f, n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            u = rng.randrange(1, f.p)
            p[i] = [f.mul(u, x) for x in p[i]]
            for row in q:
                row[i] = f.div(row[i], u)
        else:
            c = rng.randrange(1, f.p)
            p[i] = [f.add(x, f.mul(c, y)) for x, y in zip(p[i], p[j])]
            for row in q:
                row[j] = f.sub(row[j], f.mul(c, row[i]))
    assert mat_mul(f, p, q, n) == identity(f, n)
    return p, q


def rebased(rng, gm):
    """gm with a random basis at every grid index: the transitions become
    dense, while dims and commuting squares stay.  Returns the axes, dims
    and transitions as dense rows."""
    f = gm.field
    bases = {idx: random_basis_change(rng, f, d) for idx, d in gm.dims.items()}
    trans = {}
    for (idx, a), cols in gm.trans.items():
        succ = idx[:a] + (idx[a] + 1,) + idx[a + 1:]
        m = rows_of(f, cols, gm.dims[succ])
        trans[(idx, a)] = mat_mul(f, mat_mul(f, bases[succ][0], m, gm.dims[idx]),
                                  bases[idx][1], gm.dims[idx])
    return gm.axes, gm.dims, trans


def widened(rng, axes):
    """Axes with a value below the minimum and a few midpoints added, so
    resampling floors, refines and meets the zero space."""
    out = []
    for ax in axes:
        vals = set(ax) | {ax[0] - 1}
        vals |= {(a + b) / 2 for a, b in zip(ax, ax[1:]) if rng.random() < 0.5}
        out.append(sorted(vals))
    return out


def chain_pairs(seed, nparams, fields=FIELDS, count=5, widen=False):
    """Per field and degree, (new module, reference module) pairs of count
    random complexes over their critical axes, with widen `widened` ones."""
    rng, wide = seeded(seed), seeded(seed + 2)
    out = []
    for f in fields:
        for _ in range(count):
            cx = random_one_critical_complex(rng, nparams, max_simplices=9)
            axes = chain_complex_of(cx, f).axes
            axes = widened(wide, axes) if widen else axes
            for degree in (0, 1):
                out.append((grid_module_of(cx, axes, degree=degree, field=f),
                            ref.grid_module_of_chain(cx, degree, axes, f)))
    return out


class TestAgainstReference:
    def test_chain_modules_and_resample(self):
        for nparams, seed, fields in ((1, 211, FIELDS), (2, 223, FIELDS),
                                      (1, 271, (QQ,)), (2, 277, (QQ,))):
            rng = seeded(seed + 1)
            for new, old in chain_pairs(seed, nparams, fields):
                assert_same(new, old)
                axes = widened(rng, new.axes)
                assert_same(resample(new, axes), ref.resample(old, axes))

    def test_three_parameter_chain_modules(self):
        # every pair of grid indices is compared, so widened axes would
        # take the dense reference tens of seconds here
        for new, old in chain_pairs(283, 3, FIELDS + (QQ,), count=3):
            assert_same(new, old)

    def test_chain_modules_on_widened_axes(self):
        """Values below an axis (the floor None) and midpoints (repeated
        floors, so grid columns share a growing reduction); with 3
        parameters the text only, as above."""
        for nparams, seed, count in ((1, 211, 5), (2, 223, 5), (3, 283, 3)):
            for new, old in chain_pairs(seed, nparams, FIELDS + (QQ,), count, widen=True):
                if nparams < 3:
                    assert_same(new, old)
                else:
                    assert new.to_text() == old.to_text()

    def test_presentation_modules(self):
        rng = seeded(227)
        for f in FIELDS + (QQ,):
            for n in (1, 2):
                for _ in range(4):
                    p = random_presentation(rng, f, n=n)
                    axes = p.critical_grades()[1]
                    if any(not ax for ax in axes):
                        continue
                    assert_same(grid_module_of(p, axes),
                                ref.grid_module_of_presentation(p, axes))

    def test_presentation_modules_match_the_span_quotient(self):
        """Against the `ColumnSpan` quotient, over Z/2, Z/3, Z/5 and Q with
        1 to 3 parameters, on critical and (up to 2 parameters) widened
        axes: the text, and the composite and rank between every two grid
        indices, read straight off the quotient so no composite is
        multiplied through a zero space; `point_dim` at every grid value, and
        the map between some pairs of them on the grid through the two."""
        rng = seeded(271)
        for f in FIELDS + (PrimeField(5), QQ):
            for n, count, size in ((1, 8, 6), (2, 6, 5), (3, 3, 3)):
                for _ in range(count):
                    p = random_presentation(rng, f, n=n, max_gens=size, max_rels=size)
                    axes = p.critical_grades()[1]
                    if any(not ax for ax in axes):
                        continue
                    for grid in [axes] + [widened(rng, axes)] * (n < 3):
                        # the dense square check cannot multiply through a
                        # zero space; GridModule checks the squares packed
                        gm = grid_module_of(p, grid)
                        assert gm.to_text() == \
                            ref.grid_module_of_presentation(p, grid, False).to_text()
                        bases = {idx: ref.quotient_basis(p, gm.value(idx))
                                 for idx in gm.indices()}
                        for idx, (basis, _) in bases.items():
                            assert p.point_dim(gm.value(idx)) == len(basis)
                        for i1, i2 in index_pairs(gm):
                            want = ref.quotient_map(p, bases[i1], bases[i2])
                            assert gm.matrix_between(i1, i2) == want
                            assert gm.rank_between(i1, i2) == ref_linalg.rank(
                                f, rows_of(f, want, gm.dims[i2]))
                        # and on the grid through just the two ends
                        pairs = index_pairs(gm)
                        for i1, i2 in rng.sample(pairs, min(len(pairs), 10)):
                            a, b = gm.value(i1), gm.value(i2)
                            axes2 = [sorted({x, y}) for x, y in zip(a, b)]
                            ends = [tuple(map(list.index, axes2, g)) for g in (a, b)]
                            assert grid_module_of(p, axes2).matrix_between(*ends) == \
                                ref.quotient_map(p, bases[i1], bases[i2])

    def test_image_modules(self):
        """On critical and `widened` function axes (values below an axis and
        midpoints), slices of 1 to 3 parameters; with 3 the text only."""
        rng, wide = seeded(229), seeded(617)
        for nparams, fields in ((2, FIELDS), (2, (QQ,)), (3, FIELDS + (QQ,)),
                                (4, FIELDS + (QQ,))):
            for f in fields:
                for _ in range(6 if nparams < 4 else 3):
                    cx = random_one_critical_complex(rng, nparams, max_simplices=10)
                    scales = sorted({g[-1] for _, g in cx.simplices})
                    d1, d2 = sorted(rng.choice(scales) for _ in range(2))
                    axes = [sorted({g[a] for _, g in cx.simplices})
                            for a in range(nparams - 1)]
                    for grid in (axes, widened(wide, axes)):
                        for degree in (0, 1):
                            new = image_grid_module(cx, degree, d1, d2, grid, f)
                            old = ref.image_grid_module(cx, degree, d1, d2, grid, f)
                            if nparams < 4:
                                assert_same(new, old)
                            else:
                                assert new.to_text() == old.to_text()

    def test_rank_shift_distance(self):
        for nparams, seed in ((1, 233), (2, 239)):
            pairs = chain_pairs(seed, nparams)
            for (gm, rm), (gn, rn) in itertools.combinations(pairs[:8], 2):
                assert rank_shift_distance(gm, gn) == \
                    ref.rank_shift_distance(rm, rn)

    def test_cluster_modules(self):
        rng = seeded(241)
        f = PrimeField(2)
        a_axis = [F(k, 4) for k in range(-8, 1, 2)]
        b_axis = [F(k, 2) for k in range(6)]
        for _ in range(4):
            coords = sorted(F(rng.randint(0, 40), 4) for _ in range(7))
            weights = [F(-rng.randint(0, 8), 4) for _ in coords]
            cech = cech_cluster_module(f, list(zip(coords, weights)),
                                       a_axis, b_axis)
            cech_ref = ref._cluster_grid_module(
                f, sorted(zip(coords, weights)), a_axis, b_axis, "cech")
            assert_same(cech, cech_ref)
            grid = [F(k, 2) for k in range(12)]
            gw = [F(-rng.randint(0, 8), 4) for _ in grid]
            off = offset_cluster_module(f, grid, gw, a_axis, b_axis)
            off_ref = ref._cluster_grid_module(f, list(zip(grid, gw)),
                                               a_axis, b_axis, "offset")
            assert_same(off, off_ref)
            assert rank_shift_distance(cech, off) == \
                ref.rank_shift_distance(cech_ref, off_ref)


    def test_uneven_modules_in_random_bases(self):
        """Random presentations plus one free generator at the grid minimum,
        so no dimension is 0, and then random presentations as drawn, whose
        composites and squares pass through zero spaces."""
        rng = seeded(257)
        axes = [[F(k) for k in range(5)] for _ in range(2)]
        for f in (PrimeField(3), PrimeField(5)):
            for _ in range(6):
                p = random_presentation(rng, f, n=2, max_gens=5, max_rels=3)
                p = Presentation(2, f, p.generators + [("base", (F(0), F(0)))],
                                 [(nm, gr, cs + [f.zero])
                                  for nm, gr, cs in dense_relations(p)])
                axes_, dims, trans = rebased(rng, grid_module_of(p, axes))
                assert min(dims.values()) >= 1
                cols = {(idx, a): columns_of(f, m, dims[idx])
                        for (idx, a), m in trans.items()}
                assert_same(GridModule(f, axes_, dims, cols),
                            ref.RefGridModule(f, axes_, dims, trans))
        rng = seeded(659)
        uneven = 0
        for f in (PrimeField(3), PrimeField(5)):
            for _ in range(6):
                p = random_presentation(rng, f, n=2, max_gens=5, max_rels=3)
                axes_, dims, trans = rebased(rng, grid_module_of(p, axes))
                uneven += min(dims.values()) == 0 < max(dims.values())
                cols = {(idx, a): columns_of(f, m, dims[idx])
                        for (idx, a), m in trans.items()}
                assert_same(GridModule(f, axes_, dims, cols),
                            ref.RefGridModule(f, axes_, dims, trans))
        assert uneven >= 6

    def test_large_cluster_modules(self):
        f = PrimeField(2)
        density = DensitySpec.parse("1/2,-1,1/4;1/2,1,1/4")
        kde = KdeSpec("gaussian", F(1, 5))
        for z, seed in ((100, 263), (200, 269)):
            cloud = sample_density(density, z, seed)
            weights = [-e for e in kde_evaluate(cloud, kde, cloud)]
            peak = -min(weights)
            a_axis = sorted(-peak * F(k, 7) for k in range(1, 7))
            b_axis = [F(k, 13) for k in range(5)]
            pts = [pt[0] for pt in cloud]
            cech = cech_cluster_module(f, list(zip(pts, weights)), a_axis, b_axis)
            cech_ref = ref._cluster_grid_module(
                f, sorted(zip(pts, weights)), a_axis, b_axis, "cech")
            assert max(cech.dims.values()) > 20
            assert_same(cech, cech_ref)
            grid = [F(k - 60, 30) for k in range(z // 2 + 20)]
            gw = [-density.pdf((y,)) for y in grid]
            off = offset_cluster_module(f, grid, gw, a_axis, b_axis)
            off_ref = ref._cluster_grid_module(f, list(zip(grid, gw)),
                                               a_axis, b_axis, "offset")
            assert_same(off, off_ref)
            assert rank_shift_distance(cech, off) == \
                ref.rank_shift_distance(cech_ref, off_ref)


class TestPackedPointBases:
    def test_lattice_chain_modules_match_the_span_tracker(self):
        cx = lattice_48()
        for f in FIELDS:
            axes = chain_complex_of(cx, f).axes
            for degree in (0, 1):
                gm = grid_module_of(cx, axes, degree=degree, field=f)
                assert max(gm.dims.values()) > 1
                assert gm.to_text() == \
                    ref.span_grid_module_of_chain(cx, degree, axes, f).to_text()

    def test_lattice_image_module_matches_the_span_tracker(self):
        cx, f = lattice_48(), PrimeField(3)
        axes = chain_complex_of(cx, f).axes
        args = (cx, 1, axes[1][3], axes[1][4], axes[:1], f)
        gm = image_grid_module(*args)
        assert max(gm.dims.values()) > 1
        assert gm.to_text() == ref.span_image_grid_module(*args).to_text()

    def test_lattice_modules_on_widened_axes_match_the_span_tracker(self):
        cx, rng = lattice_48(), seeded(619)
        for f in FIELDS:
            axes = widened(rng, chain_complex_of(cx, f).axes)
            for degree in (0, 1):
                assert grid_module_of(cx, axes, degree=degree, field=f).to_text() == \
                    ref.span_grid_module_of_chain(cx, degree, axes, f).to_text()
                args = (cx, degree, axes[1][4], axes[1][6], axes[:1], f)
                assert image_grid_module(*args).to_text() == \
                    ref.span_image_grid_module(*args).to_text()

    def test_presentation_module_builds_one_quotient_basis_per_point(self, monkeypatch):
        # one quotient per grid point, its candidates the generators active
        # there from the last index down
        f = PrimeField(2)
        cx = lattice_48()
        axes, p = chain_complex_of(cx, f).axes, homology.present_homology(cx, 1, f)
        built, quotient_basis = [], homology.quotient_basis

        def counted(field, subspace, candidates):
            candidates = list(candidates)
            built.append([key for key, _ in candidates])
            return quotient_basis(field, subspace, candidates)
        monkeypatch.setattr(homology, "quotient_basis", counted)
        gm = grid_module_of(p, axes)
        assert sorted(built) == sorted(
            [j for j in reversed(range(len(p.generators))) if grade_leq(p.generators[j][1], z)]
            for z in map(gm.value, gm.indices()))
        assert len(built) == 50

    def test_chain_module_reduces_each_vector_once(self, monkeypatch):
        """Per grid column, the cycle and boundary reductions add each
        nonempty d- and (d+1)-column active there once, and per grid point
        the quotient adds each candidate cycle once; only the transition
        columns are unpacked, and no ColumnSpan or nullspace is used."""
        cx, cases = lattice_48(), []
        for f in FIELDS:
            chain = chain_complex_of(cx, f)
            tails = list(itertools.product(*(range(len(ax)) for ax in chain.axes[1:])))
            for degree in (0, 1):
                grown = sum(grade_leq(g[1:], tail) for tail in tails
                            for d in (degree, degree + 1)
                            for g, col in zip(chain.grade_index[d], chain.columns[d]) if col)
                cycles = sum(n - r for n, r in ref_presentation.active_ranks(chain, degree).values())
                cases.append((f, chain.axes, degree, grown + cycles))
        calls = count_kernel_calls(monkeypatch)
        for f, axes, degree, adds in cases:
            calls.clear()
            gm = grid_module_of(cx, axes, degree=degree, field=f)
            assert dict(calls) == {"add_packed": adds,
                                   "unpack": sum(map(len, gm.trans.values()))}

    def test_presentation_module_adds_each_vector_once(self, monkeypatch):
        """Per grid column (of the presentation's axes, where the grid's
        columns floor), the relation reduction adds each nonempty relation
        active there once, and per grid point the quotient adds each active
        generator's unit column once; only the transition columns are
        unpacked, and no ColumnSpan or nullspace is used."""
        rng, cases = seeded(281), []
        f2 = PrimeField(2)
        cx = lattice_48()
        cases.append((homology.present_homology(cx, 1, f2), chain_complex_of(cx, f2).axes))
        for f in FIELDS + (PrimeField(5), QQ):
            for n in (1, 2, 3):
                p = random_presentation(rng, f, n=n, max_gens=4, max_rels=4)
                cases.append((p, widened(rng, p.critical_grades()[1])))
        calls = count_kernel_calls(monkeypatch)
        for p, axes in cases:
            floors = [[bisect.bisect_right(mine, x) - 1 for x in ax]
                      for mine, ax in zip(p.axes, axes)]
            tops = [top for top in itertools.product(*floors) if -1 not in top]
            lead = max((top[0] for top in tops), default=-1)
            grown = sum(grade_leq(k, (lead,) + tail) for tail in {top[1:] for top in tops}
                        for k, (_, _, cs) in zip(p.rel_index, p.relations) if cs)
            units = sum(grade_leq(g, z) for z in itertools.product(*axes)
                        for _, g in p.generators)
            adds = grown + units
            calls.clear()
            gm = grid_module_of(p, axes)
            built = collections.Counter(calls)      # reading gm.trans unpacks again
            assert built == collections.Counter(
                add_packed=adds, unpack=sum(map(len, gm.trans.values())))


def count_kernel_calls(monkeypatch):
    """A Counter of the calls, from here on, to `ColumnReducer.add_packed`,
    the column types' `unpack`, every `ColumnSpan` method and `nullspace`."""
    calls = collections.Counter()

    def counting(owner, name, key=None):
        original = vars(owner)[name]
        static = isinstance(original, staticmethod)
        fn = original.__func__ if static else original

        def call(*args, **kwargs):
            calls[key or name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, staticmethod(call) if static else call)

    counting(ColumnReducer, "add_packed")
    for kind in (BitColumns, DictColumns):
        counting(kind, "unpack")
    for name in ("__init__", "residue", "contains", "coords", "insert"):
        counting(ColumnSpan, name, f"ColumnSpan.{name}")
    counting(linalg, "nullspace")
    counting(homology, "nullspace")
    return calls


def elimination_inputs(rng, f):
    """Matrices for the elimination oracle: dense 5 x 5 at most, mostly zero
    up to 12 x 12, with zero rows and columns, and 1 x n and n x 1."""
    def entry():
        return f.of(F(rng.randint(-2, 2), rng.randint(1, 2) if f == QQ else 1))

    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(0, 5)
        yield [[entry() for _ in range(cols)] for _ in range(rows)]
    for _ in range(40):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        a = [[entry() if rng.random() < 0.25 else f.zero for _ in range(cols)]
             for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
            a[i] = [f.zero] * cols
        for c in rng.sample(range(cols), rng.randint(0, cols // 2)):
            for row in a:
                row[c] = f.zero
        yield a
    for _ in range(10):
        n = rng.randint(1, 12)
        yield [[entry() for _ in range(n)]]
        yield [[entry()] for _ in range(n)]


class TestLinalgAgainstReference:
    def test_rank_nullspace_solve(self):
        rng = seeded(251)
        for f in FIELDS + (QQ,):
            for a in elimination_inputs(rng, f):
                rows, cols = len(a), len(a[0])
                assert rank(f, columns_of(f, a, cols)) == ref_linalg.rank(f, a)
                assert [dense(f, v, cols) for v in nullspace(f, columns_of(f, a, cols))] \
                    == ref_linalg.nullspace(f, a)
                b = [f.of(rng.randint(-1, 1)) for _ in range(rows)]
                assert solve(f, a, b) == ref_linalg.solve(f, a, b)
                b = mat_vec(f, a, [f.of(rng.randint(-2, 2)) for _ in range(cols)])
                x = solve(f, a, b)
                assert x is not None and x == ref_linalg.solve(f, a, b)

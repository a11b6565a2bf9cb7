import hashlib
import itertools
import random
import time
from fractions import Fraction as F

import pytest

from permod.exactnum import INF, PrimeField, ext
from permod.filtration import (BifilteredComplex, PointCloud,
                               cech_bifiltration, fixed_scale_slice,
                               rips_bifiltration)
from permod import homology
from permod.homology import (GradedChainComplex, GridModule, HomologyError,
                             barcode_1d, chain_complex_of, grid_module_of,
                             image_grid_module, parse_grid_module,
                             present_homology, rank_shift_distance, resample)
from permod.infer import cech_cluster_module
from permod.interleave import decide_generalized, interleaving_distance
from permod.linalg import ColumnReducer, nullspace
from permod.onedim import PersistenceDiagram, diagram_of
from permod.presentation import (MonotoneAffineMap, Presentation,
                                 interval_presentation)

from conftest import random_one_critical_complex, random_presentation, seeded
from reference_homology import boundary
from reference_presentation import active
from reference_linalg import (columns_of, identity, mat_mul, rank as mat_rank,
                              rows_of)


def refinement_check(source, axes, degree=None, field=None):
    """Diagnostic: doubling the grid density must not change dimensions."""
    fine = []
    for ax in axes:
        vals = list(ax)
        mids = [(a + b) / 2 for a, b in zip(vals, vals[1:])]
        fine.append(sorted(set(vals) | set(mids)))
    coarse = grid_module_of(source, axes, degree=degree, field=field)
    refined = grid_module_of(source, fine, degree=degree, field=field)
    for idx in coarse.indices():
        v = coarse.value(idx)
        jdx = tuple(fine[i].index(x) for i, x in enumerate(v))
        if coarse.dims[idx] != refined.dims[jdx]:
            return False
    return True


def lattice_48():
    """A 6 x 8 jittered L1 lattice with function values 0..4, scale cap 5."""
    rng = seeded(48)
    pts = [(3 * a + rng.randint(0, 1), 3 * b + rng.randint(0, 1))
           for a in range(6) for b in range(8)]
    vals = [(rng.randint(0, 4),) for _ in pts]
    return rips_bifiltration(PointCloud(pts), 1, vals, max_dim=2, scale_cap=5)


def lattice(side):
    """The side x side jittered L1 lattice of the rips_present benchmark
    (seed 1), function values 0..4, scale cap 5."""
    rng = random.Random("rips_present:1")
    pts = [(3 * a + rng.randint(0, 1), 3 * b + rng.randint(0, 1))
           for a in range(side) for b in range(side)]
    vals = [(rng.randint(0, 4),) for _ in pts]
    return rips_bifiltration(PointCloud(pts), 1, vals, max_dim=2, scale_cap=5)


def rips_family(n, relabel=None):
    """n distinct int points in [0, 100]^2, drawn from random.Random(n),
    sorted, then a function value in 0..20 per point, under the L1
    sublevelset-Rips bifiltration with max dim 2 and a scale cap above every
    distance: all pairs are edges and all triples triangles.  With relabel,
    the points and their values are first shuffled by random.Random(relabel)."""
    rng, pts = random.Random(n), set()
    while len(pts) < n:
        pts.add((rng.randint(0, 100), rng.randint(0, 100)))
    pts = sorted(pts)
    rows = list(zip(pts, [(rng.randint(0, 20),) for _ in pts]))
    if relabel is not None:
        random.Random(relabel).shuffle(rows)
    return rips_bifiltration(PointCloud([pt for pt, _ in rows]), 1,
                             [val for _, val in rows], 2, 10 ** 6)


def line_diagrams(pres, scales):
    """Per scale s, the diagram of the module a 2-parameter (function,
    scale) presentation gives on the vertical line {(a, s)}: its generators
    and relations of scale <= s, at their function values, present it."""
    out = {}
    for s in scales:
        kept = [j for j, (_, g) in enumerate(pres.generators) if g[1] <= s]
        row = {j: i for i, j in enumerate(kept)}
        gens = [(pres.generators[j][0], pres.generators[j][1][:1]) for j in kept]
        rels = [(name, g[:1], {row[j]: c for j, c in cs.items()})
                for name, g, cs in pres.relations if g[1] <= s]
        out[s] = diagram_of(Presentation(1, pres.field, gens, rels))
    return out


def count_field_calls(monkeypatch):
    """The list that every PrimeField arithmetic call appends its (p, name)
    to, for the rest of the test."""
    calls = []
    for name in ("add", "sub", "mul", "div", "neg", "inv"):
        def counted(self, *args, _name=name, _method=getattr(PrimeField, name)):
            calls.append((self.p, _name))
            return _method(self, *args)
        monkeypatch.setattr(PrimeField, name, counted)
    return calls


def K(n, simplices):
    return BifilteredComplex(n, simplices)


def vx(i, *grade):
    return ((i,), tuple(F(x) for x in grade))


class TestChainComplex:
    def test_single_vertex(self, f2):
        cc = chain_complex_of(K(1, [vx(0, 0)]), f2)
        assert len(cc.simplices(0)) == 1
        assert boundary(cc, 1) == [[]]

    def test_edge_boundary_signs(self):
        f5 = PrimeField(5)
        cc = chain_complex_of(K(1, [vx(0, 0), vx(1, 0), ((0, 1), (F(0),))]), f5)
        col = [row[0] for row in boundary(cc, 1)]
        assert sorted(col) == [1, 4]          # +1 and -1 mod 5

    @staticmethod
    def broken_square(field):
        # two triangles; edge 2,3 (the last edge) bounds only the second,
        # and its column is zeroed with the column type's empty column
        square = [vx(v, 0) for v in range(4)] + \
            [(e, (F(0),)) for e in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]] + \
            [((0, 1, 2), (F(1),)), ((1, 2, 3), (F(1),))]
        cc = chain_complex_of(K(1, square), field)
        assert cc.simplices(1)[4][0] == (2, 3)
        cc.columns[1][4] = field.columns.pack({})
        return cc

    def test_check_dd_catches_a_broken_boundary(self, f2):
        cc = self.broken_square(f2)
        with pytest.raises(HomologyError, match="boundary of boundary"):
            cc._check_dd()

    def test_check_dd_catches_a_broken_boundary_on_dict_columns(self):
        cc = self.broken_square(PrimeField(3))
        assert cc.columns[1][4] == {}
        with pytest.raises(HomologyError, match="boundary of boundary"):
            cc._check_dd()

    def test_dd_zero_random(self, f2):
        rng = seeded(101)
        for _ in range(10):
            cx = random_one_critical_complex(rng, 2)
            chain_complex_of(cx, f2)          # raises if dd != 0
        f5 = PrimeField(5)
        for _ in range(10):
            cx = random_one_critical_complex(rng, 1)
            chain_complex_of(cx, f5)


class TestBarcode:
    def test_merge_pair(self, f2):
        cx = K(1, [vx(0, 0), vx(1, 0), ((0, 1), (F(1),))])
        assert barcode_1d(cx, 0, f2) == PersistenceDiagram(
            [(ext(0), ext(1), 1), (ext(0), INF, 1)])

    def test_triangle_boundary(self, f2):
        cx = K(1, [vx(0, 0), vx(1, 0), vx(2, 0),
                   ((0, 1), (F(0),)), ((0, 2), (F(0),)), ((1, 2), (F(0),))])
        assert barcode_1d(cx, 1, f2) == PersistenceDiagram([(ext(0), INF, 1)])

    def test_filtered_circle(self, f2):
        cx = K(1, [vx(0, 0), vx(1, 0), vx(2, 0),
                   ((0, 1), (F(1),)), ((1, 2), (F(1),)), ((0, 2), (F(2),))])
        assert barcode_1d(cx, 1, f2) == PersistenceDiagram([(ext(2), INF, 1)])

    def test_cross_check_with_multiplicity_formula(self, f2):
        rng = seeded(103)
        for _ in range(12):
            cx = random_one_critical_complex(rng, 1)
            for degree in (0, 1):
                pres = present_homology(cx, degree, f2)
                assert barcode_1d(cx, degree, f2) == diagram_of(pres)

    def test_z2_slice_barcode_calls_no_field_method(self, f2, monkeypatch):
        # barcode_1d reads the slice's chain, built with no sign over Z/2,
        # and reduces its bitset boundaries: no PrimeField method is called.
        # Over Z/3 the same calls count, so the counters do see the path.
        cx = fixed_scale_slice(lattice_48(), F(2))
        calls = count_field_calls(monkeypatch)
        dgms = [barcode_1d(cx, d, f2) for d in (0, 1)]
        assert calls == []
        assert all(dgm.points for dgm in dgms)
        assert dgms == [barcode_1d(cx, d, PrimeField(3)) for d in (0, 1)]
        assert {p for p, _ in calls} == {3}


class TestGridModule:
    def test_growth_refuses_a_decreasing_leading_index(self, f2):
        # grid modules visit the leading index outermost; a grid column's
        # reduction already holds the larger active set, so going back would
        # give a wrong basis
        chain = chain_complex_of(K(2, [vx(0, 0, 0), vx(1, 1, 0)]), f2)
        at = homology._column_growth(chain, 0, True)
        assert len(at((1, 0))[1]) == 2 and len(at((1, 0))[1]) == 2
        with pytest.raises(HomologyError, match="decreased"):
            at((0, 0))

    def test_presentation_source(self, f2):
        gm = grid_module_of(interval_presentation(f2, 0, 1),
                            [[F(-1), F(0), F(1)]])
        assert [gm.dims[(i,)] for i in range(3)] == [0, 1, 0]

    def test_free_generator(self, f2):
        p = Presentation(1, f2, [("g", (F(0),))], [])
        gm = grid_module_of(p, [[F(0), F(1)]])
        assert gm.dims == {(0,): 1, (1,): 1}
        assert gm.rank_between((0,), (1,)) == 1

    def test_long_composite_without_recursion(self, f2):
        # a 1,999-step composite: one frame per step overflowed the stack
        p = Presentation(1, f2, [("g", (F(0),))], [])
        gm = grid_module_of(p, [[F(k) for k in range(2000)]])
        assert gm.rank_between((0,), (1999,)) == 1
        assert gm.rank_between((1000,), (1999,)) == 1

    def test_chain_source_matches_pointwise(self, f2):
        rng = seeded(107)
        for _ in range(8):
            cx = random_one_critical_complex(rng, 2, max_simplices=8)
            chain = chain_complex_of(cx, f2)
            axes = chain.axes
            gm = grid_module_of(cx, axes, degree=0, field=f2)
            for idx in gm.indices():
                z = gm.value(idx)
                assert gm.dims[idx] == chain.homology_dim_at(0, chain.floor(z))

    def test_squares_commute_enforced(self, f2):
        bad = {"axes": [[F(0), F(1)], [F(0), F(1)]]}
        dims = {(i, j): 1 for i in range(2) for j in range(2)}
        trans = {}
        for i in range(2):
            for j in range(2):
                if i + 1 < 2:
                    trans[((i, j), 0)] = [{0: 1}]
                if j + 1 < 2:
                    trans[((i, j), 1)] = [{0: 1}]
        trans[((0, 0), 0)] = [{}]           # break one square
        with pytest.raises(HomologyError):
            GridModule(f2, bad["axes"], dims, trans)

    def test_text_roundtrip(self, f2):
        gm = grid_module_of(interval_presentation(f2, 0, 1),
                            [[F(-1), F(0), F(1)]])
        again = parse_grid_module(gm.to_text())
        assert again.to_text() == gm.to_text()

    def test_refinement_check(self, f2):
        p = interval_presentation(f2, 0, 1)
        assert refinement_check(p, [[F(-1), F(0), F(1)]])

    def test_missing_axis_dim_or_trans_line_rejected(self, f2):
        text = grid_module_of(interval_presentation(f2, 0, 1),
                              [[F(-1), F(0), F(1)]]).to_text()
        for prefix in ("axis 0", "dim 1", "trans 1"):
            cut = "".join(ln for ln in text.splitlines(True)
                          if not ln.startswith(prefix))
            with pytest.raises(HomologyError):
                parse_grid_module(cut)

    def test_transition_off_the_grid_rejected(self, f2):
        gm = grid_module_of(interval_presentation(f2, 0, 1), [[F(-1), F(0), F(1)]])
        text = gm.to_text().replace("END", "trans 2 axis 0 : \nEND")
        with pytest.raises(HomologyError, match=r"off the grid at \(2,\) axis 0"):
            parse_grid_module(text)
        trans = {**gm.trans, ((2,), 0): [{}] * gm.dims[(2,)]}
        with pytest.raises(HomologyError, match="off the grid"):
            GridModule(f2, gm.axes, gm.dims, trans)

    def test_dimension_off_the_grid_rejected(self, f2):
        gm = grid_module_of(interval_presentation(f2, 0, 1), [[F(0), F(1)]])
        text = gm.to_text().replace("END", "dim 7 = 5\nEND")
        with pytest.raises(HomologyError, match=r"dimension given off the grid at \(7,\)"):
            parse_grid_module(text)
        with pytest.raises(HomologyError, match=r"off the grid at \(0, 0\)"):
            GridModule(f2, gm.axes, {**gm.dims, (0, 0): 1}, gm.trans)

    def test_non_integral_entry_rejected_over_prime_field(self):
        text = ("GRIDMODULE\nfield zp 3\naxes 1\naxis 0 : 0 1\n"
                "dim 0 = 1\ndim 1 = 1\ntrans 0 axis 0 : {}\nEND\n")
        assert parse_grid_module(text.format("2")).step((0,), 0) == [{0: 2}]
        with pytest.raises(ValueError, match="1/2"):
            parse_grid_module(text.format("1/2"))

    def test_descending_axis_rejected(self, f2):
        text = grid_module_of(interval_presentation(f2, 0, 1),
                              [[F(-1), F(0), F(1)]]).to_text()
        assert "axis 0 : -1 0 1\n" in text
        with pytest.raises(HomologyError):
            parse_grid_module(text.replace("axis 0 : -1 0 1", "axis 0 : 1 0 -1"))


class TestPresentHomology:
    def test_bifiltered_vertex(self, f2):
        pres = present_homology(K(2, [vx(0, 0, 0)]), 0, f2)
        assert len(pres.generators) == 1 and not pres.relations

    def test_two_vertices_edge(self, f2):
        cx = K(2, [vx(0, 0, 0), vx(1, 0, 0), ((0, 1), (F(1), F(1)))])
        pres = present_homology(cx, 0, f2)
        assert sorted(g for _, g in pres.generators) == [(F(0), F(0))] * 2
        assert [g for _, g, _ in pres.relations] == [(F(1), F(1))]

    def test_hilbert_on_random(self, f2):
        rng = seeded(109)
        for _ in range(10):
            cx = random_one_critical_complex(rng, 2, max_simplices=12)
            for degree in (0, 1):
                present_homology(cx, degree, f2)   # Hilbert check inside

    def test_kernel_basis_property(self, f2):
        # columns of the kernel generators with grade <= z span the pointwise
        # kernel at every grid point
        rng = seeded(113)
        for _ in range(6):
            cx = random_one_critical_complex(rng, 2, max_simplices=10)
            chain = chain_complex_of(cx, f2)
            degree = 1
            pres = present_homology(cx, degree, f2)
            bd = boundary(chain, degree)
            axes = chain.axes
            for z in itertools.product(*axes):
                act = active(chain, degree, chain.floor(z))
                if not act:
                    continue
                sub = [[bd[i][j] for j in act] for i in range(len(bd))]
                want = len(nullspace(f2, columns_of(f2, sub, len(act))))
                got_rank = chain.homology_dim_at(degree, chain.floor(z))
                # dim ker = dim H + rank of boundary from above
                bu = boundary(chain, degree + 1)
                act_up = active(chain, degree + 1, chain.floor(z))
                rk_up = 0
                if act_up and bu:
                    subu = [[bu[i][j] for j in act_up] for i in range(len(bu))]
                    rk_up = mat_rank(f2, subu)
                assert want == got_rank + rk_up

    def test_large_lattice_within_time_gate(self, f2):
        # the 48-point lattice: 1,766 simplices.  The digests were computed
        # once with the grid-point-by-grid-point sweep, which took 21 s for
        # both degrees.
        cx = lattice_48()
        assert len(cx.simplices) == 1766
        t0 = time.perf_counter()
        texts = [present_homology(cx, d, f2, check_hilbert=True).to_text()
                 for d in (0, 1)]
        elapsed = time.perf_counter() - t0
        assert [hashlib.sha256(t.encode()).hexdigest() for t in texts] == [
            "f235f544d8cf5728c91f65f1dbb10e553dd94a5e61614b53dbfe0d2493379c7a",
            "4e21e3de9a519401641657fe5124869edd05e655ce118ef1837433b5ccbfcedf"]
        assert elapsed < 8, f"presenting H0 and H1 took {elapsed:.1f} s"

    def test_large_lattice_compares_no_fraction(self, f2, monkeypatch):
        # once the complex is built, the chain, the sweep, minimize and the
        # Hilbert check compare int grade indices only
        cx = lattice_48()
        compared, richcmp_ = [], F._richcmp

        def richcmp(a, b, op):
            compared.append((a, b))
            return richcmp_(a, b, op)

        monkeypatch.setattr(F, "_richcmp", richcmp)
        for d in (0, 1):
            present_homology(cx, d, f2, check_hilbert=True)
        assert compared == []

    def test_large_lattice_reduces_once(self, f2, monkeypatch):
        # H0 and H1 share one chain complex, take their kernels from growing
        # column reductions with no nullspace, reduce no empty column, and
        # sweep the rank table of each degree 0, 1, 2 once; the Hilbert
        # check sweeps each presentation's two degrees once
        cx = lattice_48()
        builds, nullspaces, empty, swept = [], [], [], []

        def counting(owner, name, log, entry):
            wrapped = getattr(owner, name)

            def call(*args, **kwargs):
                log.append(entry(*args))
                return wrapped(*args, **kwargs)
            monkeypatch.setattr(owner, name, call)

        counting(GradedChainComplex, "__init__", builds, lambda *a: 1)
        counting(homology, "nullspace", nullspaces, lambda *a: 1)
        counting(ColumnReducer, "add_packed", empty, lambda self, col, *a: not col)
        counting(homology, "swept_ranks", swept, lambda field, shape, grades, cols: grades)
        pres = [present_homology(cx, d, f2, check_hilbert=True) for d in (0, 1)]
        chain = cx.chains[f2.spec]
        assert (len(builds), nullspaces, any(empty)) == (1, [], False)
        assert sorted(map(id, swept)) == sorted(
            [id(chain.grade_index[d]) for d in (0, 1, 2)]
            + [id(p.chain_complex().grade_index[d]) for p in pres for d in (0, 1)])

    def test_z2_chain_and_sweep_call_no_field_method(self, f2, monkeypatch):
        # over Z/2 the boundary columns are int bitsets built with no sign,
        # _check_dd composes them by xor, and the sweep, minimize and the
        # Hilbert check reduce them packed: no PrimeField method is called.
        # Over Z/3 the same calls count, so the counters do see the path.
        calls = count_field_calls(monkeypatch)
        checked = []
        check_dd = GradedChainComplex._check_dd
        monkeypatch.setattr(GradedChainComplex, "_check_dd",
                            lambda self: checked.append(self) or check_dd(self))
        cx = lattice_48()
        chain = chain_complex_of(cx, f2)
        assert checked == [chain] and chain.max_deg == 2
        texts = [present_homology(cx, d, f2).to_text() for d in (0, 1)]
        assert calls == []
        assert [hashlib.sha256(t.encode()).hexdigest()[:12] for t in texts] == \
            ["f235f544d8cf", "4e21e3de9a51"]
        for d in (0, 1):
            present_homology(cx, d, PrimeField(3))
        assert {p for p, _ in calls} == {3}

    def test_144_point_lattice_within_time_gate(self, f2):
        # the 12 x 12 jittered L1 lattice of the rips_present benchmark
        # (seed 1), function values 0..4, scale cap 5: 6,352 simplices.  The
        # digest was computed with dict columns over Z/2 and a dense
        # per-birth nullspace, which took 3.7-4.9 s for both degrees; Z/2
        # bitset columns take 1.2 s (2-core x86_64, Python 3.11).
        cx = lattice(12)
        assert len(cx.simplices) == 6352
        t0 = time.perf_counter()
        texts = [present_homology(cx, d, f2, check_hilbert=True).to_text()
                 for d in (0, 1)]
        elapsed = time.perf_counter() - t0
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == \
            "7620bb3ec6acb09b24136a90e01d2be8f8b1520c10b4ce8e11ab97deb52cf3b9"
        assert elapsed < 4, f"presenting H0 and H1 took {elapsed:.1f} s"

    def test_400_point_lattice_within_cpu_gate(self, f2):
        # the 20 x 20 lattice: 19,969 simplices.  The digest was computed
        # with step 1 of minimize eliminating on dicts, which took 4.1-4.8 s
        # CPU for both degrees (2-core x86_64, Python 3.11).
        cx = lattice(20)
        assert len(cx.simplices) == 19969
        t0 = time.process_time()
        texts = [present_homology(cx, d, f2).to_text() for d in (0, 1)]
        elapsed = time.process_time() - t0
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == \
            "35659ea5e25a915f774ce4be0927667208ae96f28826b26d21ca4cd403e240a9"
        assert elapsed < 3, f"presenting H0 and H1 took {elapsed:.1f} s CPU"

    def test_784_point_lattice_within_cpu_gate(self, f2):
        # the 28 x 28 lattice: 41,272 simplices.  The digest was computed
        # with the sweep's relations built into a presentation, ranked and
        # minimized as a second stage, which took 0.8 s CPU for both degrees
        # (2-core x86_64, Python 3.11).
        cx = lattice(28)
        assert len(cx.simplices) == 41272
        t0 = time.process_time()
        texts = [present_homology(cx, d, f2).to_text() for d in (0, 1)]
        elapsed = time.process_time() - t0
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == \
            "11ff32403f2ea9b5bced33e4c31588f2d62fbf73edef7a01c6b818da5345e891"
        assert elapsed < 3, f"presenting H0 and H1 took {elapsed:.1f} s CPU"

    @pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3)])
    def test_relations_go_packed_to_minimization(self, field, monkeypatch):
        # the sweep's relations go to minimal_presentation as they come:
        # one from_ranks (the result's), no minimize or validate, and one
        # unpack per kept relation, none for a dropped one
        cx, calls = lattice_48(), []

        def counted(owner, name, wrap=lambda method: method):
            method = getattr(owner, name)

            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrap(call))

        counted(Presentation, "from_ranks", lambda call: classmethod(
            lambda cls, *args: call(*args)))
        counted(Presentation, "minimize")
        counted(Presentation, "validate")
        counted(field.columns, "unpack")
        for d in (0, 1):
            calls.clear()
            pres = present_homology(cx, d, field)
            assert calls == ["unpack"] * len(pres.relations) + ["from_ranks"]
            assert pres.relations or d == 0

    @pytest.mark.parametrize("move", [0, 1])
    def test_a_generator_entering_its_span_early_raises(self, f2, monkeypatch, move):
        # a row sweep that hands one generator to its row's span one grid
        # point early, before the last index of its birth, must be refused
        # rather than give a presentation.  Move 0 of the 48-point lattice's
        # H1 also leaves a boundary outside the span; move 1 changes no
        # relation, so only the span-entry check sees it.  A row's batches
        # are all read as the row starts, so taking them at once changes
        # nothing else.
        sweep, seen = homology.row_sweep, []

        def early(shape, grades):
            rows = sweep(shape, grades)
            for _ in itertools.product(*map(range, shape[:-1])):
                row = [next(rows) for _ in range(shape[-1])]
                for (_, before), (_, batch) in zip(row, row[1:]):
                    if batch:
                        if len(seen) == move:
                            before.append(batch.pop(0))
                        seen.append(1)
                yield from row

        monkeypatch.setattr(homology, "row_sweep", early)
        with pytest.raises(Exception):
            present_homology(lattice_48(), 1, f2, check_hilbert=False)
        assert len(seen) > move

    def test_no_simplices(self, f2):
        for n in (1, 2):
            for degree in (0, 1):
                pres = present_homology(K(n, []), degree, f2)
                assert (pres.n, pres.generators, pres.relations) == (n, [], [])

    def test_three_parameters_rejected(self, f2):
        with pytest.raises(HomologyError):
            present_homology(K(3, [((0,), (F(0), F(0), F(0)))]), 0, f2)


class TestRipsFamily:
    """`present_homology` on the full Rips family, where every pair is an
    edge: the sweep's rows, outputs pinned as a sweep with gaps between its
    rows gave them, and the vertical-line check, which shares no code with
    the Hilbert check."""

    def test_rows_are_the_generators_alone(self, f2, monkeypatch):
        # each birth reserves rows only for the candidates that prove
        # independent; reserving one per fresh candidate took the 40-point
        # family's H1 rows up to 16,290 for 741 generators, and the packed
        # relation columns grew with them
        cx, kind, calls = rips_family(40), f2.columns, []
        minimal_presentation = homology.minimal_presentation

        def spy(n, field, axes, generators, relations):
            calls.append(([r for *_, r in generators],
                          [kind.unpack(kind.copy(col)) for *_, col in relations]))
            return minimal_presentation(n, field, axes, generators, relations)

        monkeypatch.setattr(homology, "minimal_presentation", spy)
        for d in (0, 1):
            present_homology(cx, d, f2)
        for rows, columns in calls:
            assert sorted(rows) == list(range(len(rows)))
            assert all(max(col) < len(rows) for col in columns if col)
        assert [len(rows) for rows, _ in calls] == [40, 741]

    @pytest.mark.parametrize("points, p, digest", [
        (40, 2, "1bc0b7e7f8c5b424670210e26aa85992a39aaaad26a9c5006b91cb9d2ff641b7"),
        (30, 3, "be4ab1b4eca71c3ad7c417bc0ce47018538f20e731327126674d760f9c1656a1")])
    def test_presentations_pinned(self, points, p, digest):
        # computed when each birth reserved a row per fresh candidate
        cx = rips_family(points)
        texts = [present_homology(cx, d, PrimeField(p)).to_text() for d in (0, 1)]
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == digest

    @pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3)], ids=lambda f: f.spec)
    def test_vertical_lines_give_the_slice_barcodes(self, field):
        cx, lines = rips_family(30), 0
        for d in (0, 1):
            pres = present_homology(cx, d, field)
            scales = sorted({g[1] for _, g, *_ in pres.generators + pres.relations})
            want = {s: barcode_1d(fixed_scale_slice(cx, s), d, field) for s in scales}
            assert line_diagrams(pres, scales) == want
            lines += len(scales)
            # a minimal presentation has no redundant relation, so dropping
            # one changes the module on the line through its scale
            assert pres.relations
            for k in {0, len(pres.relations) // 2, len(pres.relations) - 1}:
                cut = Presentation(2, field, pres.generators,
                                   pres.relations[:k] + pres.relations[k + 1:])
                assert line_diagrams(cut, scales) != want
        assert lines == 35 + 18


    @pytest.mark.parametrize("field, relabels",
                             [(PrimeField(2), (1, 2, 3)), (PrimeField(3), (4,))],
                             ids=["zp 2", "zp 3"])
    def test_relabelings_keep_the_grade_multisets(self, field, relabels):
        # graded Betti numbers are invariants, so a permutation of the
        # points gives equal sorted generator- and relation-grade lists
        def grades(cx):
            return [(sorted(g for _, g in p.generators), sorted(g for _, g, _ in p.relations))
                    for p in (present_homology(cx, d, field) for d in (0, 1))]
        cx = rips_family(30)
        want = grades(cx)
        for seed in relabels:
            moved = rips_family(30, relabel=seed)
            assert moved.simplices != cx.simplices
            assert grades(moved) == want


class TestImageModule:
    def _circle_complex(self):
        # 4-cycle visible at scale 1, filled at scale 2, with a function axis
        simp = [vx(i, 0, 0) for i in range(4)]
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            simp.append(((a, b), (F(0), F(1))))
        simp += [((0, 1, 2), (F(0), F(2))), ((0, 2, 3), (F(0), F(2))),
                 ((0, 2), (F(0), F(2)))]
        return K(2, simp)

    def test_equal_deltas_match_slice(self, f2):
        cx = self._circle_complex()
        axes = [[F(0)]]
        img = image_grid_module(cx, 1, F(1), F(1), axes, f2)
        sl = grid_module_of(fixed_scale_slice(cx, F(1)), axes, degree=1, field=f2)
        assert img.dims == sl.dims

    def test_image_bounded_by_endpoints(self, f2):
        rng = seeded(127)
        for _ in range(6):
            cx = random_one_critical_complex(rng, 2, max_simplices=10)
            scales = sorted({g[-1] for _, g in cx.simplices})
            d1, d2 = scales[0], scales[-1]
            axes = [sorted({g[0] for _, g in cx.simplices})]
            img = image_grid_module(cx, 0, d1, d2, axes, f2)
            g1 = grid_module_of(fixed_scale_slice(cx, d1), axes, degree=0, field=f2)
            g2 = grid_module_of(fixed_scale_slice(cx, d2), axes, degree=0, field=f2)
            for idx in img.indices():
                assert img.dims[idx] <= min(g1.dims[idx], g2.dims[idx])

    def test_spurious_cycle_dies(self, f2):
        cx = self._circle_complex()
        img = image_grid_module(cx, 1, F(1), F(2), [[F(0)]], f2)
        assert img.dims[(0,)] == 0            # the square gets filled
        at1 = grid_module_of(fixed_scale_slice(cx, F(1)), [[F(0)]],
                             degree=1, field=f2)
        assert at1.dims[(0,)] == 1

    def test_delta_order_enforced(self, f2):
        with pytest.raises(HomologyError):
            image_grid_module(self._circle_complex(), 1, F(2), F(1), [[F(0)]], f2)

    def test_axis_count_enforced(self, f2):
        # the slices have one parameter; a second axis would be zipped away
        for axes in ([[F(0), F(1)], [F(0), F(1)]], []):
            with pytest.raises(HomologyError, match="axes count"):
                image_grid_module(self._circle_complex(), 1, F(1), F(2), axes, f2)

    @pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3)], ids=["F2", "F3"])
    def test_degrees_outside_the_complex_are_zero(self, field):
        """Chain and image modules at degree -1 and one past the top degree
        are zero everywhere, and so is the presentation there (a degree of
        -1 must not read the top degree's columns)."""
        cx = self._circle_complex()
        chain = chain_complex_of(cx, field)
        for degree in (-1, chain.max_deg + 1):
            gm = grid_module_of(cx, chain.axes, degree=degree, field=field)
            img = image_grid_module(cx, degree, F(1), F(2), chain.axes[:1], field)
            assert set(gm.dims.values()) == set(img.dims.values()) == {0}
            assert present_homology(cx, degree, field).to_text() == \
                Presentation(2, field, [], []).to_text()


class TestRankShift:
    def test_self_zero(self, f2):
        g = grid_module_of(interval_presentation(f2, 0, 1), [[F(0), F(1)]])
        assert rank_shift_distance(g, g) == ext(0)

    def test_interval_pair_half_grid(self, f2):
        axes = [[F(0), F(1, 2), F(1), F(3, 2), F(2)]]
        g1 = grid_module_of(interval_presentation(f2, 0, 1), axes)
        g2 = grid_module_of(interval_presentation(f2, 0, 2), axes)
        # literal shift formula on this grid gives 1 (a lower bound of
        # d_I = 1; the spec example's 1/2 matches doubled shifts instead)
        assert rank_shift_distance(g1, g2) == ext(1)

    def test_lower_bounds_interleaving(self, f2):
        rng = seeded(131)
        pool = [F(k, 2) for k in range(0, 9)]
        for _ in range(8):
            a, b = sorted(rng.sample(pool, 2))
            c, d = sorted(rng.sample(pool, 2))
            m, n = interval_presentation(f2, a, b), interval_presentation(f2, c, d)
            axes = [sorted({a, b, c, d} | {x + F(1, 4) for x in (a, b, c, d)})]
            gm = grid_module_of(m, axes)
            gn = grid_module_of(n, axes)
            rs = rank_shift_distance(gm, gn)
            di = interleaving_distance(m, n)
            assert rs <= di

    def test_stability_at_grid_level(self, f2):
        # functions on a fixed complex: sup-difference delta bounds the
        # rank-shift distance of the sublevel H_0 modules
        rng = seeded(137)
        verts = list(range(5))
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        for _ in range(6):
            fvals1 = [F(rng.randint(0, 6), 2) for _ in verts]
            fvals2 = [F(rng.randint(0, 6), 2) for _ in verts]
            delta = max(abs(x - y) for x, y in zip(fvals1, fvals2))
            def complex_of(fv):
                simp = [((v,), (fv[v],)) for v in verts]
                simp += [((a, b), (max(fv[a], fv[b]),)) for a, b in edges]
                return K(1, simp)
            axes = [sorted({v for v in fvals1} | {v for v in fvals2})]
            g1 = grid_module_of(complex_of(fvals1), axes, degree=0, field=f2)
            g2 = grid_module_of(complex_of(fvals2), axes, degree=0, field=f2)
            assert rank_shift_distance(g1, g2) <= ext(delta)

    def test_incompatible_axes(self, f2):
        g1 = grid_module_of(interval_presentation(f2, 0, 1), [[F(0)]])
        p2 = Presentation(2, f2, [("g", (F(0), F(0)))], [])
        g2 = grid_module_of(p2, [[F(0)], [F(0)]])
        with pytest.raises(HomologyError):
            rank_shift_distance(g1, g2)

    def test_coefficient_fields_differ(self, f2, f3):
        """A Z/2 and a Z/3 cluster module on the same axes used to give 1."""
        axes = [F(-1), F(0)], [F(0), F(1)]
        pts = [(F(0), F(-1)), (F(3), F(0))]
        g2, g3 = (cech_cluster_module(f, pts, *axes) for f in (f2, f3))
        with pytest.raises(HomologyError, match="coefficient fields differ"):
            rank_shift_distance(g2, g3)
        assert rank_shift_distance(g3, cech_cluster_module(f3, pts[:1], *axes)) == ext(1)


class TestResample:
    def test_refine_interval(self, f2):
        g = grid_module_of(interval_presentation(f2, 0, 1), [[F(0), F(1)]])
        r = resample(g, [[F(0), F(1, 2), F(1), F(2)]])
        assert [r.dims[(i,)] for i in range(4)] == [1, 1, 0, 0]

    def test_below_minimum_is_zero(self, f2):
        g = grid_module_of(interval_presentation(f2, 0, 1), [[F(0), F(1)]])
        r = resample(g, [[F(-1), F(0)]])
        assert r.dims[(0,)] == 0 and r.dims[(1,)] == 1

    def test_equal_axes_return_the_module(self, f2):
        g = grid_module_of(interval_presentation(f2, 0, 1), [[F(0), F(1)]])
        assert resample(g, [[F(0), F(1)]]) is g
        assert resample(g, ([F(0), F(1)],)) is g


class TestZeroSpaces:
    """A composite through a zero space must still have one (zero) column
    per basis vector of its source."""

    def test_resample_across_a_zero_space(self, f2):
        g = GridModule(f2, [[F(0), F(1), F(2)]], {(0,): 1, (1,): 0, (2,): 1},
                       {((0,), 0): [{}], ((1,), 0): []})
        assert g.matrix_between((0,), (2,)) == [{}]
        assert resample(g, [[F(0), F(2)]]).step((0,), 0) == [{}]

    def test_square_through_a_zero_space(self):
        f3 = PrimeField(3)
        p = Presentation(2, f3, [("g0", (F(3), F(7, 2))), ("g1", (F(2), F(0)))],
                         [("r", (F(3), F(5, 2)), [0, 1])]).validate()
        gm = grid_module_of(p, [[F(k) for k in range(5)]] * 2)
        assert gm.dims[(3, 3)] == 0
        assert gm.matrix_between((2, 3), (3, 4)) == [{}]

    def test_every_path_gives_the_composite(self):
        def along(gm, i1, i2, order):
            """The steps from i1 to i2 multiplied up as dense rows, axes in
            the given order."""
            out = identity(gm.field, gm.dims[i1])
            idx = i1
            for a in order:
                while idx[a] < i2[a]:
                    nxt = idx[:a] + (idx[a] + 1,) + idx[a + 1:]
                    step = rows_of(gm.field, gm.step(idx, a), gm.dims[nxt])
                    out = mat_mul(gm.field, step, out, gm.dims[i1])
                    idx = nxt
            return out

        rng = seeded(271)
        for f in (PrimeField(2), PrimeField(3)):
            for _ in range(8):
                p = random_presentation(rng, f, n=2, max_gens=4)
                gm = grid_module_of(p, [[F(k) for k in range(5)]] * 2)
                for i1 in gm.indices():
                    for i2 in gm.indices():
                        if i1 == i2 or i1[0] > i2[0] or i1[1] > i2[1]:
                            continue
                        cols = gm.matrix_between(i1, i2)
                        assert len(cols) == gm.dims[i1]
                        assert all(r in range(gm.dims[i2]) for c in cols for r in c)
                        m = rows_of(gm.field, cols, gm.dims[i2])
                        assert m == along(gm, i1, i2, (0, 1)) == \
                            along(gm, i1, i2, (1, 0))


class TestRipsCechInterleaving:
    def test_pipeline_small_cloud(self, f2):
        # paired Rips/Cech bifiltrations of a <= 5 point cloud are
        # (J, id)-interleaved in homology, J doubling the scale axis
        rng = seeded(139)
        for _ in range(3):
            coords = rng.sample(range(0, 9), 4)
            pts = PointCloud([(F(c),) for c in coords])
            vals = [(F(rng.randint(0, 2)),) for _ in range(len(pts))]
            rips = rips_bifiltration(pts, "inf", vals, 2, F(100))
            cech = cech_bifiltration(pts, "inf", vals, 2, F(100))
            j = MonotoneAffineMap.scale_last(2, 2)
            i2 = MonotoneAffineMap.identity(2)
            for degree in (0, 1):
                hm = present_homology(rips, degree, f2)
                hn = present_homology(cech, degree, f2)
                assert decide_generalized(hm, hn, j, i2) == "yes"

    def test_pipeline_plane_cloud(self, f2):
        # rational-circumradius configuration where Cech differs from Rips
        pts = PointCloud([(-3, 0), (3, 0), (0, 4)])
        vals = [(F(0),)] * 3
        rips = rips_bifiltration(pts, 2, vals, 2, F(100))
        cech = cech_bifiltration(pts, 2, vals, 2, F(100))
        j = MonotoneAffineMap.scale_last(2, 2)
        i2 = MonotoneAffineMap.identity(2)
        for degree in (0, 1):
            hm = present_homology(rips, degree, f2)
            hn = present_homology(cech, degree, f2)
            assert decide_generalized(hm, hn, j, i2) == "yes"

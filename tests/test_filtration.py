import itertools
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import permod
from permod.filtration import (BifilteredComplex, DensitySpec, FiltrationError,
                               KdeSpec, PointCloud, Scale, cech_bifiltration,
                               distance, fixed_scale_slice,
                               function_aware_hausdorff,
                               gromov_function_distance, kde_evaluate,
                               min_enclosing_radius, parse_complex,
                               parse_points_csv, parse_values_csv,
                               rips_bifiltration, sample_density,
                               scale_of_square, scale_square,
                               sup_function_distance)

from conftest import bracket_sqrt, seeded


def zeros(k, n=1):
    return [(F(0),) * n] * k


class TestScale:
    def test_perfect_square_collapses(self):
        assert scale_of_square(F(9, 4)) == F(3, 2)
        s = scale_of_square(F(1, 3))
        assert isinstance(s, Scale)
        lo, hi = bracket_sqrt(s.sq)
        assert lo * lo <= F(1, 3) <= hi * hi and hi - lo <= F(1, 2 ** 20)

    def test_exact_comparisons(self):
        a = scale_of_square(F(1, 2))     # sqrt(1/2) ~ 0.707
        assert scale_square(F(1, 2)) <= scale_square(a)
        assert not scale_square(a) <= scale_square(F(1, 2))
        assert scale_square(a) <= scale_square(F(3, 4))
        assert sorted([a, F(1, 2), F(1)], key=scale_square)[0] == F(1, 2)


class TestMetrics:
    def test_distances(self):
        x, y = (F(0), F(0)), (F(3), F(4))
        assert distance(x, y, 1) == F(7)
        assert distance(x, y, "inf") == F(4)
        assert distance(x, y, 2) == F(5)            # 3-4-5: exact
        d = distance((F(0),) * 2, (F(1), F(1)), 2)
        assert isinstance(d, Scale) and d.sq == F(2)


class TestEnclosingBalls:
    def test_pair_midpoint(self):
        r = min_enclosing_radius([(F(0),), (F(1),)], 2)
        assert r == F(1, 2)

    def test_acute_triangle_circumradius(self):
        pts = [(F(-3), F(0)), (F(3), F(0)), (F(0), F(4))]
        assert min_enclosing_radius(pts, 2) == F(25, 8)

    def test_obtuse_reduces_to_diameter(self):
        pts = [(F(0), F(0)), (F(4), F(0)), (F(1), F(1))]
        assert min_enclosing_radius(pts, 2) == F(2)   # half the long side

    def test_linf_box(self):
        pts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
        assert min_enclosing_radius(pts, "inf") == F(1, 2)


class TestRips:
    def test_edge_at_half_distance(self):
        cx = rips_bifiltration(PointCloud([(0,), (1,)]), 1, zeros(2), 1, F(10))
        edge = [g for v, g in cx.simplices if len(v) == 2]
        assert edge == [(F(0), F(1, 2))]

    def test_single_point(self):
        cx = rips_bifiltration(PointCloud([(2,)]), 2, [(F(5),)], 3, F(10))
        assert cx.simplices == [((0,), (F(5), F(0)))]

    def test_equilateral_triangle(self):
        # L2 equilateral needs irrational coordinates; use L1 unit triangle
        # where all pairwise distances are 2: triangle at scale 1
        pts = PointCloud([(0, 0), (1, 1), (2, 0)])
        cx = rips_bifiltration(pts, 1, zeros(3, 1), 2, F(10))
        tri = [g for v, g in cx.simplices if len(v) == 3]
        assert tri == [(F(0), F(1))]

    def test_scale_cap_prunes(self):
        cx = rips_bifiltration(PointCloud([(0,), (10,)]), 1, zeros(2), 1, F(1))
        assert all(len(v) == 1 for v, _ in cx.simplices)

    def test_negative_max_dim_rejected(self):
        # max_dim 0 keeps the vertices; -1 is refused by both builders
        pts = PointCloud([(0,), (1,)])
        assert len(rips_bifiltration(pts, 2, zeros(2), 0, F(10)).simplices) == 2
        for build in (rips_bifiltration, cech_bifiltration):
            with pytest.raises(FiltrationError, match="max dim must be >= 0"):
                build(pts, 2, zeros(2), -1, F(10))

    def test_l2_edges_sorted_by_value(self):
        """Half-lengths sqrt(5)/2 < sqrt(2) < 3/2: an irrational scale and a
        rational one compare by value, in the text and in the face check."""
        cx = rips_bifiltration(PointCloud([(0, 0), (2, 2), (3, 0)]), 2,
                               [(0,)] * 3, 1, 5)
        assert [v for v, _ in cx.simplices if len(v) == 2] == \
            [(1, 2), (0, 1), (0, 2)]
        assert cx.to_text().splitlines()[3:] == [
            "1,2 : 0 sqrt(5/4)", "0,1 : 0 sqrt(2)", "0,2 : 0 3/2"]

    def test_scale_column_with_negative_and_mixed_values(self):
        """A scale column may hold negative rationals beside Scales; they
        sort below every scale, and a face at a larger scale is refused."""
        cx = BifilteredComplex(1, [((0,), (F(-2),)), ((1,), (Scale(2),)),
                                   ((2,), (F(-1, 2),)), ((3,), (F(3, 2),))])
        assert [v for v, _ in cx.simplices] == [(0,), (2,), (1,), (3,)]
        with pytest.raises(FiltrationError, match="appears after"):
            BifilteredComplex(1, [((0,), (F(3, 2),)), ((1,), (F(0),)),
                                  ((0, 1), (Scale(2),))])
        BifilteredComplex(1, [((0,), (F(-3),)), ((1,), (Scale(2),)),
                              ((0, 1), (Scale(2),))])

    def test_function_grades_max(self):
        cx = rips_bifiltration(PointCloud([(0,), (1,)]),
                               1, [(F(1),), (F(3),)], 1, F(10))
        edge = [g for v, g in cx.simplices if len(v) == 2][0]
        assert edge == (F(3), F(1, 2))


class TestCech:
    def test_edge_midpoint_any_metric(self):
        for p in (2, "inf"):
            cx = cech_bifiltration(PointCloud([(0,), (1,)]), p, zeros(2), 1, F(10))
            edge = [g for v, g in cx.simplices if len(v) == 2]
            assert edge == [(F(0), F(1, 2))]

    def test_l1_rejected(self):
        with pytest.raises(FiltrationError):
            cech_bifiltration(PointCloud([(0,)]), 1, zeros(1), 1, F(1))

    def test_linf_triangle(self):
        pts = PointCloud([(0, 0), (1, 0), (0, 1)])
        cx = cech_bifiltration(pts, "inf", zeros(3), 2, F(10))
        tri = [g for v, g in cx.simplices if len(v) == 3]
        assert tri == [(F(0), F(1, 2))]

    def test_l2_circumradius_certificate(self):
        pts = PointCloud([(0, 0), (1, 0), (0, 1)])
        cx = cech_bifiltration(pts, 2, zeros(3), 2, F(10))
        tri = [g for v, g in cx.simplices if len(v) == 3][0]
        assert isinstance(tri[1], Scale) and tri[1].sq == F(1, 2)


class TestSandwich:
    def test_rips_cech_sandwich_random(self):
        rng = seeded(71)
        for _ in range(8):
            npts = rng.randint(2, 6)
            pts = PointCloud([(F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
                              for _ in range(npts)])
            p = rng.choice([2, "inf"])
            rips = rips_bifiltration(pts, p, zeros(len(pts), 1), 2, F(100))
            cech = cech_bifiltration(pts, p, zeros(len(pts), 1), 2, F(100))
            rs = {v: g[-1] for v, g in rips.simplices}
            cs = {v: g[-1] for v, g in cech.simplices}
            assert set(rs) == set(cs)
            for v in rs:
                assert scale_square(rs[v]) <= scale_square(cs[v])
                assert scale_square(cs[v]) <= 4 * scale_square(rs[v])


class TestSlice:
    def test_delta_zero_vertices_only(self):
        pts = PointCloud([(0,), (1,)])
        cx = rips_bifiltration(pts, 1, zeros(2), 1, F(10))
        sl = fixed_scale_slice(cx, F(0))
        assert all(len(v) == 1 for v, _ in sl.simplices)
        assert sl.nparams == 1

    def test_delta_large_full_complex(self):
        pts = PointCloud([(0,), (1,)])
        cx = rips_bifiltration(pts, 1, zeros(2), 1, F(10))
        sl = fixed_scale_slice(cx, F(100))
        assert len(sl.simplices) == len(cx.simplices)

    def test_monotone(self):
        rng = seeded(73)
        pts = PointCloud([(F(rng.randint(0, 8)),) for _ in range(5)])
        cx = rips_bifiltration(pts, 1, zeros(len(pts)), 2, F(100))
        d1, d2 = F(1), F(3)
        s1 = {v for v, _ in fixed_scale_slice(cx, d1).simplices}
        s2 = {v for v, _ in fixed_scale_slice(cx, d2).simplices}
        assert s1 <= s2


class TestFunctionDistances:
    def test_sup_distance(self):
        f1 = [(F(0), F(1)), (F(2), F(3))]
        assert sup_function_distance(f1, f1) == 0
        f2 = [(a + 2, b + 2) for a, b in f1]
        assert sup_function_distance(f1, f2) == 2
        rng = seeded(79)
        g1 = [(F(rng.randint(-5, 5)),) for _ in range(6)]
        g2 = [(F(rng.randint(-5, 5)),) for _ in range(6)]
        brute = max(abs(a[0] - b[0]) for a, b in zip(g1, g2))
        assert sup_function_distance(g1, g2) == brute

    def test_hausdorff_identical(self):
        x = PointCloud([(0,), (1,)])
        f = [(F(0),), (F(0),)]
        assert function_aware_hausdorff(x, f, x, f, "inf") == 0

    def test_hausdorff_translation(self):
        x1 = PointCloud([(0,), (10,)])
        x2 = PointCloud([(1,), (11,)])
        f = [(F(0),), (F(0),)]
        assert function_aware_hausdorff(x1, f, x2, f, "inf") == 1

    def test_hausdorff_brute_force(self):
        rng = seeded(83)
        for _ in range(10):
            n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
            x1 = PointCloud([(F(rng.randint(-4, 4)),) for _ in range(n1)])
            x2 = PointCloud([(F(rng.randint(-4, 4)),) for _ in range(n2)])
            f1 = [(F(rng.randint(-2, 2)),) for _ in range(n1)]
            f2 = [(F(rng.randint(-2, 2)),) for _ in range(n2)]
            got = function_aware_hausdorff(x1, f1, x2, f2, "inf")
            def cost(a, fa, b, fb):
                return max(abs(a[0] - b[0]), abs(fa[0] - fb[0]))
            brute = max(
                max(min(cost(a, fa, b, fb) for b, fb in zip(x2.points, f2))
                    for a, fa in zip(x1.points, f1)),
                max(min(cost(b, fb, a, fa) for a, fa in zip(x1.points, f1))
                    for b, fb in zip(x2.points, f2)))
            assert got == brute

    def test_hausdorff_refuses_unmatched_function_rows(self):
        """Points (0,), (10,) against (0,): with one function row the far
        point used to go unread, reading 0 where both rows read 10."""
        x1, x2 = PointCloud([(0,), (10,)]), PointCloud([(0,)])
        f = [(F(0),), (F(0),)]
        assert function_aware_hausdorff(x1, f, x2, f[:1], "inf") == 10
        for f1, f2 in ((f[:1], f[:1]), (f, f)):
            with pytest.raises(FiltrationError, match="function rows do not match"):
                function_aware_hausdorff(x1, f1, x2, f2, "inf")

    def test_rows_of_unequal_widths_are_refused(self):
        """Rows (0) and (0, 5) differ by 5 in the second column; compared
        through zip, both distances used to read 0."""
        x = PointCloud([(0,)])
        short, wide = [(F(0),)], [(F(0), F(5))]
        for f1, f2 in ((short, wide), (wide, short)):
            with pytest.raises(FiltrationError, match="function rows of widths"):
                sup_function_distance(f1, f2)
            with pytest.raises(FiltrationError, match="function rows of widths"):
                function_aware_hausdorff(x, f1, x, f2, "inf")


def enumerate_gromov(d1, f1, d2, f2):
    """Oracle: full enumeration over function pairs (phi, psi)."""
    n1, n2 = len(d1), len(d2)
    best = None
    for phi in itertools.product(range(n2), repeat=n1):
        for psi in itertools.product(range(n1), repeat=n2):
            corr = [(i, phi[i]) for i in range(n1)] + \
                   [(psi[j], j) for j in range(n2)]
            worst = F(0)
            for (i, j) in corr:
                gap = max((abs(u - v) for u, v in zip(f1[i], f2[j])),
                          default=F(0))
                worst = max(worst, gap)
                for (i2, j2) in corr:
                    worst = max(worst, abs(d1[i][i2] - d2[j][j2]) / 2)
            if best is None or worst < best:
                best = worst
    return best


class TestGromov:
    def test_identical(self):
        d = [[F(0), F(1)], [F(1), F(0)]]
        f = [(F(0),), (F(0),)]
        assert gromov_function_distance([0, 1], d, f, [0, 1], d, f) == 0

    def test_single_points(self):
        assert gromov_function_distance([0], [[F(0)]], [(F(2),)],
                                        [0], [[F(0)]], [(F(5),)]) == 3

    def test_two_point_distortion(self):
        d1 = [[F(0), F(1)], [F(1), F(0)]]
        d2 = [[F(0), F(3)], [F(3), F(0)]]
        f = [(F(0),), (F(0),)]
        assert gromov_function_distance([0, 1], d1, f, [0, 1], d2, f) == 1

    def test_against_enumeration(self):
        rng = seeded(89)
        for _ in range(8):
            n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
            def metric(n):
                pts = [F(rng.randint(0, 8)) for _ in range(n)]
                return [[abs(a - b) for b in pts] for a in pts]
            d1, d2 = metric(n1), metric(n2)
            f1 = [(F(rng.randint(0, 3)),) for _ in range(n1)]
            f2 = [(F(rng.randint(0, 3)),) for _ in range(n2)]
            got = gromov_function_distance(list(range(n1)), d1, f1,
                                           list(range(n2)), d2, f2)
            assert got == enumerate_gromov(d1, f1, d2, f2)

    def test_refuses_rows_that_do_not_match_the_points(self):
        d = [[F(0), F(1)], [F(1), F(0)]]
        f = [(F(0),), (F(0),)]
        with pytest.raises(FiltrationError, match="function rows do not match"):
            gromov_function_distance([0, 1], d, f[:1], [0, 1], d, f)
        with pytest.raises(FiltrationError, match="distance matrices do not match"):
            gromov_function_distance([0, 1], d[:1], f, [0, 1], d, f)

    def test_refuses_rows_of_unequal_widths(self):
        with pytest.raises(FiltrationError, match="function rows of widths 1 and 2"):
            gromov_function_distance([0], [[F(0)]], [(F(0),)], [0], [[F(0)]], [(F(0), F(5))])

    def test_size_guard(self):
        d = [[F(0)] * 6 for _ in range(6)]
        f = [(F(0),)] * 6
        with pytest.raises(FiltrationError):
            gromov_function_distance(list(range(6)), d, f,
                                     list(range(6)), d, f)


class TestSampling:
    def test_determinism(self):
        spec = DensitySpec.parse("1,0,1")
        a = sample_density(spec, 25, seed=42)
        b = sample_density(spec, 25, seed=42)
        assert a.points == b.points
        c = sample_density(spec, 25, seed=43)
        assert a.points != c.points

    def test_count_zero(self):
        spec = DensitySpec.parse("1,0,1")
        assert len(sample_density(spec, 0, seed=1)) == 0

    def test_empirical_mean(self):
        spec = DensitySpec.parse("1,3,2")
        pts = sample_density(spec, 10 ** 4, seed=7)
        mean = sum(p[0] for p in pts) / len(pts)
        # within 5 sigma / sqrt(n) of the center
        assert abs(mean - 3) <= F(5) * 2 / 100

    def test_import_leaves_numpy_out(self):
        # numpy serves sample_density's Philox draws and kde_evaluate's
        # blocks, and each imports it, so importing the package (and every
        # CLI command that draws no sample) does without it
        src = str(Path(permod.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, permod; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
        for call in ("permod.sample_density(permod.DensitySpec.parse('1,0,1'), 1, 1)",
                     "permod.kde_evaluate(permod.PointCloud([(0,)]), "
                     "permod.KdeSpec('gaussian', 1), [(1,)])"):
            code = f"import sys, permod; {call}; print('numpy' in sys.modules)"
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout.strip() == "True"

    def test_coordinates_rounded(self):
        spec = DensitySpec.parse("1,0,1")
        for p in sample_density(spec, 10, seed=3):
            assert (p[0] * 2 ** 20).denominator == 1

    def test_spec_validation(self):
        with pytest.raises(FiltrationError):
            DensitySpec.parse("1/2,0,1")     # weights must sum to 1
        with pytest.raises(FiltrationError):
            DensitySpec.parse("1,0,0")       # sigma > 0


class TestKde:
    def test_gaussian_closed_form(self):
        import math
        sample = PointCloud([(0,)])
        spec = KdeSpec("gaussian", F(1, 2))
        got = kde_evaluate(sample, spec, PointCloud([(0,)]))[0]
        want = 1 / (float(F(1, 2)) * math.sqrt(2 * math.pi))
        assert abs(float(got) - want) <= 2 ** -20

    def test_nonnegative(self):
        rng = seeded(97)
        sample = PointCloud([(F(rng.randint(-3, 3)),) for _ in range(8)])
        spec = KdeSpec("epanechnikov", F(1))
        at = PointCloud([(F(k, 2),) for k in range(-8, 9)])
        assert all(v >= 0 for v in kde_evaluate(sample, spec, at))

    def test_multiplicity_invariance(self):
        sample = PointCloud([(0,), (1,)])
        doubled = PointCloud([(0,), (0,), (1,), (1,)])
        spec = KdeSpec("gaussian", F(1, 3))
        at = PointCloud([(F(1, 2),), (F(2),)])
        assert kde_evaluate(sample, spec, at) == kde_evaluate(doubled, spec, at)

    def test_empty_sample(self):
        with pytest.raises(FiltrationError):
            kde_evaluate(PointCloud([]), KdeSpec("gaussian", F(1)), PointCloud([(0,)]))

    def test_evaluation_point_of_another_dimension(self):
        sample, spec = PointCloud([(0,)]), KdeSpec("gaussian", F(1, 2))
        for at in (PointCloud([(0, 5)]), [(1,), (0, 5)], [()]):
            with pytest.raises(FiltrationError, match="dimension"):
                kde_evaluate(sample, spec, at)


class TestFormats:
    def test_points_csv_roundtrip(self):
        cloud = parse_points_csv("0,1\n1/2,-3\n2.5,0\n")
        assert cloud.points == [(F(0), F(1)), (F(1, 2), F(-3)), (F(5, 2), F(0))]
        again = parse_points_csv(cloud.to_csv())
        assert again.points == cloud.points

    def test_values_csv(self):
        rows = parse_values_csv("1,2\n3,4\n", n=2)
        assert rows == [(F(1), F(2)), (F(3), F(4))]
        with pytest.raises(FiltrationError):
            parse_values_csv("1\n", n=2)

    def test_complex_dump_roundtrip(self):
        pts = PointCloud([(0, 0), (1, 0), (0, 1)])
        cx = cech_bifiltration(pts, 2, zeros(3), 2, F(10))
        again = parse_complex(cx.to_text())
        assert again.to_text() == cx.to_text()

    def test_face_closure_enforced(self):
        with pytest.raises(FiltrationError):
            BifilteredComplex(1, [((0, 1), (F(0),))])
        with pytest.raises(FiltrationError):
            BifilteredComplex(1, [((0,), (F(1),)), ((1,), (F(0),)),
                                  ((0, 1), (F(0),))])


class TestStabilityWiring:
    def test_function_perturbation_moves_grades_by_at_most_delta(self):
        rng = seeded(91)
        pts = PointCloud([(F(k),) for k in range(5)])
        f1 = [(F(rng.randint(0, 6), 2),) for _ in range(5)]
        delta = F(1, 2)
        f2_ = [(v[0] + rng.choice([-delta, F(0), delta]),) for v in f1]
        cx1 = rips_bifiltration(pts, 1, f1, 2, F(100))
        cx2 = rips_bifiltration(pts, 1, f2_, 2, F(100))
        g1 = {v: g for v, g in cx1.simplices}
        g2 = {v: g for v, g in cx2.simplices}
        assert set(g1) == set(g2)
        for v in g1:
            assert abs(g1[v][0] - g2[v][0]) <= delta
            assert g1[v][-1] == g2[v][-1]


class TestDuplicates:
    def test_duplicate_points_deduplicated(self):
        cloud = PointCloud([(0,), (0,), (1,)])
        cx = rips_bifiltration(cloud, 1, zeros(3), 1, F(10))
        assert len([v for v, _ in cx.simplices if len(v) == 1]) == 2

    def test_conflicting_values_rejected(self):
        cloud = PointCloud([(0,), (0,)])
        with pytest.raises(FiltrationError):
            rips_bifiltration(cloud, 1, [(F(0),), (F(1),)], 1, F(10))

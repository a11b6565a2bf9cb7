"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction as F

from permod.exactnum import INF, PrimeField, ext
from permod.filtration import (PointCloud, cech_bifiltration,
                               rips_bifiltration, scale_square)
from permod.homology import (barcode_1d, chain_complex_of, grid_module_of,
                             present_homology, rank_shift_distance)
from permod.infer import offset_cluster_module, run_experiment
from permod.interleave import (assemble_system, candidate_set,
                               decide_interleaving, interleaving_distance)
from permod.onedim import (PersistenceDiagram, bottleneck,
                           bottleneck_bruteforce, diagram_of)
from permod.presentation import (MonotoneAffineMap, Presentation,
                                 interval_presentation)
from permod.filtration import DensitySpec

from conftest import random_presentation, rerepresent, seeded
from test_homology import random_one_critical_complex

F2 = PrimeField(2)
F3 = PrimeField(3)

# sha256 of the criterion-12 ExperimentRecord JSON; the kernel density values
# in it are libm doubles rounded to 2**-30, so this pins them too
CRITERION_12_SHA256 = \
    "69998598a9f368b6c081afdbd7dfcb1239c3e0fe7830d9951810c44878182460"


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


GRADE_POOL = [F(k, 2) for k in range(0, 9)]     # {0, 1/2, ..., 4}


def _criterion1_pairs():
    rng = seeded(2024_01)
    pairs = []
    for _ in range(25):
        m = random_presentation(rng, F2, n=1, max_gens=3, max_rels=3,
                                grade_pool=GRADE_POOL)
        n = random_presentation(rng, F2, n=1, max_gens=3, max_rels=3,
                                grade_pool=GRADE_POOL)
        pairs.append((m, n))
    return pairs


def test_criterion_1_interleaving_equals_bottleneck():
    t0 = time.time()
    for m, n in _criterion1_pairs():
        di = interleaving_distance(m, n)
        db = bottleneck(diagram_of(m), diagram_of(n))
        assert di == db, f"d_I={di} != d_B={db}"
    dt = time.time() - t0
    report(1, dt < 300,
           f"25 random 1-D pairs: d_I == d_B exactly ({dt:.1f}s < 300s)")


def test_criterion_2_bottleneck_oracle():
    t0 = time.time()
    rng = seeded(2024_02)

    def rand_diagram():
        pts = {}
        total = 0
        for _ in range(rng.randint(0, 4)):
            if total >= 5:
                break
            a = F(rng.randint(0, 8), 2)
            b = a + F(rng.randint(1, 6), 2) if rng.random() < 0.8 else INF
            mult = rng.randint(1, min(2, 5 - total))
            total += mult
            key = (ext(a), b if b == INF else ext(b))
            pts[key] = pts.get(key, 0) + mult
        return PersistenceDiagram([(b, d, m) for (b, d), m in pts.items()])

    for _ in range(50):
        d1, d2 = rand_diagram(), rand_diagram()
        assert bottleneck(d1, d2) == bottleneck_bruteforce(d1, d2)
    dt = time.time() - t0
    report(2, dt < 60,
           f"50 random diagram pairs: matching d_B == brute force ({dt:.1f}s < 60s)")


def test_criterion_3_candidate_set_and_monotonicity():
    for m, n in _criterion1_pairs():
        mm, nn = m.minimize(), n.minimize()
        cands = candidate_set(mm, nn)
        finite = [c for c in cands if c.is_finite]
        answers = [decide_interleaving(mm, nn, c.value) for c in finite]
        flips = sum(1 for a, b in zip(answers, answers[1:]) if a != b)
        assert flips <= 1 and (flips == 0 or answers[-1] == "yes"), \
            f"decision sequence not monotone: {answers}"
        d = interleaving_distance(m, n)
        assert d in cands, f"distance {d} not in candidate set"
        if d.is_finite:
            assert answers[finite.index(d)] == "yes"
        else:
            assert all(a == "no" for a in answers)
    report(3, True, "25 pairs: d_I in U_MN; decisions monotone no->yes, exact")


def test_criterion_4_interval_lemma():
    rng = seeded(2024_04)
    checked_no = 0
    for _ in range(30):
        a, b = sorted(rng.sample(GRADE_POOL, 2))
        a2, b2 = sorted(rng.sample(GRADE_POOL, 2))
        m = interval_presentation(F2, a, b)
        n = interval_presentation(F2, a2, b2)
        eps = max(abs(a - a2), abs(b - b2))
        assert decide_interleaving(m, n, eps) == "yes"
        db = bottleneck(diagram_of(m), diagram_of(n))
        below = [c for c in candidate_set(m, n) if c.is_finite and c < db]
        if below:
            assert decide_interleaving(m, n, below[-1].value) == "no"
            checked_no += 1
    report(4, True,
           f"30 interval pairs: yes at sup-norm shift; no below d_B "
           f"({checked_no} strict cases), exact")


def test_criterion_5_system_size():
    sizes = [(1, 1), (2, 2), (3, 3)]
    for (gm, rm) in sizes:
        for (gn, rn) in sizes:
            def flat(g, r, tag):
                gens = [(f"{tag}g{i}", (F(0), F(0))) for i in range(g)]
                rels = [(f"{tag}r{j}", (F(0), F(0)), [F2.one] * g)
                        for j in range(r)]
                return Presentation(2, F2, gens, rels).validate()
            m, n = flat(gm, rm, "m"), flat(gn, rn, "n")
            j0 = MonotoneAffineMap.translation(2, 0)
            sy = assemble_system(m, n, j0, j0)
            want_vars = gn * gm + gm * gn + rn * rm + rm * rn + rm * gm + rn * gn
            want_eqs = gn * rm + gm * rn + gm * gm + gn * gn
            assert sy.free_variable_count == want_vars, \
                f"vars {sy.free_variable_count} != {want_vars}"
            assert sy.equation_count == want_eqs, \
                f"eqs {sy.equation_count} != {want_eqs}"
    report(5, True,
           "9 size combinations: variable/equation counts match closed forms")


def test_criterion_6_cech_rips_sandwich():
    t0 = time.time()
    rng = seeded(2024_06)
    for trial in range(20):
        npts = rng.randint(2, 8)
        pts = []
        while len(pts) < npts:
            cand = (F(rng.randint(-6, 6)), F(rng.randint(-6, 6)))
            if cand not in pts:
                pts.append(cand)
        cloud = PointCloud(pts)
        vals = [(F(0),)] * npts
        p = 2 if trial % 2 == 0 else "inf"
        rips = rips_bifiltration(cloud, p, vals, 3, F(1000))
        cech = cech_bifiltration(cloud, p, vals, 3, F(1000))
        rs = {v: g[-1] for v, g in rips.simplices}
        cs = {v: g[-1] for v, g in cech.simplices}
        assert set(rs) == set(cs)
        for v in rs:
            assert scale_square(rs[v]) <= scale_square(cs[v]), f"rips > cech at {v}"
            assert scale_square(cs[v]) <= 4 * scale_square(rs[v]), \
                f"cech > 2*rips at {v}"
    dt = time.time() - t0
    report(6, dt < 60,
           f"20 point sets: rips <= cech <= 2*rips simplexwise ({dt:.1f}s < 60s)")


def test_criterion_7_sublevelset_stability():
    rng = seeded(2024_07)
    verts = list(range(8))
    edges = [(i, (i + 1) % 8) for i in range(8)]

    def sublevel_complex(fv):
        simp = [((v,), (fv[v],)) for v in verts]
        simp += [(tuple(sorted(e)), (max(fv[e[0]], fv[e[1]]),)) for e in edges]
        return simp

    from permod.filtration import BifilteredComplex
    for _ in range(10):
        f1 = [F(rng.randint(0, 8), 2) for _ in verts]
        f2_ = [F(rng.randint(0, 8), 2) for _ in verts]
        delta = max(abs(x - y) for x, y in zip(f1, f2_))
        c1 = BifilteredComplex(1, sublevel_complex(f1))
        c2 = BifilteredComplex(1, sublevel_complex(f2_))
        for degree in (0, 1):
            d1 = barcode_1d(c1, degree, F2)
            d2 = barcode_1d(c2, degree, F2)
            db = bottleneck(d1, d2)
            assert db <= ext(delta), f"H{degree}: d_B={db} > delta={delta}"
    report(7, True,
           "10 function pairs on the 8-vertex circle: d_B <= sup distance, exact")


def test_criterion_8_minimal_presentation_uniqueness():
    rng = seeded(2024_08)
    for _ in range(20):
        p = random_presentation(rng, F3, n=2, max_gens=3, max_rels=3)
        q = rerepresent(rng, p, n_row_ops=5, add_redundant=True)
        mp, mq = p.minimize(), q.minimize()
        assert sorted(g for _, g in mp.generators) == \
            sorted(g for _, g in mq.generators), "generator multisets differ"
        assert sorted(g for _, g, _ in mp.relations) == \
            sorted(g for _, g, _ in mq.relations), "relation multisets differ"
    report(8, True,
           "20 re-presented modules: minimized grade multisets identical, exact")


def test_criterion_9_multiplicity_cross_check():
    rng = seeded(2024_09)
    for _ in range(20):
        cx = random_one_critical_complex(rng, 1, max_simplices=10)
        for degree in (0, 1):
            pres = present_homology(cx, degree, F2)
            assert barcode_1d(cx, degree, F2) == diagram_of(pres)
    report(9, True,
           "20 filtered complexes: reduction barcode == rank-formula diagram")


def test_criterion_10_hilbert_check_2d():
    t0 = time.time()
    rng = seeded(2024_10)
    for _ in range(15):
        cx = random_one_critical_complex(rng, 2, max_simplices=12)
        chain = chain_complex_of(cx, F2)
        axes = chain.axes
        for degree in (0, 1):
            pres = present_homology(cx, degree, F2)
            for z in itertools.product(*axes):
                want = chain.homology_dim_at(degree, chain.floor(z))
                got = pres.point_dim(z)
                assert want == got, f"dims differ at {z}: {got} vs {want}"
    dt = time.time() - t0
    report(10, dt < 300,
           f"15 bifiltrations: presentation dims == pointwise homology "
           f"({dt:.1f}s < 300s)")


def test_criterion_11_deterministic_approximation():
    t0 = time.time()
    w_grid = [F(k, 64) for k in range(65)]
    t_pts = [F(k, 64) for k in range(0, 65, 4)]
    eps = max(min(abs(w - t) for t in t_pts) for w in w_grid)   # exact: 1/32
    a_axis = [F(k, 16) for k in range(17)]
    b_axis = [F(k, 32) for k in range(17)]

    cloud = PointCloud([(t,) for t in t_pts])
    vals = [(t,) for t in t_pts]
    cech = cech_bifiltration(cloud, "inf", vals, 1, F(1, 2))
    sample_mod = grid_module_of(cech, [a_axis, b_axis], degree=0, field=F2)

    truth = offset_cluster_module(F2, w_grid, w_grid, a_axis, b_axis)

    rs = rank_shift_distance(sample_mod, truth)
    dt = time.time() - t0
    report(11, rs <= ext(eps) and dt < 120,
           f"65-grid vs every-4th sample: rank-shift {rs} <= eps {eps} "
           f"({dt:.1f}s < 120s)")


def test_criterion_12_inference_trend():
    t0 = time.time()
    spec = DensitySpec.parse("1/2,-1,1/4;1/2,1,1/4")
    rec = run_experiment(spec, [50, 200, 800], trials=10, seed=2024,
                         bandwidth=F(1, 5))
    meds = [rec.medians[z] for z in (50, 200, 800)]
    digest = hashlib.sha256(rec.to_json().encode()).hexdigest()
    ok = meds[0] >= meds[1] >= meds[2] and digest == CRITERION_12_SHA256
    dt = time.time() - t0
    report(12, ok and dt < 600,
           f"medians {[str(m) for m in meds]} non-increasing over sizes "
           f"50/200/800, record sha256 {digest[:16]} as pinned ({dt:.1f}s < 600s)")


def test_criterion_13_solver_soundness():
    t0 = time.time()
    import test_quadsys
    rng = random.Random(2024_13)
    for k in range(200):
        if k % 2 == 0:
            field, nvars = F2, rng.randint(1, 12)
        else:
            field, nvars = F3, rng.randint(1, 8)
        s = test_quadsys.random_system(rng, field, nvars, rng.randint(1, 6))
        from permod.quadsys import evaluate, solve_finite_field
        res = solve_finite_field(s)
        want = test_quadsys.exhaustive_solvable(s)
        assert (res.status == "solvable") == want
        if res.status == "solvable":
            assert evaluate(s, res.witness) is None
    dt = time.time() - t0
    report(13, dt < 120,
           f"200 systems vs exhaustive enumeration; witnesses valid "
           f"({dt:.1f}s < 120s)")

"""kde_evaluate in numpy blocks against the code it replaced (kept in
reference_kde.py): the Fraction-argument code, the stored-row int-ratio code
and the one-pass Python-row code.  The values must agree exactly with all
three for every dimension, kernel, coordinate denominator and bandwidth, also
where the Epanechnikov argument sits exactly on, or rounds to, 1, on the
symmetric path taken when the points evaluated at are the sample itself,
across block boundaries, and on both sides of the 2**53 switch from int64 to
Python ints.  The sample given as itself (taken as it is) and as a list of
its points (converted and compared) must give the same values."""

import math
import tracemalloc
from fractions import Fraction as F

import pytest

from permod.filtration import (KDE_BLOCK, DensitySpec, FiltrationError,
                               KdeSpec, PointCloud, kde_evaluate,
                               sample_density)

import reference_kde as ref
from conftest import seeded

KERNELS = ("gaussian", "epanechnikov")
DENOMS = (1, 3, 7, 10, 2 ** 20, 2 ** 30)


def random_cloud(rng, dim, count, denoms):
    """Points whose coordinates have denominators drawn from denoms, spread
    over about [-2, 2] so both kernels see arguments on either side of 1."""
    pts = []
    for _ in range(count):
        pt = []
        for _ in range(dim):
            d = rng.choice(denoms)
            pt.append(F(rng.randint(-2 * d, 2 * d), d))
        pts.append(pt)
    return PointCloud(pts)


def assert_same(sample, spec, at):
    got = kde_evaluate(sample, spec, at)
    assert got == ref.kde_evaluate(sample, spec, at)
    assert got == ref.int_ratio_kde_evaluate(sample, spec, at)
    assert got == ref.one_pass_kde_evaluate(sample, spec, at)
    return got


def shifted(cloud, rng, denoms):
    """Each point of the cloud moved by a small offset with a denominator
    drawn from denoms: an evaluation list that is not the sample."""
    return [tuple(c + F(rng.randint(-3, 3), rng.choice(denoms)) for c in pt)
            for pt in cloud]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_seeded_clouds(kernel, dim):
    rng = seeded(307 + dim)
    for denom in DENOMS:
        for _ in range(3):
            h = F(rng.randint(1, 9), rng.randint(1, 9))
            spec = KdeSpec(kernel, h)
            sample = random_cloud(rng, dim, rng.randint(1, 12), (denom,))
            at = random_cloud(rng, dim, 6, (denom,))
            assert_same(sample, spec, at)
            assert_same(sample, spec, sample)
    # every coordinate on its own denominator, and plain int points
    for _ in range(6):
        spec = KdeSpec(kernel, F(rng.randint(1, 30), rng.randint(1, 30)))
        sample = random_cloud(rng, dim, 10, DENOMS)
        at = random_cloud(rng, dim, 5, DENOMS)
        assert_same(sample, spec, at)
        assert_same(sample, spec, [(rng.randint(-2, 2),) * dim])


def test_sampled_density_as_in_infer():
    density = DensitySpec.parse("1/2,-1,1/4;1/2,1,1/4")
    cloud = sample_density(density, 60, 2024)
    for kernel in KERNELS:
        assert_same(cloud, KdeSpec(kernel, F(1, 5)), cloud)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("density", ["1/2,-1,1/4;1/2,1,1/4", "1/3,0,1,1/2;2/3,2,-1,3/2"])
def test_the_sample_itself_or_a_list_of_its_points(kernel, density):
    """`at` given as the sample (taken as it is) and as a list of its points
    (converted and compared) give the same bits, the references' too; an
    `at` of another dimension is still refused."""
    cloud = sample_density(DensitySpec.parse(density), 150, 7919)
    spec = KdeSpec(kernel, F(1, 5))
    assert assert_same(cloud, spec, cloud) == assert_same(cloud, spec, list(cloud))
    for other in ([(0,) * (cloud.dim + 1)], list(cloud)[:-1] + [(0,) * (cloud.dim + 1)]):
        with pytest.raises(FiltrationError, match="evaluation point dimension"):
            kde_evaluate(cloud, spec, other)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("dim", (2, 3))
def test_larger_clouds_of_mixed_denominators(kernel, dim):
    """2-D and 3-D clouds of 60-120 points, each coordinate on its own
    denominator, at the sample and at points that are not the sample."""
    rng = seeded(347 + dim)
    for _ in range(2):
        spec = KdeSpec(kernel, F(rng.randint(1, 30), rng.randint(1, 30)))
        cloud = random_cloud(rng, dim, rng.randint(60, 120), DENOMS)
        assert_same(cloud, spec, cloud)
        assert_same(cloud, spec, shifted(cloud, rng, DENOMS))


@pytest.fixture
def exp_calls(monkeypatch):
    """The number of math.exp calls made so far (each Gaussian kernel term
    is one)."""
    calls = [0]
    exp = math.exp

    def counted(x):
        calls[0] += 1
        return exp(x)

    monkeypatch.setattr(math, "exp", counted)
    return calls


def gaussian_terms(exp_calls, sample, spec, at):
    """kde_evaluate's value and its number of kernel evaluations."""
    before = exp_calls[0]
    got = kde_evaluate(sample, spec, at)
    return got, exp_calls[0] - before


@pytest.mark.parametrize("dim", (1, 2))
def test_symmetric_evaluation(dim, exp_calls):
    """At the sample itself each unordered pair is evaluated once, also when
    points repeat and when `at` is an equal but separate list; the values
    stay those of the reference, which sums every term in order."""
    rng = seeded(331 + dim)
    spec = KdeSpec("gaussian", F(rng.randint(1, 9), rng.randint(1, 9)))
    for z in (1, 2, 7, 19):
        pts = [p for p in random_cloud(rng, dim, z, (1, 3, 2 ** 20))]
        pts[rng.randrange(z)] = pts[0]          # a repeated point (or none)
        cloud = PointCloud(pts + pts[:z // 3])
        n = len(cloud)
        want = ref.kde_evaluate(cloud, spec, cloud)
        for at in (cloud, list(cloud), [[str(c) for c in pt] for pt in cloud]):
            got, terms = gaussian_terms(exp_calls, cloud, spec, at)
            assert got == want
            assert terms == n * (n + 1) // 2
        # any other list of points takes every pair
        other = [tuple(c + F(1, 2) for c in pt) for pt in cloud]
        got, terms = gaussian_terms(exp_calls, cloud, spec, other)
        assert got == ref.kde_evaluate(cloud, spec, other)
        assert terms == n * n


def test_largest_infer_sample(exp_calls):
    """The 400-point sample of the largest infer size, on both kernels: at
    the sample itself, with one Gaussian term per unordered pair, and at 120
    other points."""
    rng = seeded(337)
    density = DensitySpec.parse("1/2,-1,1/4;1/2,1,1/4")
    cloud = sample_density(density, 400, 2025)
    assert len(cloud) == 400
    other = shifted(list(cloud)[:120], rng, (5, 2 ** 20))
    for kernel in KERNELS:
        spec = KdeSpec(kernel, F(1, 5))
        got, terms = gaussian_terms(exp_calls, cloud, spec, cloud)
        assert terms == (400 * 401 // 2 if kernel == "gaussian" else 0)
        assert got == ref.kde_evaluate(cloud, spec, cloud)
        assert got == ref.int_ratio_kde_evaluate(cloud, spec, cloud)
        assert_same(cloud, spec, other)


def test_symmetric_sum_keeps_the_order():
    """Terms of very different size, where a compensated or reordered sum
    would round differently: the values equal the sequential reference."""
    pts = [(F(0),), (F(1, 1000),), (F(7),), (F(-5),), (F(1, 3),), (F(6),)]
    cloud = PointCloud(pts * 3)
    for kernel in KERNELS:
        spec = KdeSpec(kernel, F(1, 7))
        assert kde_evaluate(cloud, spec, cloud) == ref.kde_evaluate(cloud, spec, cloud)


@pytest.mark.parametrize("dim", (1, 2))
def test_sum_order_shows_at_a_fine_bandwidth(dim):
    """Points 2**-31 apart and h = 3 / 2**30: the estimates are 2**26 and
    more, so rounding them to 2**-30 keeps every bit of the double sum, and
    a sum in another order shows in the values (a reversed row sum does,
    where the coarser clouds above round it away)."""
    rng = seeded(353 + dim)
    pts = [tuple(F(rng.randint(-6, 6), 2 ** 31) for _ in range(dim))
           for _ in range(24)]
    cloud = PointCloud(pts)
    other = [tuple(c + F(1, 2 ** 32) for c in pt) for pt in pts]
    for kernel in KERNELS:
        spec = KdeSpec(kernel, F(3, 2 ** 30))
        assert min(assert_same(cloud, spec, cloud)) > 2 ** 26
        assert_same(cloud, spec, other)


def test_single_point_sample():
    cloud = PointCloud([(F(2, 3), F(-1))])
    for kernel in KERNELS:
        spec = KdeSpec(kernel, F(1, 2))
        assert assert_same(cloud, spec, cloud) == assert_same(cloud, spec, [(F(2, 3), -1)])


def test_epanechnikov_argument_at_one():
    c1 = 3 / 4                       # (m + 2) / (2 * vol) for m = 1
    h = F(3, 7)
    s = F(1, 10)
    spec = KdeSpec("epanechnikov", h)
    # q = 1 exactly: the pair contributes c * (1 - 1) = 0
    got = assert_same(PointCloud([(s,)]), spec, [(s + h,), (s - h,), (s,)])
    assert got[:2] == [0, 0]
    assert got[2] == F(round(c1 / float(h) * 2 ** 30), 2 ** 30)
    # q = 3^2/5^2 + 4^2/5^2 = 1 in two dimensions
    spec2 = KdeSpec("epanechnikov", F(5, 3))
    assert assert_same(PointCloud([(0, 0)]), spec2, [(1, F(4, 3))]) == [0]
    # q = 1 + 2^-62 rounds to 1.0; q = (1 - 2^-12)^2 stays below it
    one = KdeSpec("epanechnikov", F(1))
    origin = PointCloud([(0, 0)])
    assert assert_same(origin, one, [(1, F(1, 2 ** 31))]) == [0]
    assert assert_same(origin, one, [(1 - F(1, 2 ** 12), 0)])[0] > 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_clouds_at_a_block_boundary(kernel):
    """A block holds KDE_BLOCK // w rows of w terms.  On the symmetric path
    a cloud of isqrt(KDE_BLOCK) points fills one block exactly, one point
    fewer fits in one block and one more needs a second; with `at` not the
    sample, `at` has one row fewer than a block, a block's rows exactly, one
    row more, and two blocks and one row more."""
    rng = seeded(359)
    spec = KdeSpec(kernel, F(1, 3))
    side = math.isqrt(KDE_BLOCK)
    for z in (side - 1, side, side + 1):
        cloud = random_cloud(rng, 1, z, (1, 7, 2 ** 20))
        assert_same(cloud, spec, cloud)
    cloud = random_cloud(rng, 2, 100, (1, 7, 2 ** 20))
    rows = KDE_BLOCK // len(cloud)
    for count in (rows - 1, rows, rows + 1, 2 * rows + 1):
        assert_same(cloud, spec, random_cloud(rng, 2, count, (1, 3, 2 ** 20)))


def box_cloud(corner, denom, parts):
    """Integer points between 0 and `corner` in each coordinate, divided by
    denom: the k-th parts of the way to the corner for k = 0, ..., parts,
    and (1, 0, ...), so the lcm of the denominators is denom, and the
    largest num = |X - S|^2 is |corner|^2, from 0 to the corner."""
    pts = [tuple(c * k // parts for c in corner) for k in range(parts + 1)]
    pts.append((1,) + (0,) * (len(corner) - 1))
    return [tuple(F(c, denom) for c in pt) for pt in pts]


# |corner|^2 = 2**53 - 1 (four squares: 2**53 - 1 is 7 mod 8), 2**53, and
# far past the int64 range
CORNERS = ((94906265, 10885, 71, 50), (2 ** 26, 2 ** 26, 0, 0), (2 ** 41, 3, 0, 1))


@pytest.mark.parametrize("kernel", KERNELS)
def test_int64_switch_at_2_53(kernel):
    """With h = 1 and coordinates on denominator D, den = D**2.  The largest
    num at 2**53 - 1 (int64), 2**53 and past 2**63 (Python ints), with
    2 den = 2**51; and 2 den = 2 (2**26 - 1)**2 just below 2**53 against
    2 den = 2**53, with small nums.  At the sample and at other points of
    the same box, the origin and the corner among them."""
    spec = KdeSpec(kernel, F(1))
    assert sum(c * c for c in CORNERS[0]) == 2 ** 53 - 1
    assert sum(c * c for c in CORNERS[1]) == 2 ** 53
    cases = [*zip(CORNERS, (2 ** 25, 2 ** 25, 2 ** 40)),
             ((2 ** 24, 3 * 2 ** 22), 2 ** 26 - 1), ((2 ** 24, 3 * 2 ** 22), 2 ** 26)]
    for corner, denom in cases:
        cloud = PointCloud(box_cloud(corner, denom, 8))
        assert_same(cloud, spec, cloud)
        assert_same(cloud, spec, box_cloud(corner, denom, 5))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("dim", (1, 2))
def test_extreme_bandwidths(kernel, dim):
    """h = 10**k for k from -400 to 400: an answer, or a FiltrationError
    that names h, never an OverflowError or ZeroDivisionError.  Where the
    one-pass reference answers, the values are its values; where its int
    division overflows, every pair of these distinct points has q >= 1500,
    so the kernel is 0.0 there and each estimate is its own term alone."""
    rng = seeded(367 + dim)
    pts = {tuple(F(rng.randint(-40, 40), rng.choice((1, 3, 7))) for _ in range(dim))
           for _ in range(6)}
    cloud = PointCloud(sorted(pts))
    z = len(cloud)
    at_zero = ((2 * math.pi) ** (-dim / 2) if kernel == "gaussian"
               else (dim + 2) / (2 * math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)))
    answered = []
    for k in range(-400, 401, 50):
        h = F(10) ** k
        spec = KdeSpec(kernel, h)
        try:
            got = kde_evaluate(cloud, spec, cloud)
        except FiltrationError as e:
            assert str(h) in str(e)
            continue
        answered.append(k)
        try:
            want = ref.one_pass_kde_evaluate(cloud, spec, cloud)
        except OverflowError:
            own = F(round(at_zero / (z * float(h) ** dim) * 2 ** 30), 2 ** 30)
            want = [own] * z
        assert got == want
    # beyond these, z * h**dim or an estimate leaves the double range
    assert answered == list(range(-300 // dim, 300 // dim + 1, 50))


def test_memory_stays_one_block():
    """A 2,000-point sample at itself: the pairs are taken a block at a
    time, so tracemalloc's peak stays at the running sums and the point
    lists (whole-matrix arrays would take more than 30 MiB)."""
    density = DensitySpec.parse("1/2,-1,1/4;1/2,1,1/4")
    cloud = sample_density(density, 2000, 2026)
    spec = KdeSpec("gaussian", F(1, 5))
    tracemalloc.start()
    try:
        kde_evaluate(cloud, spec, cloud)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20

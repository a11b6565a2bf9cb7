"""Reference copies of ``permod.filtration.kde_evaluate``, kept as they
were, as oracles: the rewritten code must return the same values exactly.

``kde_evaluate`` is the code from before the kernel argument became an
integer ratio: q is summed as a Fraction and the kernels take float(q).
``int_ratio_kde_evaluate`` is the code from before the one-pass rows: the
argument is the int ratio num / den with num = hd2 |X|^2 + hd2 |S|^2 - 2 hd2
X.S per pair, the Gaussian takes -(num / den) / 2, and on the symmetric path
every row is stored and its terms read back for the later points.
``one_pass_kde_evaluate`` is the code from before the numpy blocks: the
argument is the int ratio num / den with num = |X - S|^2 on coordinates
scaled once, the Gaussian takes num / (-2 den), each row is one Python list
and its terms go into running sums, one per later point, on the symmetric
path.
``sample_density`` is the sampler from before the one-bisect loop: each
point scans the cumulative float weights for the first one above u (the
last component taking the rest) and draws ``rng.normal(size=dim)``.
"""

import array
import functools
import itertools
import math
import operator
from fractions import Fraction

from permod.exactnum import common_denominator, scaled_int
from permod.filtration import (COORD_DENOM, SEED_LIMIT, FiltrationError,
                               KERNEL_DENOM, PointCloud)


def _unit_ball_volume(m):
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


def kde_evaluate(sample, spec, at):
    """Kernel density estimate of the sample evaluated at each point of
    `at`.  The squared argument is computed exactly; the kernel value is a
    libm double rounded to 2**-30 and recorded as approximate."""
    if not len(sample):
        raise FiltrationError("empty sample")
    z = len(sample)
    m = sample.dim
    h = spec.bandwidth
    hf = float(h)
    if spec.kernel == "gaussian":
        norm = (2 * math.pi) ** (-m / 2)

        def kern(q):
            return norm * math.exp(-float(q) / 2)
    else:
        c = (m + 2) / (2 * _unit_ball_volume(m))

        def kern(q):
            qf = float(q)
            return c * (1 - qf) if qf <= 1 else 0.0

    out = []
    denom = z * hf ** m
    for x in at:
        acc = 0.0
        for s in sample:
            q = sum(((a - b) / h) ** 2 for a, b in zip(x, s))
            acc += kern(q)
        out.append(Fraction(round(acc / denom * KERNEL_DENOM), KERNEL_DENOM))
    return out


def int_ratio_kde_evaluate(sample, spec, at):
    """Kernel density estimate of the sample evaluated at each point of
    `at`.  The kernel argument q = |x - s|^2 / h^2 is an exact integer
    ratio: with every coordinate scaled by the lcm D of their denominators,
    q = num / den for num = |X - S|^2 * h.denominator^2 (|X - S|^2 taken as
    |X|^2 + |S|^2 - 2 X.S) and den = (D * h.numerator)^2, and the int true
    division num / den is the correctly rounded float(q).  Only exp and the
    summation are floating point; each value is a libm double rounded to
    2**-30 and recorded as approximate.  Each value sums its kernel terms
    one by one in sample order.  When `at` is the sample itself, num is the
    same int for (i, j) and (j, i), so each unordered pair is evaluated once
    and its kernel value read again for the other row."""
    if not len(sample):
        raise FiltrationError("empty sample")
    z = len(sample)
    m = sample.dim
    h = spec.bandwidth
    at = [tuple(map(Fraction, x)) for x in at]
    if any(len(x) != m for x in at):
        raise FiltrationError("evaluation point dimension != sample dimension")
    symmetric = at == list(sample)
    scale = common_denominator(c for pts in (sample, at) for pt in pts for c in pt)
    den = (scale * h.numerator) ** 2
    hd2 = h.denominator ** 2
    if spec.kernel == "gaussian":
        norm = (2 * math.pi) ** (-m / 2)
        exp = math.exp

        def kernels(nums):
            return [norm * exp(-(num / den) / 2) for num in nums]
    else:
        c = (m + 2) / (2 * _unit_ball_volume(m))

        def kernels(nums):
            return [c * (1 - num / den) if num <= den else 0.0 for num in nums]

    def scaled(pts):
        return [tuple(scaled_int(c, scale) for c in pt) for pt in pts]

    denom = z * float(h) ** m
    sample_int = scaled(sample)
    sample_sq = [hd2 * sum(map(operator.mul, s, s)) for s in sample_int]
    coords = list(zip(*sample_int))
    out, rows = [], []      # symmetric: row i's terms at sample points i, i+1, ...
    for i, x in enumerate(scaled(at)):
        lo = i if symmetric else 0
        # num = hd2 |X|^2 + hd2 |S|^2 - sum over d of (2 hd2 X_d) S_d
        x_sq = hd2 * sum(map(operator.mul, x, x))
        nums = [x_sq + s_sq for s_sq in sample_sq[lo:]]
        for xd, sd in zip(x, coords):
            xd *= 2 * hd2
            nums = [num - xd * s for num, s in zip(nums, sd[lo:])]
        row = kernels(nums)
        # the terms at sample points j < i are row j's terms at point i; the
        # sum runs in sample order (reduce(add): builtin sum may compensate)
        head = map(operator.getitem, rows, range(i, 0, -1))
        acc = functools.reduce(operator.add, itertools.chain(head, row), 0.0)
        if symmetric:
            rows.append(array.array("d", row))
        out.append(Fraction(round(acc / denom * KERNEL_DENOM), KERNEL_DENOM))
    return out


def one_pass_kde_evaluate(sample, spec, at):
    """Kernel density estimate of the sample evaluated at each point of
    `at`.  The kernel argument q = |x - s|^2 / h^2 is an exact integer
    ratio: with every coordinate scaled once by D * h.denominator, for D the
    lcm of their denominators, q = num / den for num = |X - S|^2 and
    den = (D * h.numerator)^2, and the int true division is the correctly
    rounded float(q).  The Gaussian takes num / (-2 den), which is exactly
    -(num / den) / 2 (halving a double is exact; a quotient too small for
    that to hold has exp 1.0 either way), and Epanechnikov compares the
    ints num <= den.  So each pair costs one subtraction and one square per
    coordinate, one division, one exp and one multiplication.  Only exp and
    the summation are floating point; each value is a libm double rounded
    to 2**-30 and recorded as approximate.  Each value sums its kernel terms
    one by one in sample order, from 0.0.  When `at` is the sample itself,
    num is the same int for (i, j) and (j, i), so each unordered pair is
    evaluated once: row i holds the terms at points i, i+1, ..., and no row
    is stored; running sums, one per later point, hold the terms of the
    rows before."""
    if not len(sample):
        raise FiltrationError("empty sample")
    z = len(sample)
    m = sample.dim
    h = spec.bandwidth
    at = [tuple(map(Fraction, x)) for x in at]
    if any(len(x) != m for x in at):
        raise FiltrationError("evaluation point dimension != sample dimension")
    symmetric = at == list(sample)
    scale = common_denominator(c for pts in (sample, at) for pt in pts for c in pt)
    den = (scale * h.numerator) ** 2
    scale *= h.denominator
    if spec.kernel == "gaussian":
        norm = (2 * math.pi) ** (-m / 2)
        exp = math.exp
        neg_2den = -2 * den

        def kernels(nums):
            return [norm * exp(num / neg_2den) for num in nums]
    else:
        c = (m + 2) / (2 * _unit_ball_volume(m))

        def kernels(nums):
            return [c * (1 - num / den) if num <= den else 0.0 for num in nums]

    def scaled(pts):
        return [tuple(scaled_int(c, scale) for c in pt) for pt in pts]

    add = operator.add

    def add_lists(a, b):
        return list(map(add, a, b))

    denom = z * float(h) ** m
    sample_int = scaled(sample)
    coords = list(zip(*sample_int))
    out = []
    # symmetric: at row i, acc[j] sums the terms at point i + j of rows < i
    acc = [0.0] * z
    for i, x in enumerate(sample_int if symmetric else scaled(at)):
        lo = i if symmetric else 0
        # num = |X - S|^2, one list of squared differences per coordinate
        nums = functools.reduce(add_lists, ([(xd - s) ** 2 for s in sd[lo:]]
                                            for xd, sd in zip(x, coords)))
        row = kernels(nums)
        # the sum runs in sample order (reduce(add): builtin sum may compensate)
        total = functools.reduce(add, row, acc[0])
        if symmetric:
            acc = list(map(add, acc[1:], row[1:]))
        out.append(Fraction(round(total / denom * KERNEL_DENOM), KERNEL_DENOM))
    return out


def sample_density(spec, count, seed):
    """Deterministic i.i.d.-style sample via numpy's Philox counter-based
    generator; coordinates rounded to denominator 2**20.  The seed is the
    Philox key, an int in [0, 2**128)."""
    import numpy as np
    if count < 0:
        raise FiltrationError("count must be >= 0")
    seed = int(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise FiltrationError(f"seed {seed} is outside the Philox key range "
                              f"[0, 2**128)")
    rng = np.random.Generator(np.random.Philox(key=seed))
    cum = []
    acc = Fraction(0)
    for w, _, _ in spec.components:
        acc += w
        cum.append(float(acc))
    comps = [(tuple(map(float, center)), float(sigma)) for _, center, sigma in spec.components]
    pts = []
    for _ in range(count):
        u = rng.random()
        idx = next(i for i, c in enumerate(cum) if u < c or i == len(cum) - 1)
        center, sigma = comps[idx]
        raw = rng.normal(size=spec.dim)
        pts.append([Fraction(round((c + sigma * z) * COORD_DENOM), COORD_DENOM)
                    for c, z in zip(center, raw)])
    return PointCloud(pts)

"""Reference copies of ``permod.filtration.kde_evaluate``, kept as they
were, as oracles: the rewritten code must return the same values exactly.

``kde_evaluate`` is the code from before the kernel argument became an
integer ratio: q is summed as a Fraction and the kernels take float(q).
``int_ratio_kde_evaluate`` is the code from before the one-pass rows: the
argument is the int ratio num / den with num = hd2 |X|^2 + hd2 |S|^2 - 2 hd2
X.S per pair, the Gaussian takes -(num / den) / 2, and on the symmetric path
every row is stored and its terms read back for the later points.
"""

import array
import functools
import itertools
import math
import operator
from fractions import Fraction

from permod.exactnum import common_denominator, scaled_int
from permod.filtration import FiltrationError, KERNEL_DENOM


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

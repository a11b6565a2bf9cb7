"""Reference copy of ``permod.filtration.kde_evaluate`` as it was before the
kernel argument became an integer ratio: q is summed as a Fraction and the
kernels take float(q).  Kept as it was, as an oracle: the rewritten code must
return the same values exactly.
"""

import math
from fractions import Fraction

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

"""Point clouds, L^p metrics, Rips/Cech bifiltrations, function-aware
distances, density sampling and kernel density estimation.

All coordinates are rational.  L2 scale values (half-diameters, smallest
enclosing ball radii) are square roots of rationals, kept exactly as
`exactnum.Scale` values whose squares decide every comparison.

A complex ranks its grades once, when it is built (`exactnum.grade_ranks`);
its face check and sort, the fixed-scale slice, chain complexes and
barcodes compare those int indices, never the values.

One builder makes both sublevelset bifiltrations: it keeps the edges within
the scale cap as per-vertex int bitsets of upper neighbours and grows each
simplex from its prefix by the prefix's common upper neighbours.  Its pair
pass compares int lengths (L1, Linf) or squared lengths (L2) of the
coordinates scaled to ints with the int cap, and a clique takes the
largest int key of its edges (a Cech simplex of three or more vertices its
enclosing ball's, in the same units); one scale value is made per distinct
key.  A Cech radius is half the length on an edge and grows with the vertex
set, so the Cech candidates are the cliques of the capped edges too.
"""

import bisect
import itertools
import math
import operator
from fractions import Fraction

from .exactnum import (QQ, Scale, as_fraction, common_denominator,
                       format_rational, grade_ranks, least_feasible,
                       parse_rational, scale_of_square, scale_square,
                       scaled_int, text_lines)
from .linalg import rank as _mat_rank  # noqa: F401 (perfbench traces it)
from .linalg import solve as _mat_solve


class FiltrationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Point clouds and metrics
# ---------------------------------------------------------------------------

class PointCloud:
    """Finite list of points with rational coordinates; a multiset (sampling
    keeps duplicates; filtration builders deduplicate)."""

    def __init__(self, points):
        self.points = [tuple(map(as_fraction, pt)) for pt in points]
        dims = {len(pt) for pt in self.points}
        if len(dims) > 1:
            raise FiltrationError("points of mixed dimension")
        self.dim = dims.pop() if dims else 0

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def to_csv(self):
        return "".join(",".join(format_rational(x) for x in pt) + "\n"
                       for pt in self.points)


def parse_points_csv(text):
    return PointCloud([[parse_rational(tok) for tok in ln.split(",")] for ln in text_lines(text)])


def parse_values_csv(text, n=None):
    rows = []
    for ln in text_lines(text):
        row = tuple(parse_rational(tok) for tok in ln.split(","))
        if n is not None and len(row) != n:
            raise FiltrationError(f"expected {n} columns, got {len(row)}")
        if rows and len(row) != len(rows[0]):
            raise FiltrationError("ragged function value rows")
        rows.append(row)
    return rows


METRICS = (1, 2, "inf")


def dist_squared_l2(x, y):
    return sum((a - b) ** 2 for a, b in zip(x, y))


def distance(x, y, p):
    """Exact distance: Fraction for p in {1, inf}; Fraction-or-Scale for p=2."""
    if p == 1:
        return sum(abs(a - b) for a, b in zip(x, y))
    if p == "inf":
        return max((abs(a - b) for a, b in zip(x, y)), default=0)
    if p == 2:
        return scale_of_square(dist_squared_l2(x, y))
    raise FiltrationError(f"unsupported metric p={p}")


# ---------------------------------------------------------------------------
# Smallest enclosing balls
# ---------------------------------------------------------------------------

def _circumsphere_sq(points):
    """Center and squared radius of a sphere through all of `points` with
    center in their affine hull, by one solve (the smallest one if they are
    affinely independent); rational throughout, None if there is none."""
    base = points[0]
    u = [[x - b for x, b in zip(pt, base)] for pt in points[1:]]
    if not u:
        return base, Fraction(0)
    k = len(u)
    gram = [[sum(ui * vi for ui, vi in zip(u[i], u[j])) for j in range(k)]
            for i in range(k)]
    rhs = [Fraction(sum(x * x for x in u[i]), 2) for i in range(k)]
    lam = _mat_solve(QQ, gram, rhs)
    if lam is None:
        return None
    center = [b + sum(lam[i] * u[i][d] for i in range(k))
              for d, b in enumerate(base)]
    rsq = dist_squared_l2(center, points[0])
    return center, rsq


def min_enclosing_ball_sq_l2(points):
    """Squared radius of the L2 smallest enclosing ball, exactly.

    Enumerates every support set of 2 to m+1 distinct points (m the
    dimension), solves each one's circumsphere exactly over Q, and keeps
    the least squared radius whose ball holds all the points."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    pts = list(dict.fromkeys(pts))
    if not pts:
        raise FiltrationError("enclosing ball of nothing")
    if len(pts) == 1:
        return Fraction(0)
    m = len(pts[0])
    best = None
    for size in range(2, min(len(pts), m + 1) + 1):
        for support in itertools.combinations(pts, size):
            got = _circumsphere_sq(list(support))
            if got is None:
                continue
            center, rsq = got
            if all(dist_squared_l2(center, q) <= rsq for q in pts):
                if best is None or rsq < best:
                    best = rsq
    if best is None:
        raise AssertionError("no enclosing ball found; degenerate input")
    return best


def min_enclosing_radius(points, p):
    """Smallest enclosing ball radius for p in {2, 'inf'} (exact)."""
    pts = list(points)
    if p == "inf":
        m = len(pts[0])
        return max((max(q[d] for q in pts) - min(q[d] for q in pts)) / 2
                   for d in range(m)) if pts else Fraction(0)
    if p == 2:
        return scale_of_square(min_enclosing_ball_sq_l2(pts))
    raise FiltrationError(f"Cech is unsupported for p={p}")


# ---------------------------------------------------------------------------
# Bifiltered complexes
# ---------------------------------------------------------------------------

class BifilteredComplex:
    """One-critical multifiltered simplicial complex: each simplex appears at
    a single minimal grade, faces no later than cofaces.  `axes[a]` holds the
    sorted distinct values of grade coordinate a, and `grade_index[i]` the
    grade of `simplices[i]` as an int tuple of positions on them; the face
    check, the sort (by dimension, grade and vertices) and every consumer
    compare those ints.  The builders and `fixed_scale_slice` rank their
    own grades and store them by `from_ranks`, with no second ranking or
    face check (a tier-1 oracle checks them against this constructor)."""

    def __init__(self, nparams, simplices):
        nparams = int(nparams)
        grade_of = {}
        for verts, grade in simplices:
            verts = tuple(sorted(verts))
            if verts in grade_of:
                raise FiltrationError(f"duplicate simplex {verts}")
            if len(grade) != nparams:
                raise FiltrationError("grade length mismatch")
            grade_of[verts] = tuple(grade)
        axes, ranks = grade_ranks(list(grade_of.values()), nparams)
        index = dict(zip(grade_of, ranks))
        for verts, key in index.items():
            if len(verts) > 1:
                for face in itertools.combinations(verts, len(verts) - 1):
                    if face not in index:
                        raise FiltrationError(f"missing face {face} of {verts}")
                    if not all(map(operator.le, index[face], key)):
                        raise FiltrationError(f"face {face} appears after {verts}")
        self._keep(nparams, axes, list(zip(grade_of, grade_of.values(), ranks)))

    @classmethod
    def from_ranks(cls, nparams, axes, ranked):
        """The complex of (sorted vertices, grade, grade index) triples on
        axes, trusted to be one-critical, stored without a check."""
        out = cls.__new__(cls)
        out._keep(nparams, axes, ranked)
        return out

    def _keep(self, nparams, axes, ranked):
        """Store checked (vertices, grade, grade index) triples, sorted."""
        ranked.sort(key=lambda s: (len(s[0]), s[2], s[0]))
        self.nparams, self.axes = nparams, axes
        self.simplices = [(verts, grade) for verts, grade, _ in ranked]
        self.grade_index = [key for _, _, key in ranked]
        self.chains = {}        # field spec -> homology.chain_complex_of

    def rational_axes(self):
        """`axes` as lists of Fractions; raises on the first simplex, in
        order, with an irrational grade coordinate."""
        for verts, grade in self.simplices:
            for x in grade:
                if type(x) is not Fraction and isinstance(x, Scale):
                    raise FiltrationError(
                        f"irrational grade coordinate {x!r} on {verts}; "
                        "downstream algebra requires rational grades")
        return [list(map(as_fraction, ax)) for ax in self.axes]

    def to_text(self):
        lines = []
        for verts, grade in self.simplices:
            gtxt = " ".join(repr(x) if isinstance(x, Scale) else format_rational(x)
                            for x in grade)
            lines.append(",".join(str(v) for v in verts) + " : " + gtxt)
        return "\n".join(lines) + ("\n" if lines else "")


def parse_complex(text):
    simplices = []
    nparams = None
    for ln in text_lines(text):
        head, _, tail = ln.partition(":")
        verts = tuple(int(v) for v in head.strip().split(","))
        toks = tail.split()
        if not toks:
            raise FiltrationError(f"simplex {head.strip()} has no grade")
        grade = []
        for tok in toks:
            if tok.startswith("sqrt(") and tok.endswith(")"):
                grade.append(scale_of_square(parse_rational(tok[5:-1])))
            else:
                grade.append(parse_rational(tok))
        if nparams is None:
            nparams = len(grade)
        simplices.append((verts, tuple(grade)))
    return BifilteredComplex(nparams if nparams is not None else 1, simplices)


def _sublevel_bifiltration(cloud, p, values, max_dim, scale_cap, cech):
    """Sublevelset-Rips (cech False) or -Cech up to max_dim and the scale cap.
    Each simplex grows from its prefix (all but its last vertex) and extends
    the prefix's function ranks and, for Rips, the prefix's scale key.  The
    complex is stored from those ranks: the function's by `grade_ranks` of
    the vertex values, the scale's by the sorted distinct keys."""
    if len(values) != len(cloud):
        raise FiltrationError("function rows do not match points")
    if p not in METRICS:
        raise FiltrationError(f"unsupported metric p={p}")
    first = {}
    for pt, val in zip(cloud.points, [tuple(map(Fraction, v)) for v in values]):
        if first.setdefault(pt, val) != val:
            raise FiltrationError(f"duplicate point {pt} with conflicting values")
    pts, vals = list(first), list(first.values())
    scale_cap = Fraction(scale_cap)
    if scale_cap < 0:
        raise FiltrationError("scale cap must be >= 0")
    if max_dim < 0:
        raise FiltrationError("max dim must be >= 0")
    den = common_denominator([scale_cap, *(x for pt in pts for x in pt)])
    ipts = [[scaled_int(x, den) for x in pt] for pt in pts]
    power = 2 if p == 2 else 1
    reach, per = (2 * scaled_int(scale_cap, den)) ** power, (2 * den) ** power
    # scale s has the key s * per (L1, Linf) or s**2 * per (L2): near[v][w]
    # holds the int length (squared for L2) of each edge v < w within reach
    near = [{} for _ in pts]
    up = [0] * len(pts)
    for i, u in enumerate(ipts):
        for j in range(i + 1, len(ipts)):
            key = dist_squared_l2(u, ipts[j]) if p == 2 else distance(u, ipts[j], p)
            if key <= reach:
                near[i][j] = key
                up[i] |= 1 << j
    if any(len(val) != len(vals[0]) for val in vals):
        raise FiltrationError("grade length mismatch")
    faxes, franks = grade_ranks(vals, len(vals[0])) if vals else ([], [])
    built = []      # (vertices, function ranks, scale key)
    # (vertices, function ranks, scale key, common upper neighbours)
    stack = [((i,), rank, 0, up[i]) for i, rank in enumerate(franks)]
    while stack:
        verts, fgrade, pkey, common = stack.pop()
        built.append((verts, fgrade, pkey))
        while common and len(verts) <= max_dim:
            low = common & -common
            common ^= low       # the bits left are those above w
            w = low.bit_length() - 1
            new = verts + (w,)
            if cech and len(new) > 2:   # the ball's key: a Fraction for L2
                ball = [ipts[v] for v in new]
                key = 4 * min_enclosing_ball_sq_l2(ball) if p == 2 else \
                    max(max(xs) - min(xs) for xs in zip(*ball))
                if key > reach:
                    continue
            else:
                key = max(pkey, *(near[v][w] for v in verts))
            stack.append((new, tuple(map(max, fgrade, franks[w])), key, common & up[w]))
    rank = {key: k for k, key in enumerate(sorted({key for _, _, key in built}))}
    scales = [scale_of_square(Fraction(key, per)) if p == 2 else Fraction(key, per)
              for key in rank]
    shown = {fgrade: tuple(map(list.__getitem__, faxes, fgrade))
             for fgrade in set(map(operator.itemgetter(1), built))}
    return BifilteredComplex.from_ranks(
        len(faxes) + 1, faxes + [scales],
        [(verts, shown[fgrade] + (scales[rank[key]],), fgrade + (rank[key],))
         for verts, fgrade, key in built])


def rips_bifiltration(cloud, p, values, max_dim, scale_cap):
    """Sublevelset-Rips: a simplex appears at (componentwise max of the
    function over its vertices, half its diameter); clique completion up to
    max_dim, scale coordinate capped."""
    return _sublevel_bifiltration(cloud, p, values, max_dim, scale_cap, False)


def cech_bifiltration(cloud, p, values, max_dim, scale_cap):
    """Sublevelset-Cech: scale coordinate is the smallest enclosing ball
    radius of the vertex set (ambient R^m).  p=2 exact via rational squared
    radii; p=inf exact via half extents; p=1 unsupported."""
    if p == 1:
        raise FiltrationError("Cech with the L1 metric is not supported")
    return _sublevel_bifiltration(cloud, p, values, max_dim, scale_cap, True)


def fixed_scale_slice(complex_, delta):
    """Keep simplices with scale <= delta and drop the scale axis: an int
    comparison per simplex, then the kept indices ranked again, so the
    slice's axes hold exactly the values of the grades it keeps."""
    delta = Fraction(delta)
    if delta < 0:
        raise FiltrationError("delta must be >= 0")
    top = bisect.bisect_right(list(map(scale_square, complex_.axes[-1])), delta * delta)
    kept = [(verts, grade[:-1], key[:-1]) for (verts, grade), key
            in zip(complex_.simplices, complex_.grade_index) if key[-1] < top]
    used, ranks = grade_ranks([key for _, _, key in kept], complex_.nparams - 1)
    return BifilteredComplex.from_ranks(
        complex_.nparams - 1, [[axis[k] for k in ks] for axis, ks in zip(complex_.axes, used)],
        [(verts, grade, key) for (verts, grade, _), key in zip(kept, ranks)])


# ---------------------------------------------------------------------------
# Function-aware metrics
# ---------------------------------------------------------------------------

def _row_gap(a, b):
    """The sup-norm gap of two function rows, which must be equally wide."""
    if len(a) != len(b):
        raise FiltrationError(f"function rows of widths {len(a)} and {len(b)}")
    return max((abs(Fraction(x) - Fraction(y)) for x, y in zip(a, b)), default=Fraction(0))


def sup_function_distance(f1, f2):
    if len(f1) != len(f2):
        raise FiltrationError("misaligned function values")
    return max(map(_row_gap, f1, f2), default=Fraction(0))


def function_aware_hausdorff(x1, f1, x2, f2, p):
    """Hausdorff distance where a candidate pairing additionally pays the
    sup-norm gap of the function values.  Exact; the optimum is a Fraction
    for p in {1, inf} and may be a Scale for p=2."""
    if not len(x1) or not len(x2):
        raise FiltrationError("empty point set")
    if (len(f1), len(f2)) != (len(x1), len(x2)):
        raise FiltrationError("function rows do not match points")

    def directed(xa, fa, xb, fb):
        worst = Fraction(0)
        for pt, val in zip(xa.points, fa):
            best = None
            for qt, wal in zip(xb.points, fb):
                c = _row_gap(val, wal)
                d = distance(pt, qt, p)
                cand = d if scale_square(d) >= scale_square(c) else c
                if best is None or scale_square(cand) < scale_square(best):
                    best = cand
            if scale_square(best) > scale_square(worst):
                worst = best
        return worst

    a = directed(x1, f1, x2, f2)
    b = directed(x2, f2, x1, f1)
    return a if scale_square(a) >= scale_square(b) else b


def gromov_function_distance(x1, d1, f1, x2, d2, f2, max_points=5):
    """Exact min over correspondences of max(half metric distortion, function
    gap).  The optimum is attained at a candidate threshold (a half
    distortion or a function gap); feasibility at a threshold is decided by
    backtracking over compatible pair sets, which agrees with full
    enumeration on oracle-scale inputs."""
    n1, n2 = len(x1), len(x2)
    if n1 > max_points or n2 > max_points:
        raise FiltrationError(f"size guard: > {max_points} points")
    if not n1 or not n2:
        raise FiltrationError("empty point set")
    if (len(f1), len(f2)) != (n1, n2):
        raise FiltrationError("function rows do not match points")
    try:
        d1 = [[Fraction(x) for x in row] for row in d1]
        d2 = [[Fraction(x) for x in row] for row in d2]
    except TypeError as exc:
        raise FiltrationError("distance matrices must be rational") from exc
    if list(map(len, d1)) != [n1] * n1 or list(map(len, d2)) != [n2] * n2:
        raise FiltrationError("distance matrices do not match points")

    pairs = list(itertools.product(range(n1), range(n2)))
    gap = {(i, j): _row_gap(f1[i], f2[j]) for i, j in pairs}

    def half_dist(a, b):
        return abs(d1[a[0]][b[0]] - d2[a[1]][b[1]]) / 2

    cands = {Fraction(0), *gap.values(), *(half_dist(a, b) for a in pairs for b in pairs)}

    def feasible(eps):
        compat = {}

        def compatible(a, b):
            if (a, b) not in compat:
                compat[(a, b)] = half_dist(a, b) <= eps
            return compat[(a, b)]

        def extend(chosen, todo_left, todo_right):
            if not todo_left and not todo_right:
                return True
            # the pairs of the first point left on the left side, else the right
            side, first = (0, todo_left[0]) if todo_left else (1, todo_right[0])
            for pair in pairs:
                if pair[side] != first or gap[pair] > eps:
                    continue
                if all(compatible(pair, c) and compatible(c, pair) for c in chosen):
                    nl = [v for v in todo_left if v != pair[0]]
                    nr = [v for v in todo_right if v != pair[1]]
                    if extend(chosen + [pair], nl, nr):
                        return True
            return False

        return eps if extend([], list(range(n1)), list(range(n2))) else None

    best = least_feasible(sorted(cands), feasible)
    if best is None:
        raise AssertionError("full correspondence is always feasible at max threshold")
    return best


# ---------------------------------------------------------------------------
# Sampling and density estimation
# ---------------------------------------------------------------------------

COORD_DENOM = 1 << 20
KERNEL_DENOM = 1 << 30
SEED_LIMIT = 1 << 128       # Philox keys are the ints in [0, 2**128)
KDE_BLOCK = 4096            # kernel terms per numpy block of kde_evaluate
EXP_ZERO = 1500             # math.exp(-q / 2) is 0.0 for every q >= 1500


class DensitySpec:
    """Mixture of isotropic Gaussians: components (weight, center, sigma)."""

    def __init__(self, components):
        self.components = []
        total = Fraction(0)
        dim = None
        for weight, center, sigma in components:
            weight = Fraction(weight)
            sigma = Fraction(sigma)
            center = tuple(Fraction(c) for c in center)
            if weight <= 0 or sigma <= 0:
                raise FiltrationError("weights and sigmas must be positive")
            if dim is None:
                dim = len(center)
            elif len(center) != dim:
                raise FiltrationError("mixed center dimensions")
            total += weight
            self.components.append((weight, center, sigma))
        if total != 1:
            raise FiltrationError(f"weights sum to {total}, not 1")
        self.dim = dim

    @classmethod
    def parse(cls, text):
        """'w,c1,...,cm,sigma;w,c1,...,cm,sigma' with rational entries."""
        comps = []
        for chunk in text.split(";"):
            toks = [parse_rational(t) for t in chunk.split(",")]
            if len(toks) < 3:
                raise FiltrationError(f"bad density component: {chunk!r}")
            comps.append((toks[0], toks[1:-1], toks[-1]))
        return cls(comps)

    def to_spec(self):
        return ";".join(",".join(format_rational(x)
                                 for x in (w, *c, s)) for w, c, s in self.components)

    def pdf(self, point):
        """Mixture density at a rational point, rounded to 2**-30."""
        acc = 0.0
        for w, center, sigma in self.components:
            q = sum((Fraction(x) - c) ** 2 for x, c in zip(point, center))
            s = float(sigma)
            norm = (2 * math.pi) ** (-self.dim / 2) * s ** (-self.dim)
            acc += float(w) * norm * math.exp(-float(q) / (2 * s * s))
        return Fraction(round(acc * KERNEL_DENOM), KERNEL_DENOM)


def sample_density(spec, count, seed):
    """Deterministic i.i.d.-style sample via numpy's Philox counter-based
    generator (numpy is imported here and in kde_evaluate alone, so importing
    permod loads none); coordinates rounded to denominator 2**20.  The seed
    is the Philox key, an int in [0, 2**128).  A point's component is the
    first whose cumulative float weight (the last +inf) exceeds rng.random()
    (one bisect); rng.standard_normal(dim) then places it."""
    import numpy as np
    if count < 0:
        raise FiltrationError("count must be >= 0")
    seed = int(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise FiltrationError(f"seed {seed} is outside the Philox key range "
                              f"[0, 2**128)")
    rng = np.random.Generator(np.random.Philox(key=seed))
    cum, comps, acc = [], [], Fraction(0)
    for w, center, sigma in spec.components:
        acc += w
        cum.append(float(acc))
        comps.append((tuple(map(float, center)), float(sigma)))
    cum[-1] = math.inf
    pts, draw, normal, dim = [], rng.random, rng.standard_normal, spec.dim
    for _ in range(count):
        center, sigma = comps[bisect.bisect_right(cum, draw())]
        pts.append([Fraction(round((c + sigma * x) * COORD_DENOM), COORD_DENOM)
                    for c, x in zip(center, normal(dim).tolist())])
    return PointCloud(pts)


class KdeSpec:
    def __init__(self, kernel, bandwidth):
        if kernel not in ("gaussian", "epanechnikov"):
            raise FiltrationError(f"unknown kernel {kernel!r}")
        self.kernel = kernel
        self.bandwidth = Fraction(bandwidth)
        if self.bandwidth <= 0:
            raise FiltrationError("bandwidth must be > 0")


def _unit_ball_volume(m):
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


def kde_evaluate(sample, spec, at):
    """Kernel density estimate of the sample evaluated at each point of
    `at`.  The kernel argument q = |x - s|^2 / h^2 is an exact integer
    ratio: with every coordinate scaled once by D * h.denominator, for D the
    lcm of their denominators, q = num / den for num = |X - S|^2 and
    den = (D * h.numerator)^2.  The Gaussian takes the correctly rounded
    num / (-2 den), exactly -(num / den) / 2 (halving a double is exact; a
    quotient too small for that has exp 1.0 either way), and Epanechnikov
    compares num <= den.  num is clamped at EXP_ZERO * den, where the kernel
    is 0.0 already, so no quotient leaves the double range.
    The pairs go through numpy in blocks of about KDE_BLOCK terms, as int64
    while the shifted coordinates keep every num and 2 den below 2**53 (so a
    double division rounds once, as the int division does), else as Python
    ints in object arrays.  Each term is one libm math.exp call (np.exp
    rounds some arguments differently) and each value sums its terms in
    sample order, from 0.0, by np.add.accumulate; it is a double rounded to
    2**-30 and recorded as approximate.  When `at` is the sample, a block
    holds only its rows' pairs (i, j) with j >= i; the terms of earlier rows
    reach point j through a running sum carried from block to block."""
    import numpy as np
    if not len(sample):
        raise FiltrationError("empty sample")
    z, m, h = len(sample), sample.dim, spec.bandwidth
    symmetric = at is sample
    if not symmetric:
        at = [tuple(map(as_fraction, x)) for x in at]
        if any(len(x) != m for x in at):
            raise FiltrationError("evaluation point dimension != sample dimension")
        symmetric = at == list(sample)
    try:
        denom = z * float(h) ** m
    except OverflowError:
        denom = math.inf
    if not 0 < denom < math.inf:
        raise FiltrationError(f"bandwidth {h}: z * h**{m} is not a positive finite double")
    points = list(sample) + ([] if symmetric else at)
    scale = common_denominator(c for pt in points for c in pt)
    den = (scale * h.numerator) ** 2
    scale *= h.denominator
    coords = [[c.numerator * (scale // c.denominator) for c in col] for col in zip(*points)]
    coords = [[c - low for c in col] for col, low in zip(coords, map(min, coords))]
    exact = max(sum(max(col) ** 2 for col in coords), 2 * den) < 2 ** 53
    dtype, cast = (np.int64, float) if exact else (object, int)
    coords = np.array(coords, dtype=dtype).reshape(m, len(points))
    rows = coords[:, 0 if symmetric else z:]
    if spec.kernel == "gaussian":
        norm = (2 * math.pi) ** (-m / 2)

        def kernels(nums):
            q = (nums / cast(-2 * den)).tolist()
            return norm * np.fromiter(map(math.exp, q), float, len(q))
    else:
        c = (m + 2) / (2 * _unit_ball_volume(m))

        def kernels(nums):
            return np.where(nums <= den, c * (1 - nums / cast(den)), 0.0).astype(float)

    out = []
    carry = np.zeros(z)     # symmetric: the sum at each point r0, r0 + 1, ... of the rows before r0
    r0 = 0
    while r0 < rows.shape[1]:
        lo = r0 if symmetric else 0
        r1 = min(rows.shape[1], r0 + max(1, KDE_BLOCK // (z - lo)))
        num = sum(((xs[r0:r1, None] - ss[None, lo:z]) ** 2 for xs, ss in zip(rows, coords)),
                  np.zeros((r1 - r0, z - lo), dtype))
        num = np.minimum(num, EXP_ZERO * den)
        if symmetric:
            pairs = np.arange(lo, z) >= np.arange(r0, r1)[:, None]
            terms = np.zeros(num.shape)
            terms[pairs] = kernels(num[pairs])
            sums = np.add.accumulate(np.vstack([carry, terms]), axis=0)
            k = np.arange(r1 - r0)
            terms[k, k] += sums[k, k]       # row i starts from point i's sum
            carry = sums[-1, r1 - r0:].copy()
        else:
            terms = kernels(num.ravel()).reshape(num.shape)
        out.extend(np.add.accumulate(terms, axis=1)[:, -1].tolist())
        r0 = r1
    try:
        return [Fraction(round(t / denom * KERNEL_DENOM), KERNEL_DENOM) for t in out]
    except OverflowError:
        raise FiltrationError(f"bandwidth {h}: an estimate is past the double range") from None

"""Desk-scale topological inference experiments.

Pipeline per trial: draw a deterministic sample of a Gaussian-mixture
density, evaluate a kernel density estimate on the sample, build the
superlevelset-Cech bifiltration of the estimate restricted to positive
thresholds, take its degree-0 grid module, and compare it with the grid
module of the superlevelset-offset bifiltration of the true density
discretized on a fixed ambient grid.  The comparison is the rank-shift
lower-bound proxy, never reported as the interleaving distance itself.

For one-dimensional data the degree-0 modules of both sides are cluster
modules of weighted point sets, which is what the two builders below
compute directly.
"""

import json
from fractions import Fraction

from .exactnum import (INF, PrimeField, common_denominator, format_rational,
                       scaled_int)
from .filtration import FiltrationError, KdeSpec, kde_evaluate, sample_density
from .homology import build_grid_module, rank_shift_distance


def cech_cluster_module(field, weighted_points, a_axis, b_axis):
    """Degree-0 grid module of the superlevelset-Cech bifiltration of a
    weighted 1-D point set: point x is present at (a, b) iff weight(x) <= a;
    present points are clustered when consecutive gaps are <= 2b.

    weighted_points: list of (position, weight), both rational.
    """
    pts = sorted((Fraction(x), Fraction(w)) for x, w in weighted_points)
    return _cluster_grid_module(field, pts, a_axis, b_axis, gap_rule="cech")


def offset_cluster_module(field, grid_points, weights, a_axis, b_axis):
    """Degree-0 grid module of the offset bifiltration discretized on an
    ambient 1-D grid: grid point y is active at (a, b) iff some source point
    x (weight(x) <= a) has |y - x| <= b; components are runs of consecutive
    active grid points."""
    pairs = sorted(zip((Fraction(y) for y in grid_points),
                       (Fraction(w) for w in weights)))
    return _cluster_grid_module(field, pairs, a_axis, b_axis, gap_rule="offset")


def _clusters(pts, a, b, gap_rule):
    """Sorted positions -> list of (first_index, last_index) cluster ranges
    over the subset of source points with weight <= a."""
    active = [i for i, (_, w) in enumerate(pts) if w <= a]
    if gap_rule == "cech":
        return _runs(active, [pts[q][0] - pts[p][0] <= 2 * b
                              for p, q in zip(active, active[1:])])
    # offset semantics: activate every grid point within b of an active
    # source point, then take runs of consecutive active grid points
    on = [False] * len(pts)
    positions = [x for x, _ in pts]
    for i in active:
        x = pts[i][0]
        j = i
        while j >= 0 and x - positions[j] <= b:
            on[j] = True
            j -= 1
        j = i
        while j < len(pts) and positions[j] - x <= b:
            on[j] = True
            j += 1
    on = [i for i, flag in enumerate(on) if flag]
    return _runs(on, [q == p + 1 for p, q in zip(on, on[1:])])


def _runs(idx, joins):
    """Maximal runs of the indices idx as (first, last) pairs; joins[k] says
    whether idx[k + 1] continues the run of idx[k]."""
    ranges = []
    for i, join in zip(idx, [False] + joins):
        if join:
            ranges[-1] = (ranges[-1][0], i)
        else:
            ranges.append((i, i))
    return ranges


def _cluster_grid_module(field, pts, a_axis, b_axis, gap_rule):
    a_axis = sorted(Fraction(a) for a in a_axis)
    b_axis = sorted(Fraction(b) for b in b_axis)
    # weights and a-values over one common denominator, positions and
    # b-values over another, so that clustering compares ints
    w_scale = common_denominator(a_axis + [w for _, w in pts])
    x_scale = common_denominator(b_axis + [x for x, _ in pts])
    int_pts = [(scaled_int(x, x_scale), scaled_int(w, w_scale)) for x, w in pts]

    def clusters(z):
        return _clusters(int_pts, scaled_int(z[0], w_scale),
                         scaled_int(z[1], x_scale), gap_rule)

    def containment(small, big):
        """The map sending each cluster of `small` into the cluster of `big`
        containing it, one column {home: 1} per cluster; both are sorted
        lists of disjoint ranges, so one forward pointer finds every home."""
        cols = []
        home = 0
        for lo, hi in small:
            while home < len(big) and big[home][1] < lo:
                home += 1
            if home == len(big) or not (big[home][0] <= lo and hi <= big[home][1]):
                raise FiltrationError("cluster refinement is not nested")
            cols.append({home: field.one})
        return cols

    return build_grid_module(field, [a_axis, b_axis], clusters, len, containment)


class ExperimentRecord:
    """Fully reproducible record of one inference run."""

    def __init__(self, seed, density, samples, trials, bandwidth, kernel,
                 grid_spec, degree, per_trial, medians):
        self.seed = seed
        self.density = density
        self.samples = samples
        self.trials = trials
        self.bandwidth = bandwidth
        self.kernel = kernel
        self.grid_spec = grid_spec
        self.degree = degree
        self.per_trial = per_trial
        self.medians = medians

    def to_json(self):
        def fmt(v):
            return "inf" if v == INF else format_rational(v.value)

        doc = {
            "seed": self.seed,
            "density": self.density.to_spec(),
            "samples": self.samples,
            "trials": self.trials,
            "bandwidth": format_rational(self.bandwidth),
            "kernel": self.kernel,
            "grid": self.grid_spec,
            "degree": self.degree,
            "per_trial": {str(z): [fmt(v) for v in vals]
                          for z, vals in self.per_trial.items()},
            "medians": {str(z): fmt(v) for z, v in self.medians.items()},
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _median(values):
    """Median of ExtendedRationals; even counts average the central pair
    (an infinite endpoint makes the median infinite)."""
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("median of nothing")
    if n % 2 == 1:
        return vals[n // 2]
    return (vals[n // 2 - 1] + vals[n // 2]) * Fraction(1, 2)


def default_ambient_grid(density, points_per_axis=33):
    """Bounding box of the mixture centers padded by four standard
    deviations, evenly sampled."""
    if density.dim != 1:
        raise FiltrationError("ambient grids are built for 1-D densities here")
    if points_per_axis < 2:
        raise FiltrationError("an ambient grid needs at least 2 points, "
                              f"got {points_per_axis}")
    centers = [c[0] for _, c, _ in density.components]
    spread = max(s for _, _, s in density.components)
    lo = min(centers) - 4 * spread
    hi = max(centers) + 4 * spread
    step = (hi - lo) / (points_per_axis - 1)
    return [lo + step * i for i in range(points_per_axis)]


def run_experiment(density, samples, trials, seed, bandwidth, degree=0,
                   kernel="gaussian", grid_points=33, thresholds=17,
                   offsets=17):
    """Run the sampling experiment and return an ExperimentRecord.

    Ground truth: the offset cluster module of the true density on the
    ambient grid, with superlevel thresholds (a = -density) on a fixed probe
    axis of negative values and offsets on multiples of the grid spacing.
    Each (trial, sample size) owns the derived seed (seed, stream index).
    Coefficients are in Z/2.
    """
    if degree != 0:
        raise FiltrationError("the desk-scale harness compares degree-0 modules")
    if density.dim != 1:
        raise FiltrationError("harness supports 1-D densities")
    field = PrimeField(2)
    kde = KdeSpec(kernel, bandwidth)

    ambient = default_ambient_grid(density, grid_points)
    step = ambient[1] - ambient[0]
    truth_weights = [-density.pdf((y,)) for y in ambient]
    peak = max(-w for w in truth_weights)
    # superlevel thresholds: a < 0 (levels -a in (0, peak])
    a_axis = sorted({-peak * Fraction(k, thresholds) for k in range(1, thresholds + 1)})
    b_axis = [step * k for k in range(offsets)]
    grid_spec = {
        "ambient": [format_rational(v) for v in ambient],
        "a_axis": [format_rational(v) for v in a_axis],
        "b_axis": [format_rational(v) for v in b_axis],
    }

    truth = offset_cluster_module(field, ambient, truth_weights, a_axis, b_axis)

    per_trial = {z: [] for z in samples}
    stream = 0
    for trial in range(trials):
        for z in samples:
            stream += 1
            cloud = sample_density(density, z, _derive_seed(seed, stream))
            if len(cloud) == 0:
                per_trial[z].append(INF)
                continue
            estimates = kde_evaluate(cloud, kde, cloud)
            weighted = [(pt[0], -e) for pt, e in zip(cloud, estimates)]
            sample_mod = cech_cluster_module(field, weighted, a_axis, b_axis)
            per_trial[z].append(rank_shift_distance(sample_mod, truth))

    medians = {z: _median(per_trial[z]) for z in samples}

    return ExperimentRecord(seed, density, list(samples), trials,
                            Fraction(bandwidth), kernel, grid_spec, degree,
                            per_trial, medians)


def _derive_seed(seed, stream):
    return (int(seed) << 20) + stream

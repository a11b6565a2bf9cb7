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

import bisect
import json
from fractions import Fraction

from .exactnum import (INF, PrimeField, as_fraction, common_denominator,
                       format_rational, scaled_int)
from .filtration import (SEED_LIMIT, FiltrationError, KdeSpec, kde_evaluate,
                         sample_density)
from .homology import build_grid_module, rank_shift_distance


def cech_cluster_module(field, weighted_points, a_axis, b_axis):
    """Degree-0 grid module of the superlevelset-Cech bifiltration of a
    weighted 1-D point set: point x is present at (a, b) iff weight(x) <= a;
    present points are clustered when consecutive gaps are <= 2b.

    weighted_points: list of (position, weight), both rational.
    """
    return _cluster_grid_module(field, weighted_points, a_axis, b_axis, "cech")


def offset_cluster_module(field, grid_points, weights, a_axis, b_axis):
    """Degree-0 grid module of the offset bifiltration discretized on an
    ambient 1-D grid: grid point y is active at (a, b) iff some source point
    x (weight(x) <= a) has |y - x| <= b; components are runs of consecutive
    active grid points."""
    if len(grid_points) != len(weights):
        raise FiltrationError("grid points and weights differ in number")
    return _cluster_grid_module(field, zip(grid_points, weights), a_axis, b_axis,
                                "offset")


def _cluster_grid_module(field, pts, a_axis, b_axis, gap_rule):
    """The cluster module of (position, weight) pairs, made ints in one pass
    and sorted: weights and a over one common denominator, positions and b
    over another.  A cluster is a (first, last) index range of the points
    active at a (Cech), ending at the gaps wider than 2b (a bisect into the
    gaps sorted once per a; the same cut keeps its list), or of grid points
    within b of one (offset).  Each grid point's clusters, sorted disjoint
    ranges, are listed in the grid-index order `build_grid_module` asks in."""
    pts = [(as_fraction(x), as_fraction(w)) for x, w in pts]
    a_axis = sorted(map(as_fraction, a_axis))
    b_axis = sorted(map(as_fraction, b_axis))
    if b_axis and b_axis[0] < 0:
        raise FiltrationError(f"offsets must be >= 0, got {format_rational(b_axis[0])}")
    w_scale = common_denominator(a_axis + [w for _, w in pts])
    x_scale = common_denominator(b_axis + [x for x, _ in pts])
    pts = sorted((x.numerator * (x_scale // x.denominator),
                  w.numerator * (w_scale // w.denominator)) for x, w in pts)
    xs, reaches = [x for x, _ in pts], [scaled_int(b, x_scale) for b in b_axis]
    clusters = []
    for a in a_axis:
        at = scaled_int(a, w_scale)
        active = [i for i, (_, w) in enumerate(pts) if w <= at]
        if gap_rule == "cech":
            gaps = [xs[q] - xs[p] for p, q in zip(active, active[1:])]
            order = sorted(range(len(gaps)), key=gaps.__getitem__)
            widths, cut = [gaps[k] for k in order], None
            for reach in reaches:       # runs end at the gaps wider than 2b
                if cut != (cut := bisect.bisect_right(widths, 2 * reach)):
                    ends = sorted(order[cut:])
                    runs = list(zip(active[:1] + [active[k + 1] for k in ends],
                                    [active[k] for k in ends] + active[-1:]))
                clusters.append(runs)
            continue
        for reach in reaches:
            clusters.append(runs := [])    # merged ranges of grid points in reach
            for i in active:
                lo = bisect.bisect_left(xs, xs[i] - reach)
                hi = bisect.bisect_right(xs, xs[i] + reach) - 1
                if runs and lo <= runs[-1][1] + 1:
                    runs[-1] = (runs[-1][0], hi)
                else:
                    runs.append((lo, hi))
    unit, point = field.columns.unit, iter(clusters).__next__

    def containment(small, big):
        """The map sending each cluster of `small` to the one of `big` holding
        it, one unit column each, by one walk over both sorted lists: a home
        is the first big cluster not ending before it, and holds both ends."""
        homes, r = [], 0
        for lo, hi in small:
            while r < len(big) and big[r][1] < lo:
                r += 1
            if r == len(big) or big[r][0] > lo or big[r][1] < hi:
                raise FiltrationError("cluster refinement is not nested")
            homes.append(unit(r))
        return homes

    return build_grid_module(field, [a_axis, b_axis], lambda z: point(), len, containment)


class ExperimentRecord:
    """Fully reproducible record of one inference run."""

    def __init__(self, seed, density, samples, trials, bandwidth, kernel,
                 grid_spec, per_trial, medians):
        self.seed = seed
        self.density = density
        self.samples = samples
        self.trials = trials
        self.bandwidth = bandwidth
        self.kernel = kernel
        self.grid_spec = grid_spec
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
            "degree": 0,            # the harness compares degree-0 modules
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


def run_experiment(density, samples, trials, seed, bandwidth, kernel="gaussian",
                   grid_points=33, thresholds=17, offsets=17):
    """Run the sampling experiment and return an ExperimentRecord.

    Ground truth: the offset cluster module of the true density on the
    ambient grid, with superlevel thresholds (a = -density) on a fixed probe
    axis of negative values and offsets on multiples of the grid spacing.
    Each (trial, sample size) owns the derived seed (seed, stream index).
    Coefficients are in Z/2.  Sample sizes must strictly increase, there
    must be at least one trial, threshold and offset, and every derived seed
    must be a Philox key.
    """
    for name, count in (("trials", trials), ("thresholds", thresholds),
                        ("offsets", offsets)):
        if count < 1:
            raise FiltrationError(f"{name} must be at least 1, got {count}")
    for z, after in zip(samples, samples[1:]):
        if after <= z:
            raise FiltrationError(f"sample sizes must be strictly increasing: "
                                  f"{after} after {z}")
    streams = trials * len(samples)
    if streams and not (0 <= _derive_seed(seed, 1) and
                        _derive_seed(seed, streams) < SEED_LIMIT):
        raise FiltrationError(f"seed {seed} derives seeds outside the Philox "
                              f"key range [0, 2**128)")
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
    for stream, z in enumerate(list(samples) * trials, 1):     # trial by trial
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
                            Fraction(bandwidth), kernel, grid_spec, per_trial,
                            medians)


def _derive_seed(seed, stream):
    return (int(seed) << 20) + stream

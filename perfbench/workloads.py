"""The benchmark's three workloads: seeded inputs, one op each, output checks.

Inputs are plain JSON-able data made from the seed alone; each op builds the
library objects it needs from them, so a repeated input starts from fresh
objects.  Ops run in rounds, one op per size class, so every run sees the
same mix of sizes.  ``round_seconds`` is the nominal time of one round (on
a 2-core x86_64 machine, Python 3.11); it fixes how many rounds a run of
``--seconds`` makes.

Ops call the library through module attributes looked up at call time
(``pm.interleave.interleaving_distance``), so the tracer's rebinding sees
them.  ``check`` runs between ops, outside the timed region, and returns
the op's canonical output text (the digest is taken over it).
"""

import random
from fractions import Fraction


class CheckFailed(Exception):
    """An op's output failed one of the benchmark's checks."""


def _rng(seed, workload):
    return random.Random(f"{workload}:{seed}")


def _frac(halves):
    return Fraction(halves, 2)


class Interleave2d:
    """d_I of 2-parameter Z/2 presentations against jittered copies.

    A module with k generators (grades on the integer grid [0, 10]^2) and r
    relations, each joining two generators, is paired with a copy whose generator grades move down and
    relation grades move up by 0, 1/2 or 1, at most J (1/2 or 1) per pair.
    The identity maps then give a J-interleaving, so d_I <= J, and the
    binary search decides candidates on both sides of d_I.
    """

    name = "interleave2d"
    sizes = ((2, 1), (3, 2), (4, 2), (4, 3), (5, 3))   # (generators, relations)
    n_inputs = 2000
    round_seconds = 0.2
    trace_rounds = 40
    budget = 20000                 # solver nodes per decision
    grid = 10

    def inputs(self, seed, sizes=None, n=None):
        rng = _rng(seed, self.name)
        sizes = sizes or self.sizes
        return [self._pair(rng, sizes[i % len(sizes)])
                for i in range(n or self.n_inputs)]

    def _pair(self, rng, size):
        k, r = size
        gens = [(2 * rng.randint(0, self.grid), 2 * rng.randint(0, self.grid))
                for _ in range(k)]
        rels = []
        for _ in range(r):
            pick = rng.sample(range(k), 2)
            grade = tuple(max(gens[i][a] for i in pick) + 2 * rng.randint(0, 2)
                          for a in range(2))
            rels.append((grade, [int(i in pick) for i in range(k)]))
        jitter = rng.choice((1, 2))            # in halves
        moved_gens = [tuple(x - rng.randint(0, jitter) for x in g) for g in gens]
        moved_rels = [(tuple(x + rng.randint(0, jitter) for x in g), c)
                      for g, c in rels]
        return {"jitter": jitter,
                "m": {"gens": gens, "rels": rels},
                "n": {"gens": moved_gens, "rels": moved_rels}}

    @staticmethod
    def _presentation(pm, field, spec):
        gens = [(f"g{i}", tuple(map(_frac, g))) for i, g in enumerate(spec["gens"])]
        rels = [(f"r{j}", tuple(map(_frac, g)), list(c))
                for j, (g, c) in enumerate(spec["rels"])]
        return pm.presentation.Presentation(2, field, gens, rels)

    def run(self, pm, inp, state):
        f2 = pm.exactnum.PrimeField(2)
        m = self._presentation(pm, f2, inp["m"])
        n = self._presentation(pm, f2, inp["n"])
        return pm.interleave.interleaving_distance(m, n, budget=self.budget)

    def is_budget_failure(self, pm, exc):
        return isinstance(exc, pm.interleave.DistanceBudgetExceeded)

    def check(self, pm, inp, d):
        f2 = pm.exactnum.PrimeField(2)
        m = self._presentation(pm, f2, inp["m"]).validate().minimize()
        n = self._presentation(pm, f2, inp["n"]).validate().minimize()
        if d not in pm.interleave.candidate_set(m, n):
            raise CheckFailed(f"d_I = {d} is not in the candidate set")
        if not d <= pm.exactnum.ext(_frac(inp["jitter"])):
            raise CheckFailed(f"d_I = {d} exceeds the jitter bound {_frac(inp['jitter'])}")
        return f"{d}\n"


class RipsPresent:
    """Presentations of H0 and H1 of sublevelset-Rips bifiltrations.

    Each op takes one integer point cloud in the plane with an integer
    function, builds the Rips bifiltration, presents H0 and H1 with the
    Hilbert check on, takes the fixed-scale slice at the scale cap, its
    barcodes, and their bottleneck distances to the previous cloud's barcodes
    (the empty diagram before input 0).  Clouds are jittered lattices, so the
    simplex count, and with it the op's cost, varies little within a size.
    """

    name = "rips_present"
    sizes = ((3, 4, "l1"), (4, 4, "l1"), (4, 5, "l1"),     # lattice rows, columns,
             (3, 4, "linf"), (4, 4, "linf"))               # metric
    n_inputs = 1000
    round_seconds = 0.6
    trace_rounds = 10
    spacing = 3                    # lattice spacing; each point moves by 0 or 1
    cap = 3                        # scale cap; edges up to length 6
    values = 4                     # function values in [0, values]

    def inputs(self, seed, sizes=None, n=None):
        rng = _rng(seed, self.name)
        sizes = sizes or self.sizes
        out = []
        for i in range(n or self.n_inputs):
            rows, cols, metric = sizes[i % len(sizes)]
            pts = [(self.spacing * a + rng.randint(0, 1), self.spacing * b + rng.randint(0, 1))
                   for a in range(rows) for b in range(cols)]
            out.append({"index": i, "metric": metric, "points": pts,
                        "values": [rng.randint(0, self.values) for _ in pts]})
        return out

    def run(self, pm, inp, state):
        f2 = pm.exactnum.PrimeField(2)
        fl, ho = pm.filtration, pm.homology
        if inp["index"] == 0:
            state.clear()
        metric = 1 if inp["metric"] == "l1" else "inf"
        cloud = fl.PointCloud(inp["points"])
        cx = fl.rips_bifiltration(cloud, metric, [(v,) for v in inp["values"]],
                                  max_dim=2, scale_cap=self.cap)
        pres = [ho.present_homology(cx, d, f2, check_hilbert=True) for d in (0, 1)]
        top = fl.fixed_scale_slice(cx, self.cap)
        dgms = [ho.barcode_1d(top, d, f2) for d in (0, 1)]
        prev = state.get("dgms") or [pm.onedim.PersistenceDiagram([])] * 2
        dists = [pm.onedim.bottleneck(a, b) for a, b in zip(dgms, prev)]
        state["dgms"] = dgms
        return pres, dgms, dists

    def is_budget_failure(self, pm, exc):
        return False

    def check(self, pm, inp, result):
        pres, dgms, dists = result
        for p in pres:
            p.validate()
        essential = sum(m for _, d, m in dgms[0].points if d == pm.exactnum.INF)
        components = self._components(inp)
        if essential != components:
            raise CheckFailed(f"H0 barcode has {essential} essential bars, the "
                              f"scale-{self.cap} graph {components} components")
        return "".join([p.to_text() for p in pres] + [d.to_text() + "--\n" for d in dgms]
                       + [f"{x}\n" for x in dists])

    def _components(self, inp):
        """Connected components of the edges of length <= 2 * cap, by union-find."""
        pts = inp["points"]
        parent = list(range(len(pts)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, p in enumerate(pts):
            for j in range(i):
                q = pts[j]
                dx, dy = abs(p[0] - q[0]), abs(p[1] - q[1])
                length = dx + dy if inp["metric"] == "l1" else max(dx, dy)
                if length <= 2 * self.cap:
                    parent[find(i)] = find(j)
        return sum(1 for i in range(len(pts)) if find(i) == i)


class Infer:
    """The sampling-inference harness on the criterion-12 density.

    One op is one run_experiment call at one sample size, cycling over the
    sizes, with two trials so the truth module is shared inside the call.
    """

    name = "infer"
    sizes = (50, 100, 200, 400)    # samples per trial, one op each per round
    n_inputs = 40
    round_seconds = 10.0
    trace_rounds = 1
    density = "1/2,-1,1/4;1/2,1,1/4"
    bandwidth = Fraction(1, 5)
    grid_points = 33
    thresholds = 10
    offsets = 10
    trials = 2

    def inputs(self, seed, sizes=None, n=None):
        rng = _rng(seed, self.name)
        sizes = sizes or self.sizes
        return [{"samples": sizes[i % len(sizes)], "seed": rng.randrange(1, 2 ** 31)}
                for i in range(n or self.n_inputs)]

    def run(self, pm, inp, state):
        spec = pm.filtration.DensitySpec.parse(self.density)
        return pm.infer.run_experiment(
            spec, [inp["samples"]], trials=self.trials, seed=inp["seed"],
            bandwidth=self.bandwidth, grid_points=self.grid_points,
            thresholds=self.thresholds, offsets=self.offsets)

    def is_budget_failure(self, pm, exc):
        return False

    def check(self, pm, inp, rec):
        z = inp["samples"]
        values = rec.per_trial[z]
        if len(values) != self.trials:
            raise CheckFailed(f"{len(values)} trial values, expected {self.trials}")
        for v in values + [rec.medians[z]]:
            if not (v.is_finite and v.value >= 0):
                raise CheckFailed(f"rank-shift value {v} is not a finite value >= 0")
        return rec.to_json()


WORKLOADS = {w.name: w for w in (Interleave2d(), RipsPresent(), Infer())}

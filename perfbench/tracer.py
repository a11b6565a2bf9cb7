"""Outside-in tracing of permod's layers.

The tracer rebinds public names in the modules that call them (and methods
on their classes) to thin wrappers that record a span per call: name, start,
end, parent span and op id.  Counts are recorded at the same boundaries.
Nothing under ``src/`` is touched; every binding is restored on exit.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans.
"""

import importlib
import time
from array import array
from collections import Counter


# -- counters recorded at layer boundaries --------------------------------------

def _count_solve(counts, args, result, seconds):
    counts["quadsys.nodes"] += result.nodes
    counts["quadsys.solve_s_" + result.status] += seconds


def _count_budget(counts, exc):
    if type(exc).__name__ == "BudgetExceeded":
        counts["quadsys.nodes"] += exc.nodes
        counts["quadsys.budget_exceeded"] += 1


def _count_system(counts, args, result, seconds):
    counts["interleave.vars"] += result.system.nvars
    counts["interleave.eqs"] += len(result.system.equations)


def _count_candidates(counts, args, result, seconds):
    counts["interleave.candidates"] += len(result)


def _count_minimize(counts, args, result, seconds):
    counts["presentation.gens_removed"] += (len(args[0].generators)
                                            - len(result.generators))


def _count_mults(counts, args, result, seconds):
    a, b = args[1], args[2]
    counts["linalg.mat_mul_mults"] += len(a) * len(b) * (len(b[0]) if b else 0)


def _count_kde_pairs(counts, args, result, seconds):
    counts["filtration.kde_pairs"] += len(args[0]) * len(args[2])


def _count_simplices(counts, args, result, seconds):
    counts["filtration.simplices"] += len(result.simplices)


def _count_diagram_points(counts, args, result, seconds):
    counts["onedim.diagram_points"] += (args[0].total_multiplicity()
                                        + args[1].total_multiplicity())


# (owner, attribute, span name, count hook).  The owner is the module whose
# global the callers look up, or the class whose method they call; a name
# imported into several modules is rebound in each.
LAYERS = (
    ("permod.interleave", "interleaving_distance", "interleave.distance", None),
    ("permod.interleave", "assemble_system", "interleave.assemble", _count_system),
    ("permod.interleave", "candidate_set", "interleave.candidate_set", _count_candidates),
    ("permod.interleave", "solve_finite_field", "quadsys.solve", _count_solve),
    ("permod.presentation:Presentation", "minimize", "presentation.minimize",
     _count_minimize),
    ("permod.presentation:Presentation", "point_dim", "presentation.point_dim", None),
    ("permod.linalg", "rank", "linalg.rank", None),
    ("permod.homology", "mat_rank", "linalg.rank", None),
    ("permod.filtration", "_mat_rank", "linalg.rank", None),
    ("permod.homology", "nullspace", "linalg.nullspace", None),
    ("permod.homology", "mat_mul", "linalg.mat_mul", _count_mults),
    ("permod.linalg:ColumnSpan", "insert", "linalg.span_insert", None),
    ("permod.linalg:ColumnSpan", "coords", "linalg.span_coords", None),
    ("permod.homology", "chain_complex_of", "homology.chain", None),
    ("permod.homology", "present_homology", "homology.present", None),
    ("permod.homology:GradedChainComplex", "homology_dim_at", "homology.hilbert", None),
    ("permod.homology", "barcode_1d", "homology.barcode", None),
    ("permod.infer", "rank_shift_distance", "homology.rank_shift", None),
    ("permod.homology", "resample", "homology.resample", None),
    ("permod.homology:GridModule", "check_squares", "homology.check_squares", None),
    ("permod.homology:GridModule", "rank_between", "homology.rank_between", None),
    ("permod.infer", "sample_density", "filtration.sample", None),
    ("permod.infer", "kde_evaluate", "filtration.kde", _count_kde_pairs),
    ("permod.filtration", "rips_bifiltration", "filtration.rips", _count_simplices),
    ("permod.filtration", "fixed_scale_slice", "filtration.slice", None),
    ("permod.infer", "offset_cluster_module", "infer.truth_module", None),
    ("permod.infer", "cech_cluster_module", "infer.sample_module", None),
    ("permod.infer", "run_experiment", "infer.experiment", None),
    ("permod.onedim", "bottleneck", "onedim.bottleneck", _count_diagram_points),
)

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Rebinder:
    """Replace attributes and put the originals back, in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory spans and counts for the layers in LAYERS.

    Use as a context manager; wrappers pass straight through while
    ``active`` is false, so output checks between ops go untraced.
    """

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.counts = Counter()
        self.active = False
        self.op = -1
        self._stack = []
        self._rebinder = Rebinder()

    def __enter__(self):
        try:
            for path, attr, name, hook in LAYERS:
                self._rebinder.replace(_owner(path), attr,
                                       lambda fn, n=name, h=hook: self._wrap(fn, n, h))
        except BaseException:
            self._rebinder.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.active = False
        self._rebinder.restore()
        return False

    def _intern(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def begin(self, name):
        """Open a span by hand (the harness's op span); returns its index."""
        idx = len(self.span_name)
        self.span_name.append(self._intern(name))
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self._stack.pop()
        self.span_end[idx] = time.perf_counter()

    def start(self, op):
        """Trace op number ``op`` under a root span named 'op'."""
        self.op = op
        self.active = True
        self._op_span = self.begin("op")

    def stop(self):
        self.end(self._op_span)
        self.active = False

    def _wrap(self, fn, name, hook):
        calls = name + "_calls"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                _count_budget(self.counts, exc)
                raise
            finally:
                self.end(idx)
                self.counts[calls] += 1
            if hook is not None:
                hook(self.counts, args, result,
                     self.span_end[idx] - self.span_start[idx])
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Total self time per span name."""
        return self_times(self.names, self.span_name, self.span_start,
                          self.span_end, self.span_parent)

    def to_json(self):
        return {
            "names": self.names,
            "spans": {"name": list(self.span_name), "start": list(self.span_start),
                      "end": list(self.span_end), "parent": list(self.span_parent),
                      "op": list(self.span_op)},
            "counts": dict(self.counts),
        }


def self_times(names, name, start, end, parent):
    """Per-name sums of span duration minus the duration of direct children.

    Children are nested inside their parent, so their durations are disjoint
    parts of the parent's interval."""
    child = [0.0] * len(name)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out = {}
    for i, n in enumerate(name):
        key = names[n]
        out[key] = out.get(key, 0.0) + (end[i] - start[i]) - child[i]
    return out


class FieldOpCounter:
    """Count PrimeField arithmetic calls; a separate pass, since a wrapper
    around every field operation would swamp the span timings."""

    def __init__(self):
        self.count = 0
        self.active = False
        self._rebinder = Rebinder()

    def __enter__(self):
        cls = _owner("permod.exactnum:PrimeField")
        for attr in FIELD_OPS:
            self._rebinder.replace(cls, attr, self._wrap)
        return self

    def __exit__(self, *exc):
        self._rebinder.restore()
        return False

    def start(self, op):
        self.active = True

    def stop(self):
        self.active = False

    def _wrap(self, fn):
        def counted(*args):
            if self.active:
                self.count += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

"""Seeded benchmark for permod.

    python3 perfbench/run.py --workload interleave2d --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all``) in a single process and thread, from the
permod sources in ``src/`` next to this directory.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it runs each op of a fixed
prefix three times (untraced, traced, and with field operations counted) and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object; the lines before it are for people.
See README.md in this directory for the workloads and the metrics.
"""

import argparse
import gzip
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 1
SETUP_REPEATS = 5
SLOW_LIMIT = 3

sys.path.insert(0, str(HERE))

from tracer import FieldOpCounter, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# Per-layer metrics of the traced run: name -> unit.  Names ending in _s are
# self times; counts are exact for a given seed (the traced prefix is fixed).
PER_LAYER = {
    "quadsys.solve_s": "s", "quadsys.solves": "count", "quadsys.nodes": "count",
    "quadsys.s_per_node": "s/node", "quadsys.solve_sat_s": "s",
    "quadsys.solve_unsat_s": "s", "quadsys.budget_exceeded": "count",
    "interleave.distance_s": "s", "interleave.assemble_s": "s",
    "interleave.vars": "count", "interleave.eqs": "count",
    "interleave.candidate_set_s": "s", "interleave.candidates": "count",
    "interleave.decisions": "count",
    "presentation.minimize_s": "s", "presentation.minimize_calls": "count",
    "presentation.gens_removed": "count", "presentation.point_dim_s": "s",
    "linalg.rank_s": "s", "linalg.rank_calls": "count",
    "linalg.nullspace_s": "s", "linalg.nullspace_calls": "count",
    "linalg.span_insert_s": "s", "linalg.span_insert_calls": "count",
    "linalg.span_coords_s": "s", "linalg.mat_mul_s": "s",
    "linalg.mat_mul_calls": "count", "linalg.mat_mul_mults": "count",
    "homology.chain_s": "s", "homology.present_s": "s", "homology.hilbert_s": "s",
    "homology.grid_points": "count", "homology.barcode_s": "s",
    "homology.rank_shift_s": "s", "homology.resample_s": "s",
    "homology.check_squares_s": "s", "homology.rank_between_calls": "count",
    "homology.rank_hit_ratio": "ratio",
    "filtration.sample_s": "s", "filtration.kde_s": "s", "filtration.kde_pairs": "count",
    "filtration.rips_s": "s", "filtration.simplices": "count", "filtration.slice_s": "s",
    "infer.experiment_s": "s", "infer.truth_module_s": "s", "infer.sample_module_s": "s",
    "onedim.bottleneck_s": "s", "onedim.diagram_points": "count",
    "exactnum.field_ops": "count",
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio", "trace.spans": "count",
}
EXACT = {name for name, unit in PER_LAYER.items() if unit in ("count", "ratio")} \
    - {"trace.overhead_ratio"}


def environment():
    import numpy
    return {"machine": f"{platform.system()} {platform.release()} {platform.machine()}",
            "nproc": len(os.sched_getaffinity(0)), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def import_permod():
    """Import permod afresh from SRC (dropping any loaded copy); returns it."""
    for name in [n for n in sys.modules if n == "permod" or n.startswith("permod.")]:
        del sys.modules[name]
    pm = importlib.import_module("permod")
    if Path(pm.__file__).resolve().parent != SRC / "permod":
        raise ImportError(f"permod imported from {pm.__file__}, not from {SRC}")
    return pm


def setup(wl, seed):
    """Import plus input generation, repeated; returns (permod, inputs, median s)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pm = import_permod()
        inputs = wl.inputs(seed)
        times.append(time.perf_counter() - t0)
    return pm, inputs, statistics.median(times)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Pass:
    """One sequence of ops in index order: latencies, failures, per-op
    output digests, and the state an op may hand to the next."""

    def __init__(self):
        self.latencies = []
        self.digests = []
        self.failures = {}      # op index -> (kind, reason)
        self.state = {}

    @property
    def busy(self):
        return sum(self.latencies)

    @property
    def attempted(self):
        return len(self.latencies)

    def run_op(self, wl, pm, inputs, probe=None, expect=None):
        """Run the next op.  ``probe`` (a Tracer or a FieldOpCounter) is
        active during the op only.  The output is checked after the op,
        untimed, and compared with ``expect``'s digest if given."""
        i = self.attempted
        inp = inputs[i % len(inputs)]
        result = failure = None
        if probe is not None:
            probe.start(i)
        t0 = time.perf_counter()
        try:
            result = wl.run(pm, inp, self.state)
        except Exception as exc:        # an op failure is counted, not fatal
            kind = "budget" if wl.is_budget_failure(pm, exc) else "error"
            failure = (kind, f"{type(exc).__name__}: {exc}")
        self.latencies.append(time.perf_counter() - t0)
        if probe is not None:
            probe.stop()
        text = None
        if failure is None:
            try:
                text = wl.check(pm, inp, result)
            except CheckFailed as exc:
                failure = ("check", str(exc))
        self.digests.append(None if text is None else digest(text))
        if text is not None and expect is not None and self.digests[i] != expect.digests[i]:
            failure = ("mismatch", "output differs from the untraced run")
        if failure is not None:
            self.failures[i] = failure


def run_ops(wl, pm, inputs, count=None, seconds=None):
    """``count`` ops, or the whole rounds that take about ``seconds`` at the
    workload's nominal round time.  The op count does not follow the
    machine's speed, so two runs (or two commits) measure the same ops; a
    run more than SLOW_LIMIT times slower than nominal stops early."""
    done = Pass()
    per_round = len(wl.sizes)
    limit = math.inf
    if count is None:
        count = per_round * max(1, round(seconds / wl.round_seconds))
        limit = SLOW_LIMIT * seconds
    while done.attempted < count and (done.attempted % per_round or done.busy < limit):
        done.run_op(wl, pm, inputs)
    return done


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 ops beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    k = max(n - 11, 0)
    return lat[k], 100.0 * (k + 1) / n


def golden(wl_name, seed):
    """The committed per-op digests for this workload, or [] if none apply."""
    if seed != GOLDEN_SEED or not GOLDEN.is_file():
        return []
    return json.loads(GOLDEN.read_text()).get(wl_name, [])


def end_to_end(wl, seed, seconds):
    pm, inputs, setup_s = setup(wl, seed)
    done = run_ops(wl, pm, inputs, seconds=seconds)
    ok = done.attempted - len(done.failures)
    tail_s, tail_pct = tail(done.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / done.busy, "1/s"),
        "op_p50_s": (statistics.median(done.latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "ok_ratio": (ok / done.attempted, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [f"ops {done.attempted} in {done.busy:.3f} s of op time; "
             f"op_tail_s is p{tail_pct:.1f} ({min(10, done.attempted - 1)} ops beyond); "
             f"fail_ratio {len(done.failures) / done.attempted:.4f}"]
    return done, metrics, notes


def per_layer(wl, seed, out_name):
    pm, inputs, _ = setup(wl, seed)
    count = wl.trace_rounds * len(wl.sizes)
    plain, traced, counted = Pass(), Pass(), Pass()
    tracer, counter = Tracer(), FieldOpCounter()
    # each op runs untraced, traced, counted back to back, so that drift in
    # machine speed cancels out of the overhead
    for _ in range(count):
        plain.run_op(wl, pm, inputs)
        with tracer:
            traced.run_op(wl, pm, inputs, probe=tracer, expect=plain)
        with counter:
            counted.run_op(wl, pm, inputs, probe=counter, expect=plain)
    for p in (traced, counted):
        for i, why in p.failures.items():
            plain.failures.setdefault(i, why)

    own = tracer.self_times()
    c = tracer.counts
    names, parent = tracer.names, tracer.span_parent

    def under(child, par):
        """Spans named ``child`` whose parent span is named ``par``."""
        return sum(1 for i, n in enumerate(tracer.span_name)
                   if names[n] == child and parent[i] >= 0
                   and names[tracer.span_name[parent[i]]] == par)

    values = {}
    for name, unit in PER_LAYER.items():
        if name.endswith("_s"):
            values[name] = own.get(name[:-2], 0.0)
        elif name.endswith("_calls"):
            values[name] = c[name]
        else:
            values[name] = c.get(name, 0)
    solves = c["quadsys.solve_calls"]
    rb = c["homology.rank_between_calls"]
    values.update({
        "quadsys.solves": solves,
        "quadsys.s_per_node": own.get("quadsys.solve", 0.0) / c["quadsys.nodes"]
        if c["quadsys.nodes"] else 0.0,
        "quadsys.solve_sat_s": c.get("quadsys.solve_s_solvable", 0.0),
        "quadsys.solve_unsat_s": c.get("quadsys.solve_s_unsolvable", 0.0),
        "interleave.decisions": under("quadsys.solve", "interleave.distance"),
        "homology.grid_points": c["homology.hilbert_calls"],
        "homology.rank_hit_ratio": 1 - under("linalg.rank", "homology.rank_between") / rb
        if rb else 0.0,
        "exactnum.field_ops": counter.count,
        "trace.overhead_s": traced.busy - plain.busy,
        "trace.overhead_ratio": (traced.busy - plain.busy) / plain.busy,
        "trace.spans": len(tracer.span_name),
    })
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"{out_name}.spans.json.gz"
    with gzip.open(trace_file, "wt") as fh:
        json.dump({"workload": wl.name, "seed": seed, "ops": count,
                   "exact": sorted(EXACT), **tracer.to_json()}, fh)
    notes = [f"traced prefix: {count} ops, each run untraced ({plain.busy:.3f} s in all), "
             f"traced ({traced.busy:.3f} s) and with field ops counted ({counted.busy:.3f} s)",
             f"spans written to {trace_file.relative_to(ROOT)}"]
    return plain, metrics, notes


def run_workload(wl, seed, seconds, trace):
    out_name = f"{wl.name}-seed{seed}-trace{int(trace)}"
    if trace:
        done, metrics, notes = per_layer(wl, seed, out_name)
    else:
        done, metrics, notes = end_to_end(wl, seed, seconds)
    want = golden(wl.name, seed)
    for i, (got, expected) in enumerate(zip(done.digests, want)):
        if got is not None and got != expected:
            done.failures[i] = ("mismatch", "output differs from the golden digest")
    first_round = "".join(d or "-" for d in done.digests[:len(wl.sizes)])
    result = {"workload": wl.name, "seed": seed, "trace": int(trace),
              "environment": environment(),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "attempted": done.attempted, "failures": done.failures,
              "digest_round0": digest(first_round), "digests": done.digests,
              "latencies": done.latencies,
              "golden_checked": bool(want), "notes": notes}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{out_name}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(result):
    name = result["workload"]
    for note in result["notes"]:
        print(f"[{name}] {note}")
    for k, m in result["metrics"].items():
        flag = "  (exact)" if k in EXACT and result["trace"] else ""
        print(f"[{name}] {k:32s} {m['value']:.6g} {m['unit']}{flag}")
    for i, (kind, why) in sorted(result["failures"].items()):
        print(f"[{name}] op {i} FAILED ({kind}): {why}")
    print(f"[{name}] output digest of round 0: {result['digest_round0']}"
          + ("  (checked against golden)" if result["golden_checked"] else ""))


def write_golden(names, seed):
    """Record the per-op output digests of every input for ``seed``."""
    table = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    for name in names:
        wl = WORKLOADS[name]
        pm = import_permod()
        inputs = wl.inputs(seed)
        done = run_ops(wl, pm, inputs, count=len(inputs))
        if done.failures:
            raise SystemExit(f"{name}: ops failed, golden not written: {done.failures}")
        table[name] = done.digests
        print(f"{name}: {len(inputs)} digests in {done.busy:.1f} s", flush=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help=f"record the golden digests (use with --seed {GOLDEN_SEED})")
    args = ap.parse_args(argv)
    if not (SRC / "permod" / "__init__.py").is_file():
        print(f"error: no permod sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_golden:
        write_golden(names, args.seed)
        return 0
    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, args.trace)
               for n in names]
    for r in results:
        report(r)
    failed = sum(len(r["failures"]) for r in results)
    metrics = {(k if len(results) == 1 else f"{r['workload']}.{k}"): v
               for r in results for k, v in r["metrics"].items()}
    # a budget-exceeded op is a failure but not a wrong output
    summary = {"correct": all(kind == "budget" for r in results
                              for kind, _ in r["failures"].values()),
               "attempted": sum(r["attempted"] for r in results),
               "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

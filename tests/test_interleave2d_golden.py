"""The first 1,000 seed-1 ops of the `interleave2d` benchmark workload, run
and checked by the workload's own `run` and `check` in index order, and
digested as `perfbench/run.py` digests them: the first 16 hex digits of the
sha256 of the checked text (d_I).  Each must equal its committed digest in
`perfbench/golden.json`, which this test only reads.  So a change of d_I on
the path from term tables through the slice start, system assembly and the
solver fails tier-1, not only a benchmark run."""

import hashlib
import importlib.util
import json
import pathlib

import permod

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
OPS = 1000


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_seed_1_interleave2d_ops_match_the_golden_digests():
    wl = load_workloads().WORKLOADS["interleave2d"]
    want = json.loads((PERFBENCH / "golden.json").read_text())["interleave2d"][:OPS]
    state, got = {}, []
    for inp in wl.inputs(1, n=OPS):
        text = wl.check(permod, inp, wl.run(permod, inp, state))
        got.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    assert len(want) == OPS and got == want

"""The 40 seed-1 ops of the `infer` benchmark workload, run and checked by
the workload's own `run` and `check` in index order, and digested as
`perfbench/run.py` digests them: the first 16 hex digits of the sha256 of
the checked text (the `ExperimentRecord` JSON).  Each must equal its
committed digest in `perfbench/golden.json`, which this test only reads.
So a byte change on the path from sampling through the KDE, the cluster
modules and the rank-shift proxy fails tier-1, not only a benchmark run."""

import hashlib
import importlib.util
import json
import pathlib

import permod

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_1_infer_ops_match_the_golden_digests():
    wl = load_workloads().WORKLOADS["infer"]
    want = json.loads((PERFBENCH / "golden.json").read_text())["infer"]
    state, got = {}, []
    for inp in wl.inputs(1):
        text = wl.check(permod, inp, wl.run(permod, inp, state))
        got.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    assert len(want) == wl.n_inputs == 40 and got == want

"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import permod  # noqa: E402
import run  # noqa: E402
from tracer import FieldOpCounter, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"interleave2d": ((2, 1), (3, 2)), "rips_present": ((2, 2, "l1"), (2, 3, "linf")),
        "infer": (20,)}


def tiny_inputs(name, seed=3):
    sizes = TINY[name]
    return WORKLOADS[name].inputs(seed, sizes=sizes, n=len(sizes))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    wl = WORKLOADS[name]
    a = json.dumps(wl.inputs(7, n=10))
    assert a == json.dumps(wl.inputs(7, n=10))
    assert a != json.dumps(wl.inputs(8, n=10))


def snapshot():
    """id() of every attribute of every permod module and of their classes."""
    out = {}
    for modname, mod in sorted(sys.modules.items()):
        if modname != "permod" and not modname.startswith("permod."):
            continue
        for attr, value in vars(mod).items():
            out[(modname, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    out[(modname, attr, cattr)] = id(cvalue)
    return out


def test_traced_run_leaves_permod_unchanged():
    before = snapshot()
    for name, wl in WORKLOADS.items():
        with Tracer() as tracer:
            run.Pass().run_op(wl, permod, tiny_inputs(name), probe=tracer)
        with FieldOpCounter() as counter:
            run.Pass().run_op(wl, permod, tiny_inputs(name), probe=counter)
        assert counter.count > 0
        assert len(tracer.span_name) > 1
    assert snapshot() == before


def test_tracer_restores_bindings_when_an_op_raises():
    before = snapshot()
    with pytest.raises(AttributeError):
        with Tracer() as tracer:
            tracer.start(0)
            permod.interleave.solve_finite_field(None)
    assert snapshot() == before


def test_self_time_on_synthetic_span_tree():
    names = ["root", "a", "b"]
    #        root[0,10] -> a[1,4], b[5,9] -> a[6,7]
    name = [0, 1, 2, 1]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    got = self_times(names, name, start, end, parent)
    assert got == pytest.approx({"root": 3.0, "a": 4.0, "b": 3.0})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_passes_checks(name):
    wl = WORKLOADS[name]
    inputs = tiny_inputs(name)
    done = run.run_ops(wl, permod, inputs, count=len(inputs))
    assert done.failures == {}
    assert all(done.digests)
    again = run.Pass()
    for _ in inputs:
        again.run_op(wl, permod, inputs, expect=done)
    assert again.failures == {}


def test_layer_counts_on_interleave_and_rips():
    wl = WORKLOADS["interleave2d"]
    inputs = tiny_inputs("interleave2d")
    with Tracer() as tracer:
        done = run.Pass()
        for _ in inputs:
            done.run_op(wl, permod, inputs, probe=tracer)
    c = tracer.counts
    assert c["quadsys.solve_calls"] > 0
    assert c["interleave.distance_calls"] == 2
    assert c["quadsys.nodes"] > 0
    wl = WORKLOADS["rips_present"]
    inputs = tiny_inputs("rips_present")
    with Tracer() as tracer:
        done = run.Pass()
        for _ in inputs:
            done.run_op(wl, permod, inputs, probe=tracer)
    c = tracer.counts
    assert c["quadsys.solve_calls"] == 0
    assert c["homology.present_calls"] == 4
    assert c["homology.hilbert_calls"] > 0


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "infer",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Every name that perfbench's outside-in tracer rebinds must still exist.

The tracer (`perfbench/tracer.py`) replaces each `(owner, attribute)` of its
`LAYERS` table with a timing wrapper.  Removing or renaming one of those
names in `src/` breaks only a traced benchmark run, so this test loads the
table as it is and checks every binding against the library.
"""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_binding_resolves():
    tracer = load_tracer()
    assert tracer.LAYERS
    missing = [(path, attr) for path, attr, _, _ in tracer.LAYERS
               if attr not in vars(tracer._owner(path))]
    assert missing == []

"""Every name that perfbench's outside-in tracer rebinds must still exist.

The tracer (`perfbench/tracer.py`) replaces each `(owner, attribute)` of its
`LAYERS` table with a timing wrapper.  Removing or renaming one of those
names in `src/` breaks only a traced benchmark run, so this test loads the
table as it is and checks every binding against the library.  The other
way round, an import kept in `src/` only for the tracer (marked
`# noqa: F401 (perfbench traces ...)`) must name a binding of the table, so
that such imports go when the rebinding goes.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
TRACED_MARK = "# noqa: F401 (perfbench traces"


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


def test_tracer_only_imports_are_bound_by_the_tracer():
    bound = {(path, attr) for path, attr, _, _ in load_tracer().LAYERS}
    marked = []
    for path in sorted((ROOT / "src" / "permod").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and any(
                    TRACED_MARK in ln for ln in lines[node.lineno - 1:node.end_lineno]):
                marked += [(f"permod.{path.stem}", alias.asname or alias.name)
                           for alias in node.names]
    assert marked
    assert [name for name in marked if name not in bound] == []

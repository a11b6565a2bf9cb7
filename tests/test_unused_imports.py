"""No module of `src/permod` imports a name that it never reads.

pyflakes' F401 check, on `ast` alone: every name that a top-level import
binds must be read (an `ast.Name` in load context) somewhere in the module.
`__init__.py` is left out, its imports being the package's re-exports, and
so is an import marked `# noqa: F401 (perfbench traces ...)`: it is kept
for the tracer's rebinding, and `test_tracer_bindings.py` checks it names
a binding of the tracer's table.
"""

import ast

from test_tracer_bindings import ROOT, TRACED_MARK


def unused_imports(source):
    """The names bound by source's top-level imports, unmarked, that the
    module never reads, in order."""
    tree, lines = ast.parse(source), source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not any(
                TRACED_MARK in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            bound = ((alias.asname or alias.name).partition(".")[0] for alias in node.names)
            out += [name for name in bound if name not in read]
    return out


def test_the_check_finds_each_unused_name():
    source = ("import os\nimport sys, os.path\nfrom a import (b as c,\n    d)\n"
              "from e import f  " + TRACED_MARK + " it)\n"
              "def g():\n    import h\n    return h, d\nd = sys\n")
    assert unused_imports(source) == ["os", "os", "c"]


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted((ROOT / "src" / "permod").glob("*.py"))
    assert len(paths) > 5
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in paths if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}

"""Every name a quillen module imports is used by that module.

An ast scan of src/quillen/*.py: a name bound by an import counts as used
when the module references it anywhere, lists it in its own __all__, or
the package __init__ re-exports it from that module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quillen"


def _imported_names(tree):
    """(bound name, line) for each top-level or nested import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if a.name != "*":
                    yield a.asname or a.name, node.lineno


def _referenced_names(tree):
    # a dotted reference such as np.int64 has a Name node at its root
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {e.value for e in node.value.elts}
    return set()


def _reexports():
    """(module, name) pairs the package __init__ imports from a submodule."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {(node.module, a.asname or a.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names}


def unused_imports(source, stem, reexports):
    """Imported names of module `stem` (given as source) it never uses."""
    tree = ast.parse(source)
    used = _referenced_names(tree) | _all_names(tree)
    return [f"{stem}.py:{line}: {name}"
            for name, line in _imported_names(tree)
            if name not in used and (stem, name) not in reexports]


def test_unused_imports_are_found():
    # the scanner itself: one unused name among used ones
    source = "import os\nfrom x import a, b\nprint(a, os.sep)\n"
    assert unused_imports(source, "probe", set()) == ["probe.py:2: b"]
    assert unused_imports(source, "probe", {("probe", "b")}) == []


def test_no_unused_imports_in_src():
    reexports = _reexports()
    found = [u for path in sorted(SRC.glob("*.py"))
             for u in unused_imports(path.read_text(), path.stem, reexports)]
    assert found == []

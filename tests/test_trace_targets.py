"""The benchmark's traced run wraps quillen functions by name.

perfbench/tracing.py lists them in TARGETS as (span, module, attribute
path, hook).  The file is parsed, not imported, so this test only reads
it; a renamed or removed target then fails here rather than at install.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [tuple(ast.literal_eval(e) for e in entry.elts[:3])
                    for entry in node.value.elts]
    raise AssertionError("no TARGETS list in perfbench/tracing.py")


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    for span, module, path in targets:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{span}: {module}.{path} is gone"
            owner = getattr(owner, attr)
        assert callable(owner), f"{span}: {module}.{path} is not callable"

"""No quillen module calls np.unique without a return_* keyword.

The one-argument form imports numpy.ma on its first call, and that
import is billed to whichever question asks first; posets.sorted_unique
is the plain dedup.  An ast scan of src/quillen/*.py, in the style of
tests/test_no_unused_imports.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quillen"


def _asks_for_more(call):
    """Whether a call passes some return_* keyword not set to False."""
    return any(k.arg and k.arg.startswith("return_")
               and not (isinstance(k.value, ast.Constant)
                        and k.value.value is False)
               for k in call.keywords)


def plain_unique_calls(source, stem):
    """Lines of module `stem` (given as source) that call numpy's unique,
    as np.unique, numpy.unique or an imported unique, in its plain form."""
    tree = ast.parse(source)
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "numpy"
             for a in node.names if a.name == "unique"}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or _asks_for_more(node):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "unique"
                and isinstance(f.value, ast.Name)
                and f.value.id in ("np", "numpy")) \
                or (isinstance(f, ast.Name) and f.id in names):
            found.append(f"{stem}.py:{node.lineno}")
    return found


def test_plain_unique_calls_are_found():
    # the scanner itself: the plain forms, and the forms that ask for more
    source = ("import numpy as np\nfrom numpy import unique as u\n"
              "np.unique(a)\nnp.unique(a, return_index=True)\n"
              "u(a)\nnp.unique(a, return_counts=False)\n"
              "u(a, return_inverse=True)\nb.unique(a)\n")
    assert plain_unique_calls(source, "probe") == \
        ["probe.py:3", "probe.py:5", "probe.py:6"]


def test_no_plain_unique_in_src():
    found = [c for path in sorted(SRC.glob("*.py"))
             for c in plain_unique_calls(path.read_text(), path.stem)]
    assert found == []

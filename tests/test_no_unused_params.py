"""Every parameter a quillen function takes is read by that function.

An ast scan of src/quillen/*.py: a parameter counts as read when its name
is loaded anywhere in the function's body, nested functions included.
`self` and `cls` are exempt, and so are the `cli.cmd_*` handlers, which
share one signature whether or not they use the config.  A parameter
that nothing reads is a knob that does nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quillen"

EXEMPT = {"self", "cls"}


def _params(fn):
    a = fn.args
    named = a.posonlyargs + a.args + a.kwonlyargs
    named += [v for v in (a.vararg, a.kwarg) if v is not None]
    return [p.arg for p in named]


def unused_params(source, stem):
    """'stem.py:line: function(param)' for each parameter never read."""
    tree = ast.parse(source)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        if stem == "cli" and name.startswith("cmd_"):
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        found += [f"{stem}.py:{fn.lineno}: {name}({p})"
                  for p in _params(fn) if p not in EXEMPT and p not in read]
    return found


def test_unused_params_are_found():
    # the scanner itself: a stored-only and an unread parameter are caught
    source = ("def f(a, b, c=1, *, d=2):\n"
              "    c = a\n"
              "    return d\n"
              "class K:\n"
              "    def m(self, x):\n"
              "        return lambda y: x\n")
    assert unused_params(source, "probe") == [
        "probe.py:1: f(b)", "probe.py:1: f(c)", "probe.py:6: <lambda>(y)"]
    assert unused_params("def cmd_x(cfg):\n    pass\n", "cli") == []


def test_no_unused_params_in_src():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [u for path in paths
             for u in unused_params(path.read_text(), path.stem)]
    assert found == []

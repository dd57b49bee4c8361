"""Every parameter a quillen function takes is read by that function, and
every defaulted one is supplied by some call.

An ast scan of src/quillen/*.py: a parameter counts as read when its name
is loaded anywhere in the function's body, nested functions included.
`self` and `cls` are exempt, and so are the `cli.cmd_*` handlers, which
share one signature whether or not they read the parsed arguments.  A
parameter that nothing reads is a knob that does nothing.

A defaulted parameter counts as supplied when some call in src, scripts,
perfbench or tests, to a callee of the function's name (the class's for
__init__), passes it by keyword or passes enough positional arguments to
reach it; a call with *args or **kwargs supplies what it may.  Calls are
matched by name alone, so a call to another function of the same name
counts too.  A default that no call overrides is a knob that nobody
turns.
"""

import ast
import math
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quillen"
CALLERS = ("src", "scripts", "perfbench", "tests")

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


def _defaulted(fn, offset):
    """(name, position or None) for each defaulted parameter of fn, the
    position counted from the first argument a caller passes."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i - offset) for i, p in enumerate(positional)
           if i >= first]
    return out + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]


def _definitions(tree):
    """(callee name, function, offset) for every function in tree: a
    method's callers pass no self or cls, and __init__ is called by its
    class's name."""
    out = []
    for node in ast.walk(tree):
        body = node.body if isinstance(node, (ast.Module, ast.ClassDef,
                                              ast.FunctionDef)) else []
        for fn in body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            method = isinstance(node, ast.ClassDef) and not static
            name = (node.name if method and fn.name == "__init__"
                    else fn.name)
            out.append((name, fn, int(method)))
    return sorted(out, key=lambda d: d[1].lineno)


def _calls(tree, owner=None):
    """(callee name, call) for every call in tree; inside a class body a
    call to cls is a call to that class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _calls(node, node.name)
            continue
        if isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "id", None) or getattr(f, "attr", None)
            if name == "cls" and owner is not None:
                name = owner
            if name is not None:
                yield name, node
        yield from _calls(node, owner)


def supplied(sources):
    """callee name -> (keywords passed, most positional arguments passed),
    over every call in sources; *args counts as any number, **kwargs as
    any keyword."""
    keywords, most = defaultdict(set), defaultdict(int)
    for source in sources:
        for name, call in _calls(ast.parse(source)):
            starred = any(isinstance(x, ast.Starred) for x in call.args)
            most[name] = max(most[name],
                             math.inf if starred else len(call.args))
            keywords[name].update(k.arg or "**" for k in call.keywords)
    return keywords, most


def unsupplied_defaults(source, stem, calls):
    """'stem.py:line: function(param)' for each defaulted parameter of a
    function in source that no call supplies, calls being supplied() of
    the callers' sources."""
    keywords, most = calls
    found = []
    for name, fn, offset in _definitions(ast.parse(source)):
        for param, pos in _defaulted(fn, offset):
            if param in keywords[name] or "**" in keywords[name]:
                continue
            if pos is not None and most[name] > pos:
                continue
            found.append(f"{stem}.py:{fn.lineno}: {fn.name}({param})")
    return found


def test_unsupplied_defaults_are_found():
    # the scanner itself: by keyword, by position past self, through a
    # class's name and through *args or **kwargs, and what none supplies
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n"
              "    pass\n"
              "class K:\n"
              "    def __init__(self, x=0, y=0):\n"
              "        pass\n"
              "    def m(self, u=0, v=0):\n"
              "        pass\n"
              "    @staticmethod\n"
              "    def s(w=0):\n"
              "        pass\n"
              "def g(z=0, *, q=0):\n"
              "    def h(r=0):\n"
              "        pass\n"
              "    return h\n")
    calls = supplied(["f(0, 1, e=5)\nK(1)\nk.m(1, 2)\nK.s()\ng(*rest)\n"])
    assert unsupplied_defaults(source, "probe", calls) == [
        "probe.py:1: f(c)", "probe.py:1: f(d)", "probe.py:4: __init__(y)",
        "probe.py:9: s(w)", "probe.py:11: g(q)", "probe.py:12: h(r)"]
    assert unsupplied_defaults(source, "probe", supplied(["f(**kw)"]))[:2] == [
        "probe.py:4: __init__(x)", "probe.py:4: __init__(y)"]


def test_every_default_is_supplied():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    calls = supplied([path.read_text() for top in CALLERS
                      for path in sorted((ROOT / top).rglob("*.py"))])
    found = [u for path in paths for u in unsupplied_defaults(
        path.read_text(), path.stem, calls)]
    assert found == []

"""Every function, class and method quillen defines is used somewhere.

An ast scan of src/quillen/*.py: each top-level function and class, and
each method, must be referenced outside its own definition by some file
under src/, scripts/, perfbench/ or tests/.  A reference is a name or
attribute in code, or an identifier inside a string literal other than a
docstring, since the tracer and the CLI reach some functions by name.
Comments and docstrings do not count.  Dunder methods are exempt, and so
are the acceptance criteria, which the @criterion decorator registers.
A definition nothing references is a helper left with no caller.

The same scan covers the attributes a src/quillen class sets on self
(self.x = ...): each must be read somewhere, by the same rules, where
writes do not count: attribute assignment targets, and the names a
__slots__ declaration lists.  An attribute nothing reads is state kept
for no reader.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quillen"
SCANNED = ("src", "scripts", "perfbench", "tests")
WORD = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree):
    """ids of the Constant nodes that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _writes(tree):
    """ids of the nodes that only write a name: attribute assignment
    targets, and the strings of __slots__ declarations."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(id(node))
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__slots__" for t in node.targets):
            out.update(id(n) for n in ast.walk(node.value))
    return out


def references(tree, skip=frozenset()):
    """(name, line) for each name the module's code refers to, less the
    nodes whose ids are in skip."""
    docs = _docstrings(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif isinstance(node, ast.Constant) and isinstance(
                node.value, str) and id(node) not in docs:
            for w in WORD.findall(node.value):
                yield w, node.lineno


def _registered(fn):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None)
               == "criterion" for d in fn.decorator_list)


def definitions(tree):
    """Top-level functions and classes, and methods, as ast nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(
                m, (ast.FunctionDef, ast.AsyncFunctionDef)))


def dead_definitions(sources):
    """'path:line: name' for each quillen definition nothing refers to.

    sources maps a path to its text; the definitions come from the paths
    under src/quillen, the references from all of them.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()}
    refs = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            refs.setdefault(name, []).append((path, line))
    found = []
    for path, tree in trees.items():
        if not path.startswith("src/quillen/"):
            continue
        for node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if _registered(node):
                continue
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in refs.get(name, ())):
                found.append(f"{path}:{node.lineno}: {name}")
    return found


def dead_attributes(sources):
    """'path:line: Class.attr' for each attribute a quillen class sets on
    self that nothing reads (references less _writes)."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = {name for tree in trees.values()
            for name, _ in references(tree, skip=_writes(tree))}
    found = []
    for path, tree in trees.items():
        if not path.startswith("src/quillen/"):
            continue
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            seen = set()
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Store) and getattr(
                        node.value, "id", None) == "self" and \
                        node.attr not in seen | read:
                    seen.add(node.attr)
                    found.append(f"{path}:{node.lineno}: "
                                 f"{cls.name}.{node.attr}")
    return found


def test_dead_definitions_are_found():
    # the scanner itself: a recursive helper, a method and a docstring
    # mention are not uses; a call, an attribute and a string are
    sources = {
        "src/quillen/probe.py": (
            '"""Mentions unused_doc."""\n'
            "def walk(n):\n"
            "    return walk(n - 1)\n"
            "class K:\n"
            "    def __init__(self):\n"
            "        self.m()\n"
            "    def m(self):\n"
            "        pass\n"
            "    def lone(self):\n"
            "        pass\n"
            "def unused_doc():\n"
            "    pass\n"
            "def named():\n"
            "    pass\n"
            "@criterion(1)\n"
            "def c01():\n"
            "    pass\n"),
        "tests/test_probe.py": "K()\nTARGETS = ['probe.named']\n",
    }
    assert dead_definitions(sources) == [
        "src/quillen/probe.py:2: walk", "src/quillen/probe.py:9: lone",
        "src/quillen/probe.py:11: unused_doc"]


def test_dead_attributes_are_found():
    # the scanner itself: a write, a __slots__ entry and a docstring
    # mention are not reads; an attribute load and a string are
    sources = {
        "src/quillen/probe.py": (
            "class K:\n"
            '    """Keeps unread_doc."""\n'
            '    __slots__ = ("read", "named", "unread", "unread_doc")\n'
            "    def __init__(self):\n"
            "        self.read = self.named = 1\n"
            "        self.unread = 2\n"
            "        self.unread += 1\n"
            "        self.unread_doc = 3\n"),
        "tests/test_probe.py": "K().read\ngetattr(K(), 'named')\n",
    }
    assert dead_attributes(sources) == [
        "src/quillen/probe.py:6: K.unread",
        "src/quillen/probe.py:8: K.unread_doc"]


def _sources():
    return {str(p.relative_to(ROOT)): p.read_text()
            for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))}


def test_no_dead_code_in_src():
    sources = _sources()
    assert any(p.startswith("src/quillen/") for p in sources)
    assert dead_definitions(sources) == []


def test_no_unread_attributes_in_src():
    sources = _sources()
    assert any(p.startswith("src/quillen/") for p in sources)
    assert dead_attributes(sources) == []

"""Every name quillen exports is used outside the tests.

A name in quillen.__all__ must be referenced by the code under src/
(the package __init__ aside, which only lists it), scripts/ or
perfbench/, or by a Python example in README.md.  References are those
of test_no_dead_code.references: names, attributes, imports, keywords
and identifiers inside string literals, never comments or docstrings.
A name only tests reach is a test helper, and belongs under tests/.
Dunder names are exempt.
"""

import ast
import re

from test_no_dead_code import ROOT, references

SCANNED = ("src", "scripts", "perfbench")
INIT = ROOT / "src" / "quillen" / "__init__.py"
EXAMPLE = re.compile(r"```python\n(.*?)```", re.S)


def exported(init_source):
    """The names the package __init__ lists in __all__."""
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return [e.value for e in node.value.elts]
    return []


def unreached(names, sources, readme):
    """The names, less dunders, that no code in sources (path -> text)
    and no ```python block of the readme text refers to."""
    texts = list(sources.values()) + EXAMPLE.findall(readme)
    seen = {name for text in texts for name, _ in references(ast.parse(text))}
    return [n for n in names if n not in seen
            and not (n.startswith("__") and n.endswith("__"))]


def test_unreached_exports_are_found():
    # the scanner itself: a docstring or comment mention is no use; a
    # call, an import, a README example and a string are
    sources = {
        "src/quillen/cli.py": ('"""Calls doc_only."""\n'
                               "from .checkers import imported\n"
                               "called()  # commented\n"
                               "TARGETS = ['homology.named']\n"),
    }
    readme = ("Uses `prose_only`.\n```python\nshown()\n```\n"
              "```sh\nqg sh_only\n```\n")
    names = ["called", "imported", "named", "shown", "doc_only",
             "commented", "prose_only", "sh_only", "__version__"]
    assert unreached(names, sources, readme) == [
        "doc_only", "commented", "prose_only", "sh_only"]


def test_every_export_is_used_outside_the_tests():
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))
               if p != INIT}
    names = exported(INIT.read_text())
    assert len(names) > 1
    assert unreached(names, sources, (ROOT / "README.md").read_text()) == []

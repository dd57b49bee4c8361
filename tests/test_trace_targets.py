"""The benchmark's traced run wraps quillen functions by name.

perfbench/tracing.py lists them in TARGETS as (span, module, attribute
path, hook).  The file is parsed, not imported, to list them, so a
renamed or removed target fails here rather than at install.  The
boundary counter hook is loaded from the file and run on a complex.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from quillen.homology import RawComplex
from quillen.posets import order_complex
from quillen.pposets import ap_poset

from conftest import bundled

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


def test_boundary_counter_counts_every_entry():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    K = order_complex(ap_poset(bundled("sym5"), 2))
    raw = RawComplex.from_simplicial(K)
    counters = Counter()
    tracing._count_raw(counters, (K,), {}, raw)
    want = Counter()
    for k, B in raw.cols.items():
        want[tracing._degree_key("homology.boundary_nnz", k)] += len(B.rows)
    assert sum(want.values()) > 0
    assert {key: n for key, n in counters.items()
            if key.startswith("homology.boundary_nnz.d")} == want
    assert counters["homology.boundary_nnz"] == sum(want.values())

"""Self-test of the benchmark's wrapping and relabeling, on small groups.

    python3 -m pytest perfbench/test_tracing.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import quillen  # noqa: E402
import quillen.checkers  # noqa: E402
import quillen.homology  # noqa: E402
import quillen.pposets  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402
from run import layer_metrics  # noqa: E402


def _answers():
    """A few answers from each layer, on fresh groups (so no cache is shared)."""
    sym6 = quillen.load_group("sym6").group.full()
    P = quillen.ap_poset(sym6, 2)
    R = quillen.bouc_poset(sym6, 2)
    ctx = quillen.OrbitContext(quillen.load_group("alt6").group.full(), 2)
    return [P.n, list(quillen.betti_of_poset(P).tilde), R.n,
            list(quillen.betti_of_poset(R).tilde),
            quillen.check_conditions(ctx).verdicts(),
            quillen.check_thm41(ctx).verdict,
            quillen.check_thm410(ctx).verdict,
            {k: c.verdict for k, c in quillen.check_propEM(ctx, 1).items()}]


def test_every_binding_is_wrapped_and_answers_agree():
    plain = _answers()
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        assert tracing.unwrapped_bindings() == []
        # names imported into other modules are rebound there too
        for fn in (quillen.pposets.centralizer, quillen.checkers.centralizer,
                   quillen.homology.order_complex, quillen.centralizer,
                   quillen.ap_poset, quillen.PermGroup.generate):
            assert hasattr(fn, "__traced__"), fn
        t0 = tracing.time.monotonic()
        traced = _answers()
        t1 = tracing.time.monotonic()
    finally:
        tracing.uninstall(patched)
    assert not hasattr(quillen.pposets.centralizer, "__traced__")
    assert "quillen.pposets.centralizer" in tracing.unwrapped_bindings()
    assert traced == plain

    trace = json.loads(json.dumps(tracer.dump()))
    m = layer_metrics(trace, t0, t1)
    for key in ("groups.generate_s", "groups.lookup_rows_s", "groups.normalizer_s",
                "pposets.orbit_context_s", "posets.beat_point_core_s",
                "homology.sparse_rank_s", "checkers.self_s"):
        assert m[key] > 0, key
    assert m["groups.lookup_rows.rows"] > 0
    assert m["posets.simplices"] == sum(
        m[f"posets.simplices.d{k}"] for k in range(tracing.TOP_DEGREE)) + \
        m[f"posets.simplices.d{tracing.TOP_DEGREE}_up"]
    assert 0 <= m["bench.unattributed_s"] <= t1 - t0
    # self times and the unattributed time partition the traced interval
    total = sum(v for k, v in m.items() if k.endswith("_s"))
    assert abs(total - (t1 - t0)) < 1e-6


def test_relabeling_is_seeded_and_keeps_the_group(tmp_path):
    a = specs.write_specs(["a8-in-s8", "l34"], 7, tmp_path / "a")
    b = specs.write_specs(["a8-in-s8", "l34"], 7, tmp_path / "b")
    c = specs.write_specs(["a8-in-s8", "l34"], 8, tmp_path / "c")
    for name in a:
        text = Path(a[name]["spec"]).read_text()
        assert text == Path(b[name]["spec"]).read_text()
        assert a[name]["relabeling"] == b[name]["relabeling"]
        raw = json.loads(text)
        assert raw["construction"] == "generators"
        bundle = quillen.load_group(a[name]["spec"])
        assert bundle.group.order == quillen.load_group(name).group.order
    assert a["l34"]["relabeling"] != c["l34"]["relabeling"]
    comp = quillen.load_group(a["a8-in-s8"]["spec"]).components
    assert [L.order for L in comp] == [20160]

import json

import pytest

from quillen.errors import MalformedSpec, OrderCapExceeded
from quillen import gspec
from quillen.gspec import BUNDLED, build_group, load_group

EXPECTED = {
    "alt5": (60, 5), "sym4": (24, 4), "sym5": (120, 5), "alt6": (360, 6),
    "sym6": (720, 6), "aut-alt6": (1440, 10), "alt8": (20160, 8),
    "sym8": (40320, 8), "a8-in-s8": (40320, 8), "d10": (10, 5),
    "l34": (20160, 21), "a5xa5-e": (7200, 10), "a5xa5-exr": (14400, 10),
}


def test_bundled_list_matches():
    assert sorted(BUNDLED) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bundled_builds(name):
    b = load_group(name)
    order, degree = EXPECTED[name]
    assert b.group.order == order
    assert b.group.degree == degree


def test_constructions():
    assert build_group({"construction": "cyclic", "degree": 6}).group.order == 6
    assert build_group({"construction": "dihedral", "order": 14}).group.order == 14
    spec = {"construction": "direct_product",
            "factors": [{"construction": "cyclic", "degree": 2},
                        {"construction": "cyclic", "degree": 3}]}
    assert build_group(spec).group.order == 6
    spec = {"construction": "subgroup_of",
            "parent": {"construction": "symmetric", "degree": 4},
            "generators": ["(1 2 3)", "(2 3 4)"]}
    assert build_group(spec).group.order == 12


def test_each_spec_node_is_built_once(monkeypatch):
    # a subgroup_of spec builds its parent's rows once, inside its own
    # node, and build_group builds the top node once
    calls = []
    build_rows = gspec._build_rows

    def counting(raw, cap):
        calls.append(raw["construction"])
        return build_rows(raw, cap)

    monkeypatch.setattr(gspec, "_build_rows", counting)
    spec = {"construction": "subgroup_of",
            "parent": {"construction": "symmetric", "degree": 5},
            "generators": ["(1 2 3 4 5)", "(1 2)"]}
    assert build_group(spec).group.order == 120
    assert calls == ["subgroup_of", "symmetric"]
    calls.clear()
    assert load_group("a5xa5-exr").group.order == 14400
    assert calls == ["semidirect", "direct_product", "alternating",
                     "alternating"]


def test_semidirect():
    spec = {"construction": "semidirect",
            "base": {"construction": "cyclic", "degree": 3},
            "top": ["(2 3)"]}
    assert build_group(spec).group.order == 6


def test_order_verified():
    with pytest.raises(MalformedSpec):
        build_group({"construction": "cyclic", "degree": 4, "order": 5})


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_group({"construction": "symmetric", "degree": 8}, order_cap=100)


def test_file_roundtrip(tmp_path):
    spec = {"name": "k4", "construction": "generators", "degree": 4,
            "generators": ["(1 2)(3 4)", "(1 3)(2 4)"]}
    path = tmp_path / "k4.spec"
    path.write_text(json.dumps(spec))
    b = load_group(str(path))
    assert b.group.order == 4
    assert b.spec.name == "k4"


def test_declared_components_parsed():
    b = load_group("a8-in-s8")
    assert len(b.components) == 1
    assert b.components[0].order == 20160


def test_malformed():
    with pytest.raises(MalformedSpec):
        build_group({"construction": "nonsense"})
    with pytest.raises(MalformedSpec):
        build_group({"degree": 5})
    # a construction without its required field names both
    for cons, field in [("symmetric", "degree"), ("alternating", "degree"),
                        ("cyclic", "degree"), ("dihedral", "order"),
                        ("direct_product", "factors"), ("semidirect", "base"),
                        ("subgroup_of", "parent"), ("generators", "degree")]:
        with pytest.raises(MalformedSpec,
                           match=f"{cons} construction needs a '{field}'"):
            build_group({"construction": cons})
    # a nested spec that is no object is malformed too
    with pytest.raises(MalformedSpec, match="must be a JSON object"):
        build_group({"construction": "direct_product", "factors": [5]})
    # a field of the wrong type names the construction and the field: a
    # count is an integer >= 1, never a bool, a float or a string, and a
    # generator list is a list of strings
    sym = {"construction": "symmetric", "degree": 3}
    for spec, field in [
            ({"construction": "symmetric", "degree": [3]}, "degree"),
            ({"construction": "symmetric", "degree": 2.5}, "degree"),
            ({"construction": "symmetric", "degree": True}, "degree"),
            ({"construction": "symmetric", "degree": -4}, "degree"),
            ({"construction": "alternating", "degree": "abc"}, "degree"),
            ({"construction": "cyclic", "degree": 0}, "degree"),
            ({"construction": "generators", "degree": "x",
              "generators": ["(1 2)"]}, "degree"),
            ({"construction": "generators", "degree": 3,
              "generators": [5]}, "generators"),
            ({"construction": "generators", "degree": 3,
              "generators": "(1 2)"}, "generators"),
            ({"construction": "dihedral", "order": {"a": 1}}, "order"),
            ({"construction": "dihedral", "order": "x"}, "order"),
            ({**sym, "order": "6"}, "order"),
            ({**sym, "order": 6.0}, "order"),
            ({**sym, "components": [5]}, "components"),
            ({**sym, "components": ["(1 2 3)"]}, "components"),
            ({"construction": "direct_product", "factors": sym}, "factors"),
            ({"construction": "semidirect", "base": sym, "top": "(1 2)"},
             "top"),
            ({"construction": "subgroup_of", "parent": sym,
              "generators": [["(1 2)"]]}, "generators"),
            # a point is an int16 row entry, so a degree is at most 32767
            ({"construction": "alternating", "degree": 40_000}, "degree"),
            ({"construction": "generators", "degree": 40_000,
              "generators": ["(1 40000)"]}, "degree"),
            ({"construction": "symmetric", "degree": 10 ** 8}, "degree"),
            ({"construction": "dihedral", "order": 100_000}, "order")]:
        with pytest.raises(MalformedSpec, match=(
                f"{spec['construction']} construction: '{field}' must be")):
            build_group(spec)
    with pytest.raises(MalformedSpec, match="40000 points, above 32767"):
        build_group({"construction": "direct_product", "factors": [
            {"construction": "cyclic", "degree": 20_000}] * 2})
    # an order past the cap is refused before any row is built: n!, n!/2
    # and n are known from the degree
    for spec, cap in (({"construction": "symmetric", "degree": 32_767}, None),
                      ({"construction": "alternating", "degree": 11}, None),
                      ({"construction": "cyclic", "degree": 30}, 29),
                      ({"construction": "dihedral", "order": 60}, 59)):
        with pytest.raises(OrderCapExceeded, match=(
                f"{spec['construction']} group order exceeds cap")):
            build_group(spec, order_cap=cap)
    assert build_group({"construction": "cyclic", "degree": 30},
                       order_cap=30).group.order == 30


def test_a_spec_cap_is_refused():
    # the order cap is the load's: a "cap" field, at any depth and of any
    # value, is refused by name, and never read
    sym = {"construction": "symmetric", "degree": 3}
    for spec in ({**sym, "cap": 100}, {**sym, "cap": "big"}, {**sym, "cap": 0},
                 {"construction": "direct_product",
                  "factors": [sym, {**sym, "cap": 10}]}):
        with pytest.raises(MalformedSpec, match=(
                "symmetric construction: 'cap' is not a spec field")):
            build_group(spec, order_cap=10)


def test_generators_outside_the_group():
    with pytest.raises(MalformedSpec, match="component generator"):
        build_group({"construction": "alternating", "degree": 4,
                     "components": [["(1,2)"]]})
    with pytest.raises(MalformedSpec, match="leave the parent"):
        build_group({"construction": "subgroup_of",
                     "parent": {"construction": "alternating", "degree": 4},
                     "generators": ["(1 2)"]})
    # a nested node is checked where it is built, not at the top alone
    with pytest.raises(MalformedSpec, match="leave the parent"):
        build_group({"construction": "direct_product", "factors": [
            {"construction": "cyclic", "degree": 2},
            {"construction": "subgroup_of",
             "parent": {"construction": "alternating", "degree": 4},
             "generators": ["(1 2)"]}]})
    with pytest.raises(MalformedSpec, match="does not normalize the base"):
        build_group({"construction": "semidirect",
                     "base": {"construction": "generators", "degree": 3,
                              "generators": ["(1 2)"]},
                     "top": ["(1 2 3)"]})

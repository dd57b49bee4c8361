"""Group spec files: a small JSON format describing how to build a group.

A spec is a JSON object with a "construction" field:

  generators      {"degree": n, "generators": ["(1 2)(3 4)", ...]}
  symmetric       {"degree": n}
  alternating     {"degree": n}
  cyclic          {"degree": n}
  dihedral        {"order": 2*m}          acts on m points
  direct_product  {"factors": [spec, ...]}
  semidirect      {"base": spec, "top": ["...", ...]}
                  top permutations act on the base's points and must
                  normalize the base
  subgroup_of     {"parent": spec, "generators": [...]}

plus optional "name", "order" (expected order, verified) and
"components" (list of generator lists declaring quasisimple subgroups,
for groups whose components the detector cannot certify or where a
specific choice is wanted).  The order cap is the load's, build_group's
order_cap (qg --order-cap), and a spec carrying "cap" is refused.

Counts ("degree", "order") are JSON integers >= 1, and
"generators", "top", "factors", "components" and each component are
lists; any other value is a MalformedSpec naming the construction and
the field.  A degree is at most MAX_DEGREE, the int16 range of a
permutation row's points (MalformedSpec), and a symmetric, alternating,
cyclic or dihedral group whose order passes the order cap raises
OrderCapExceeded before any row is built.  Cycle notation in files is
1-based; indices are 0-based internally.
"""

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import MalformedSpec, NotAnElement, OrderCapExceeded
from .groups import DEFAULT_ORDER_CAP, PermGroup, Subgroup, \
    _check_order_cap, close_indices
from .perms import parse_cycles

# the points of a permutation row are int16
MAX_DEGREE = int(np.iinfo(np.int16).max)

BUNDLED = [
    "alt5", "sym4", "sym5", "alt6", "sym6", "aut-alt6",
    "alt8", "sym8", "a8-in-s8", "d10", "l34", "a5xa5-e", "a5xa5-exr",
]


@dataclass
class GroupSpec:
    name: str
    raw: dict
    path: str = ""

    @classmethod
    def from_text(cls, text, name="", path=""):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise MalformedSpec(f"not valid JSON: {e}")
        if not isinstance(raw, dict) or "construction" not in raw:
            raise MalformedSpec("spec must be a JSON object with a 'construction' field")
        return cls(name=raw.get("name", name), raw=raw, path=path)


@dataclass
class GroupBundle:
    group: PermGroup
    components: list = None   # declared components as Subgroups, or None
    spec: GroupSpec = None


def _sym_gens(n):
    if n < 2:
        return []
    t = list(range(n)); t[0], t[1] = 1, 0
    c = list(range(1, n)) + [0]
    return [t, c] if n > 2 else [t]


def _alt_gens(n):
    if n < 3:
        return []
    return [[*range(i), i + 1, i + 2, i, *range(i + 3, n)] for i in range(n - 2)]


def _field(raw, name):
    """raw[name], which the spec's construction requires."""
    if raw.get(name) is None:
        raise MalformedSpec(
            f"{raw['construction']} construction needs a {name!r} field")
    return raw[name]


def _typed(raw, name, value, ok, what):
    """value, raw[name], if ok(value); else MalformedSpec naming the
    construction and the field."""
    if not ok(value):
        raise MalformedSpec(f"{raw['construction']} construction: {name!r} "
                            f"must be {what}, not {value!r}")
    return value


def _count(raw, name):
    """The required field raw[name], a JSON integer >= 1."""
    return _typed(raw, name, _field(raw, name), lambda v: isinstance(v, int)
                  and not isinstance(v, bool) and v >= 1, "an integer >= 1")


def _degree(raw):
    """The required field raw["degree"], a count (_count) of at most
    MAX_DEGREE points."""
    n = _count(raw, "degree")
    if n > MAX_DEGREE:
        raise MalformedSpec(f"{raw['construction']} construction: 'degree' "
                            f"must be at most {MAX_DEGREE}, not {n}")
    return n


def _within_cap(raw, factors, cap):
    """OrderCapExceeded unless the product of factors, the order of the
    group raw builds, is at most cap: checked before any row is built,
    and stopping at the first partial product past cap."""
    order = 1
    for k in factors:
        order *= k
        if order > cap:
            raise OrderCapExceeded(
                f"{raw['construction']} group order exceeds cap {cap}")


def _is_words(value):
    return isinstance(value, list) and all(isinstance(w, str) for w in value)


def _words(raw, name):
    """The optional field raw[name], a list of cycle words ([] if absent)."""
    return _typed(raw, name, raw.get(name, []), _is_words,
                  "a list of cycle strings")


def _build_rows(raw, cap=DEFAULT_ORDER_CAP):
    """(degree, generator rows) for a spec dict, each nested spec built
    once.  The symmetric, alternating, cyclic and dihedral groups' orders
    are checked against cap first; a semidirect top must normalize its
    base, and subgroup_of generators must lie in the parent, each checked
    in a group generated from the nested spec's rows (MalformedSpec)."""
    cons = raw.get("construction") if isinstance(raw, dict) else None
    if cons is None:
        raise MalformedSpec(
            "spec must be a JSON object with a 'construction' field")
    if "cap" in raw:
        raise MalformedSpec(
            f"{cons} construction: 'cap' is not a spec field; the order "
            f"cap is the load's (order_cap, qg --order-cap)")
    if cons == "generators":
        degree = _degree(raw)
        rows = [parse_cycles(s, degree) for s in _words(raw, "generators")]
        return degree, rows
    if cons == "symmetric":
        n = _degree(raw)
        _within_cap(raw, range(2, n + 1), cap)
        return n, [np.array(g) for g in _sym_gens(n)]
    if cons == "alternating":
        n = _degree(raw)
        _within_cap(raw, range(3, n + 1), cap)
        return n, [np.array(g) for g in _alt_gens(n)]
    if cons == "cyclic":
        n = _degree(raw)
        _within_cap(raw, [n], cap)
        if n < 2:
            return 1, []
        return n, [np.roll(np.arange(n), -1)]
    if cons == "dihedral":
        order = _count(raw, "order")
        if order < 6 or order % 2:
            raise MalformedSpec("dihedral order must be even and at least 6")
        if order // 2 > MAX_DEGREE:
            raise MalformedSpec(f"dihedral construction: 'order' must be at "
                                f"most {2 * MAX_DEGREE}, not {order}")
        _within_cap(raw, [order], cap)
        m = order // 2
        rot = np.roll(np.arange(m), -1)
        ref = (-np.arange(m)) % m
        return m, [rot, ref]
    if cons == "direct_product":
        factors = _typed(raw, "factors", _field(raw, "factors"),
                         lambda v: isinstance(v, list), "a list of specs")
        parts = [_build_rows(f, cap) for f in factors]
        degree = sum(d for d, _ in parts)
        if degree > MAX_DEGREE:
            raise MalformedSpec(f"direct_product construction: the factors "
                                f"have {degree} points, above {MAX_DEGREE}")
        rows = []
        off = 0
        for d, rs in parts:
            for r in rs:
                full = np.arange(degree)
                full[off:off + d] = np.asarray(r) + off
                rows.append(full)
            off += d
        return degree, rows
    if cons == "semidirect":
        degree, base_rows = _build_rows(_field(raw, "base"), cap)
        top_rows = [parse_cycles(s, degree) for s in _words(raw, "top")]
        base = PermGroup.generate(base_rows, degree, name="base",
                                  order_cap=cap)
        # t b t^-1 for each top row t and base generator row b
        conj = [t[np.asarray(b)[np.argsort(t)]]
                for t in top_rows for b in base_rows]
        _lookup(base, np.reshape(conj, (-1, degree)),
                "semidirect top does not normalize the base")
        return degree, base_rows + top_rows
    if cons == "subgroup_of":
        degree, parent_rows = _build_rows(_field(raw, "parent"), cap)
        rows = [parse_cycles(s, degree) for s in _words(raw, "generators")]
        parent = PermGroup.generate(parent_rows, degree, name="parent",
                                    order_cap=cap)
        _lookup(parent, np.reshape(rows, (-1, degree)),
                "subgroup_of generators leave the parent group")
        return degree, rows
    raise MalformedSpec(f"unknown construction {cons!r}")


def build_group(spec, order_cap=None):
    """Build a GroupBundle from a GroupSpec (or raw dict), under the
    order cap order_cap, DEFAULT_ORDER_CAP when None.  A cap below 1 is
    refused (IndexOutOfRange) before any row is built."""
    if isinstance(spec, dict):
        spec = GroupSpec(name=spec.get("name", ""), raw=spec)
    raw = spec.raw
    cap = DEFAULT_ORDER_CAP if order_cap is None else order_cap
    _check_order_cap(cap)
    degree, rows = _build_rows(raw, cap)
    expect = None if raw.get("order") is None else _count(raw, "order")
    G = PermGroup.generate(rows, degree, name=spec.name, order_cap=cap)
    if expect is not None and G.order != expect:
        raise MalformedSpec(
            f"spec {spec.name!r} expected order {expect}, built {G.order}")

    comps = None
    if "components" in raw:
        comps = []
        for gen_list in _typed(raw, "components", raw["components"],
                               lambda v: isinstance(v, list)
                               and all(map(_is_words, v)),
                               "a list of lists of cycle strings"):
            idx = _lookup(G, [parse_cycles(s, degree) for s in gen_list],
                          "component generator outside the group").tolist()
            members = close_indices(G, [i for i in idx if i != 0])
            comps.append(Subgroup(G, members, gens=tuple(i for i in idx if i != 0) or (0,)))
    return GroupBundle(group=G, components=comps, spec=spec)


def _lookup(G, rows, what):
    """Indices of spec-given rows in G; a row outside G is a spec error."""
    try:
        return G.lookup_rows(rows)
    except NotAnElement as e:
        raise MalformedSpec(f"{what}: {e}") from None


def load_group(name_or_path, order_cap=None):
    """Load a bundled spec by name, or any .spec file by path."""
    p = Path(str(name_or_path))
    if p.suffix == ".spec" and p.exists():
        text = p.read_text()
        return build_group(GroupSpec.from_text(text, name=p.stem, path=str(p)),
                           order_cap=order_cap)
    name = str(name_or_path)
    if name in BUNDLED:
        text = resources.files("quillen").joinpath(
            "data", f"{name}.spec").read_text()
        return build_group(GroupSpec.from_text(text, name=name), order_cap=order_cap)
    raise MalformedSpec(
        f"unknown group {name_or_path!r}; bundled names: {', '.join(BUNDLED)}")


@cache
def bundled_group(name):
    """The full group of a bundled spec, built once per process, so its
    subgroup caches are shared by everything that asks for it."""
    return load_group(name).group.full()

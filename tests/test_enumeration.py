"""PermGroup.generate against the dict BFS of enum_oracle.

The element numbering is what every ledger digest and qg/1 digest reads,
so generate must give the oracle's rows in the oracle's order, the same
generator indices and an index that numbers every row as the oracle's
does, and pass an order cap exactly where the oracle does: on the
bundled groups, on seeded relabelings of them, on a conjugation
action's image, and on generated generator sets of degree 1 to 40,
which key as one int64 word up to degree 15 and as several from 16 on.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_index_size
from enum_oracle import enumerate_group
from quillen.errors import IndexOutOfRange, OrderCapExceeded
from quillen.groups import PermGroup, conjugation_action, \
    detect_components
from quillen.gspec import BUNDLED, _build_rows, build_group, load_group
from quillen.posets import _word_width


def assert_same(rows, degree, order_cap=None):
    """generate and the oracle agree on rows under order_cap: the same
    perms, gens and index, or both refuse with OrderCapExceeded."""
    cap = {} if order_cap is None else {"order_cap": order_cap}
    try:
        want = enumerate_group(rows, degree, **cap)
    except OrderCapExceeded:
        with pytest.raises(OrderCapExceeded):
            PermGroup.generate(rows, degree, **cap)
        return None
    G = PermGroup.generate(rows, degree, **cap)
    perms, gens, index = want
    assert G.perms.tobytes() == perms.tobytes()
    assert G.gens == gens
    # every row the oracle indexes maps to the oracle's number, and the
    # sorted index holds nothing else
    rows = np.frombuffer(b"".join(index), dtype=np.int16).reshape(
        len(index), degree)
    assert G.lookup_rows(rows).tolist() == list(index.values())
    assert_index_size(G)
    return G


def _relabel(rows, degree, rng):
    # conjugate every row by one seeded permutation of the points and
    # shuffle their order, as the benchmark relabels its specs
    sigma = np.array(rng.sample(range(degree), degree))
    inv = np.argsort(sigma)
    out = [sigma[np.asarray(r)[inv]] for r in rows]
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_groups_and_relabelings(name):
    bundle = load_group(name)
    degree, rows = _build_rows(bundle.spec.raw)
    G = assert_same(rows, degree)
    # the loaded group is the one generate builds from the spec's rows
    assert G.perms.tobytes() == bundle.group.perms.tobytes()
    rng = random.Random(4101)
    for _ in range(2):
        assert_same(_relabel(rows, degree, rng), degree)


def test_key_words():
    # a row keys as one word through degree 15, as several from 16 on
    assert [_word_width(n, n, 1) for n in (1, 9, 15, 16, 21, 40)] == \
        [1, 9, 15, 15, 14, 11]


def test_conjugation_image():
    sym5 = load_group("sym5").group.full()
    A5 = detect_components(sym5)[0][0]
    act = conjugation_action(sym5, A5)
    rows = act._positions(act.actor.generating_set())
    G = assert_same(rows, int(act.tracking.size))
    assert G.perms.tobytes() == act.image.perms.tobytes()


@pytest.mark.parametrize("name", ["alt8", "l34"])
def test_order_cap_boundary(name):
    # alt8 keys as one word, l34 (degree 21) as two: a cap of |G| builds,
    # |G| - 1 is passed on the level that reaches |G|
    bundle = load_group(name)
    degree, rows = _build_rows(bundle.spec.raw)
    order = bundle.group.order
    assert assert_same(rows, degree, order_cap=order).order == order
    assert assert_same(rows, degree, order_cap=order - 1) is None


@pytest.mark.parametrize("cap", [0, -3])
def test_a_cap_below_one_is_refused(cap, tmp_path):
    # before any enumeration, whichever way the cap arrives
    spec = {"construction": "symmetric", "degree": 5}
    path = tmp_path / "s5.spec"
    path.write_text('{"construction": "generators", "degree": 3, '
                    '"generators": ["(1 2 3)"]}')
    for build in (lambda: build_group(spec, order_cap=cap),
                  lambda: load_group("sym5", order_cap=cap),
                  lambda: load_group(str(path), order_cap=cap),
                  lambda: PermGroup.generate([[1, 0]], 2, order_cap=cap)):
        with pytest.raises(IndexOutOfRange, match=f"order cap {cap} must"):
            build()
    assert PermGroup.generate([], 2, order_cap=1).order == 1


@st.composite
def generator_sets(draw):
    """(degree, rows): up to four generators, each a seeded permutation
    of two to seven points, the identity, or a repeat of an earlier one."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        kind = rng.choice(["moves"] * 4 + ["identity", "repeat"])
        if kind == "repeat" and rows:
            rows.append(rows[rng.integers(len(rows))])
            continue
        row = np.arange(n)
        if kind != "identity":
            pts = rng.choice(n, size=min(n, rng.integers(2, 8)),
                             replace=False)
            row[pts] = rng.permutation(pts)
        rows.append(row)
    return n, rows


@settings(max_examples=80, deadline=None)
@given(generator_sets())
def test_generated_sets(case):
    n, rows = case
    assert_same(rows, n, order_cap=3000)

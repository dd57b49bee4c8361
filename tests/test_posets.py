import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quillen import posets
from quillen.errors import NotAnActionByAutomorphisms, NotOrderPreserving, \
    SimplexCapExceeded
from quillen.homology import betti_of_poset
from quillen.posets import Poset, PosetMap, beat_point_core, fixed_subposet, \
    join_posets, make_map, order_complex
from quillen.pposets import ap_poset

from conftest import bundled


def poset_from_pairs(n, pairs):
    """Strict order from generating pairs (a < b), transitively closed.

    Relabels along a topological order, since poset ids must form a
    linear extension.  Returns None if the pairs close into a cycle.
    """
    lt = [set() for _ in range(n)]
    for a, b in pairs:
        lt[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            new = set()
            for b in lt[a]:
                new |= lt[b]
            if not new <= lt[a]:
                lt[a] |= new
                changed = True
    for a in range(n):
        if a in lt[a]:
            return None
    order = sorted(range(n), key=lambda a: len({b for b in range(n)
                                                if a in lt[b]}))
    pos = {orig: k for k, orig in enumerate(order)}
    up = [0] * n
    for a in range(n):
        for b in lt[a]:
            up[pos[a]] |= 1 << pos[b]
    return Poset(list(range(n)), up, validate=True)


def pair_cases(lo, hi, max_pairs):
    """(n, pairs) with lo <= n <= hi and no pair of the form (a, a)."""
    return st.integers(lo, hi).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1)),
                             max_size=max_pairs).map(
            lambda pairs: [(a, b) for a, b in pairs if a != b])))


def naive_covers(P, ids):
    """{x: (upper covers, lower covers)} of the subposet of P on ids."""
    out = {}
    for x in ids:
        above = [y for y in ids if P.lt(x, y)]
        below = [y for y in ids if P.lt(y, x)]
        out[x] = ([y for y in above if not any(P.lt(z, y) for z in above)],
                  [y for y in below if not any(P.lt(y, z) for z in below)])
    return out


def naive_core_size(P):
    """Size of a core reached by removing the largest beat point left."""
    live = set(range(P.n))
    while True:
        cov = naive_covers(P, live)
        beat = [x for x in live if 1 in (len(cov[x][0]), len(cov[x][1]))]
        if not beat:
            return len(live)
        live.remove(max(beat))


def brute_chain_counts(P):
    counts = []
    for size in range(1, P.n + 1):
        c = 0
        for combo in itertools.combinations(range(P.n), size):
            if all(P.lt(a, b) for a, b in zip(combo, combo[1:])):
                c += 1
        if c:
            counts.append(c)
        else:
            break
    return counts


def test_chain_poset():
    P = poset_from_pairs(3, [(0, 1), (1, 2)])
    assert P.height() == 2
    assert P.reduced_euler() == 0
    core, _, _ = beat_point_core(P)
    assert core.n == 1


def test_antichain():
    P = poset_from_pairs(4, [])
    assert P.height() == 0
    assert P.reduced_euler() == 3


def test_chain_counts_match_complex():
    P = ap_poset(bundled("sym4"), 2)
    K = order_complex(P)
    assert P.chain_counts() == K.simplex_counts


@settings(max_examples=40, deadline=None)
@given(pair_cases(2, 6, 8))
def test_random_poset_chain_counts(case):
    P = poset_from_pairs(*case)
    if P is None:       # the pairs closed into a cycle
        return
    assert P.chain_counts() == brute_chain_counts(P)


@settings(max_examples=25, deadline=None)
@given(pair_cases(2, 6, 8))
def test_random_poset_core_euler(case):
    P = poset_from_pairs(*case)
    if P is None:
        return
    core, inc, ret = beat_point_core(P)
    assert core.reduced_euler() == P.reduced_euler()
    assert len(inc) == core.n
    assert len(ret) == P.n


@settings(max_examples=60, deadline=None)
@given(pair_cases(1, 8, 14))
def test_random_poset_core_is_a_retract_without_beat_points(case):
    P = poset_from_pairs(*case)
    if P is None:
        return
    core, inc, ret = beat_point_core(P)
    for upper, lower in naive_covers(core, range(core.n)).values():
        assert len(upper) != 1 and len(lower) != 1
    PosetMap(P, core, ret)              # validates: ret is order-preserving
    assert list(ret[inc]) == list(range(core.n))
    assert core.n == naive_core_size(P)


def test_join_chain_convolution():
    A = poset_from_pairs(2, [])
    B = poset_from_pairs(3, [(0, 1)])
    J = join_posets([A, B])
    assert J.n == 5
    ca, cb, cj = A.chain_counts(), B.chain_counts(), J.chain_counts()

    def aug(c, k):
        if k == -1:
            return 1
        return c[k] if 0 <= k < len(c) else 0
    for k in range(-1, J.n):
        expect = sum(aug(ca, i) * aug(cb, k - 1 - i) for i in range(-1, k + 1))
        assert aug(cj, k) == expect


def test_join_order():
    A = poset_from_pairs(2, [])
    B = poset_from_pairs(2, [])
    J = join_posets([A, B], tag_elements=True)
    # every element of the first factor lies below every element of the second
    for a in range(2):
        for b in range(2, 4):
            assert J.leq(a, b)
            assert not J.leq(b, a)


def test_induced():
    P = poset_from_pairs(4, [(0, 1), (1, 2), (0, 3)])
    sub, ids = P.induced(np.array([0, 2], dtype=np.int64))
    assert sub.n == 2
    assert sub.leq(0, 1)


def test_make_map_validates():
    P = poset_from_pairs(3, [(0, 1), (0, 2)])
    Q = poset_from_pairs(2, [(0, 1)])
    f = make_map(P, Q, lambda e: Q.elements[0])
    assert list(f.table) == [0, 0, 0]
    # order-reversing target assignment is rejected
    with pytest.raises(NotOrderPreserving):
        PosetMap(P, Q, np.array([1, 0, 0]))


def test_posetmap_compose():
    P = poset_from_pairs(2, [(0, 1)])
    f = PosetMap(P, P, np.array([0, 1]))
    g = f.compose(f)
    assert list(g.table) == [0, 1]


def test_fixed_subposet_validation():
    P = poset_from_pairs(3, [(0, 1)])
    with pytest.raises(NotAnActionByAutomorphisms):
        fixed_subposet(P, [np.array([1, 0, 2])])   # swaps comparable pair
    sub, ids = fixed_subposet(P, [np.array([0, 1, 2])])
    assert sub.n == 3


def test_beat_core_alt5_antichain():
    P = ap_poset(bundled("alt5"), 2)
    core, _, _ = beat_point_core(P)
    assert core.n == 5
    assert core.height() == 0


@pytest.mark.parametrize("name, size", [
    ("sym6", 105), ("aut-alt6", 276), ("l34", 147), ("alt8", 1010)])
def test_beat_core_sizes(name, size):
    assert beat_point_core(ap_poset(bundled(name), 2))[0].n == size


def test_order_complex_counts():
    P = poset_from_pairs(3, [(0, 1), (0, 2)])
    K = order_complex(P)
    assert K.simplex_counts == [3, 2]
    assert K.dimension() == 1
    assert K.reduced_euler() == 0


def test_simplex_cap(monkeypatch):
    # the octahedron has no beat point: its core's complex has all 26
    # simplices, 6 vertices, 12 edges and 8 triangles
    octahedron = join_posets([Poset([0, 1], [0, 0])] * 3)
    assert order_complex(octahedron).simplex_counts == [6, 12, 8]
    monkeypatch.setattr(posets, "SIMPLEX_CAP", 25)
    with pytest.raises(SimplexCapExceeded):
        order_complex(octahedron)
    with pytest.raises(SimplexCapExceeded):
        betti_of_poset(octahedron)
    monkeypatch.setattr(posets, "SIMPLEX_CAP", 26)
    assert betti_of_poset(octahedron).tilde == (0, 0, 1)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import relation_oracle as oracle
from quillen import posets
from quillen.errors import IndexOutOfRange, NotAnActionByAutomorphisms, \
    NotAntisymmetric, NotOrderPreserving, NotTransitiveAfterClosure, \
    SimplexCapExceeded
from quillen.homology import betti_of_poset
from quillen.posets import Poset, PosetMap, beat_point_core, \
    check_action_tables, fixed_subposet, join_posets, make_map, order_complex
from quillen.pposets import ap_poset

from conftest import bundled
from relation_oracle import closed_order, make_poset, poset_of, relation
from simplex_oracle import tuple_chains, tuple_dims


def poset_from_pairs(n, pairs):
    """Strict order from generating pairs (a < b), transitively closed and
    relabelled along a linear extension, validated.  Returns None if the
    pairs close into a cycle."""
    rel = closed_order(n, pairs)
    return None if rel is None else poset_of(n, rel)


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


# (n, strict order as a set of pairs) for posets on at most 7 points
orders = pair_cases(1, 7, 12).map(
    lambda case: (case[0], closed_order(*case))).filter(
    lambda case: case[1] is not None)
# joins of antichains, whose level-preserving permutations are automorphisms
layered = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda sizes: (sum(sizes), oracle.join([(k, set()) for k in sizes])))


@pytest.mark.parametrize("rows, error", [
    ([[2], []], IndexOutOfRange),                 # an id beyond n
    ([[0], []], NotAntisymmetric),                # an element above itself
    ([[], [0]], NotAntisymmetric),                # ids not a linear extension
    ([[1], [2], []], NotTransitiveAfterClosure),  # 0 < 1 < 2 without 0 < 2
])
def test_validate_rejects(rows, error):
    with pytest.raises(error):
        make_poset(range(len(rows)), rows, validate=True)


@settings(max_examples=80, deadline=None)
@given(orders, st.lists(st.integers(0, 6), max_size=9))
@example((4, {(0, 3), (1, 2)}), [0, 1, 2, 3])   # row 0 holds a larger id
def test_induced_matches_the_relation_oracle(case, ids):
    n, rel = case
    P = poset_of(n, rel)
    assert relation(P) == rel
    ids = [i % n for i in ids]
    sub, inc = P.induced(ids)
    assert inc.tolist() == list(sub.elements) == sorted(set(ids))
    assert relation(sub) == oracle.induced(rel, ids)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(orders, layered), min_size=1, max_size=3),
       st.booleans())
def test_join_matches_the_relation_oracle(parts, tag):
    # untagged labels must already be distinct across the factors
    factors = [poset_of(n, rel) if tag else
               make_poset([(k, i) for i in range(n)], oracle.up_rows(n, rel))
               for k, (n, rel) in enumerate(parts)]
    J = join_posets(factors, tag_elements=tag)
    assert relation(J) == oracle.join(parts)
    assert list(J.elements) == [(k, i) for k, (n, _) in enumerate(parts)
                                for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(orders, st.one_of(orders, layered), st.data())
def test_posetmap_accepts_exactly_the_order_preserving_tables(src, tgt, data):
    (n, rel_s), (m, rel_t) = src, tgt
    table = data.draw(st.lists(st.integers(0, m - 1), min_size=n,
                               max_size=n))
    S, T = poset_of(n, rel_s), poset_of(m, rel_t)
    if oracle.order_preserving(rel_s, rel_t, table):
        PosetMap(S, T, table)
    else:
        with pytest.raises(NotOrderPreserving):
            PosetMap(S, T, table)


@settings(max_examples=80, deadline=None)
@given(st.one_of(orders, layered), st.data())
def test_action_check_accepts_exactly_the_automorphisms(case, data):
    n, rel = case
    table = data.draw(st.one_of(
        st.permutations(range(n)),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    P = poset_of(n, rel)
    if oracle.automorphism(n, rel, table):
        check_action_tables(P, [table])
    else:
        with pytest.raises(NotAnActionByAutomorphisms):
            check_action_tables(P, [table])


def test_chain_counts_stay_exact_past_int64():
    # the join of 64 two-point antichains has 2^64 maximal chains
    J = join_posets([poset_of(2, set())] * 64)
    assert J.chain_counts() == [math.comb(64, k) * 2 ** k
                                for k in range(1, 65)]


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
    assert P.chain_counts() == oracle.chain_counts(P.n, relation(P))


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
            assert J.lt(a, b)
            assert not J.lt(b, a)


def test_induced():
    P = poset_from_pairs(4, [(0, 1), (1, 2), (0, 3)])
    sub, ids = P.induced(np.array([0, 2], dtype=np.int64))
    assert sub.n == 2
    assert sub.lt(0, 1)


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
    assert len(K.dims) == 2
    assert K.reduced_euler() == 0


@settings(max_examples=60, deadline=None)
@given(pair_cases(1, 7, 12))
def test_order_complex_matches_tuple_chains(case):
    P = poset_from_pairs(*case)
    if P is None:
        return
    assert tuple_dims(order_complex(P)) == tuple_chains(P)


def test_order_complex_matches_tuple_chains_on_sym5(ap2_sym5):
    K = order_complex(ap2_sym5)
    assert K.simplex_counts == [45, 60]
    assert tuple_dims(K) == tuple_chains(ap2_sym5)


def test_simplex_cap(monkeypatch):
    # the octahedron has no beat point: its core's complex has all 26
    # simplices, 6 vertices, 12 edges and 8 triangles
    octahedron = join_posets([Poset([0, 1], [0, 0, 0], [])] * 3)
    assert order_complex(octahedron).simplex_counts == [6, 12, 8]
    monkeypatch.setattr(posets, "SIMPLEX_CAP", 25)
    with pytest.raises(SimplexCapExceeded):
        order_complex(octahedron)
    with pytest.raises(SimplexCapExceeded):
        betti_of_poset(octahedron)
    monkeypatch.setattr(posets, "SIMPLEX_CAP", 26)
    assert betti_of_poset(octahedron).tilde == (0, 0, 1)

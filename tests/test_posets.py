import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import relation_oracle as oracle
from quillen import posets
from quillen.errors import IndexOutOfRange, InvariantViolated, \
    NotAnActionByAutomorphisms, NotAntisymmetric, NotOrderPreserving, \
    NotTransitiveAfterClosure, SimplexCapExceeded
from quillen.homology import betti_of_poset
from quillen.posets import Poset, PosetMap, SimplicialComplex, \
    beat_point_core, check_action_tables, fixed_subposet, join_posets, \
    order_complex
from quillen.pposets import ap_poset, bouc_poset

from conftest import bundled
from core_oracle import sweep_core
from relation_oracle import closed_order, make_poset, poset_of, relation
from simplex_oracle import dict_faces, tuple_chains, tuple_dims


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
    rel = relation(P)
    out = {}
    for x in ids:
        above = [y for y in ids if (x, y) in rel]
        below = [y for y in ids if (y, x) in rel]
        out[x] = ([y for y in above if not any((z, y) in rel for z in above)],
                  [y for y in below if not any((y, z) in rel for z in below)])
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
@given(st.lists(st.one_of(orders, layered), min_size=1, max_size=3))
def test_join_matches_the_relation_oracle(parts):
    factors = [poset_of(n, rel) for n, rel in parts]
    J = join_posets(factors)
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
    assert not P.related([0, 1, 3], [1, 0, 3]).any()


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


# Sizes and retraction properties only: a core is unique up to
# isomorphism, not as a set of ids.  On 438 of 3 000 random posets of up
# to 12 points (random pairs a < b, closed), the rounds keep a different
# set of the same size than the ascending sweep of core_oracle.
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
    J = join_posets([A, B])
    # every element of the first factor lies below every element of the second
    a, b = np.repeat([0, 1], 2), np.tile([2, 3], 2)
    assert J.related(a, b).all()
    assert not J.related(b, a).any()


def test_induced():
    P = poset_from_pairs(4, [(0, 1), (1, 2), (0, 3)])
    sub, ids = P.induced(np.array([0, 2], dtype=np.int64))
    assert sub.n == 2
    assert sub.related(0, 1)


def test_posetmap_validates():
    P = poset_from_pairs(3, [(0, 1), (0, 2)])
    Q = poset_from_pairs(2, [(0, 1)])
    f = PosetMap(P, Q, np.zeros(3, dtype=np.int64))
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


# every bundled A_p and radical poset that builds in a few tenths of a
# second; a8-in-s8's posets are sym8's
CORE_ORACLE_CASES = [(ap_poset, name, p) for name, p in [
    ("sym4", 2), ("sym4", 3), ("sym5", 2), ("sym5", 3), ("sym6", 2),
    ("sym6", 3), ("alt5", 2), ("alt5", 3), ("alt6", 2), ("alt6", 3),
    ("aut-alt6", 2), ("aut-alt6", 3), ("d10", 2), ("alt8", 2), ("alt8", 3),
    ("l34", 2), ("l34", 3), ("a5xa5-e", 2), ("a5xa5-e", 3),
    ("a5xa5-exr", 2), ("a5xa5-exr", 3), ("sym8", 2), ("sym8", 3)]] + [
    (bouc_poset, name, p) for name, p in [
        ("sym4", 2), ("sym4", 3), ("sym5", 2), ("sym5", 3), ("sym6", 2),
        ("sym6", 3), ("alt6", 2), ("alt6", 3), ("aut-alt6", 2),
        ("aut-alt6", 3), ("d10", 2), ("alt8", 3), ("l34", 3),
        ("a5xa5-e", 3), ("sym8", 3)]]


def test_core_matches_the_sweep_oracle_on_bundled_posets():
    for build, name, p in CORE_ORACLE_CASES:
        P = build(bundled(name), p)
        _, inc, ret = beat_point_core(P)
        assert (inc.tolist(), ret.tolist()) == sweep_core(P.n, relation(P)), \
            (build.__name__, name, p)


def rounds_of_core(monkeypatch, P):
    """(core, inc, ret) of P and the number of rounds that removed points,
    counted by the calls to _odd_depth."""
    odd_depth, calls = posets._odd_depth, []

    def counted(parent):
        calls.append(1)
        return odd_depth(parent)
    monkeypatch.setattr(posets, "_odd_depth", counted)
    return beat_point_core(P), len(calls)


def chain(n):
    lo, hi = np.triu_indices(n, 1)
    return Poset(range(n), posets.row_ptr(lo, n), hi)


def fence(n):
    """Zigzag x0 < x1 > x2 < x3 ...; the minima x0, x2, ... take the ids
    0..m-1 and the maxima x1, x3, ... the ids m.., a linear extension."""
    m = (n + 1) // 2
    top = np.arange(n // 2)             # maximum x(2k+1) lies over x(2k)
    lo = np.concatenate((top, top + 1))  # and over x(2k+2) where it exists
    hi = np.concatenate((top, top)) + m
    keep = lo < m
    lo, hi = lo[keep], hi[keep]
    order = np.lexsort((hi, lo))
    return Poset(range(n), posets.row_ptr(lo, n), hi[order], validate=True)


def crown(k):
    """Minima 0..k-1 and maxima k..2k-1, with i below k + i and below
    k + (i + 1) mod k: every point has two covers, so no beat point."""
    lo = np.repeat(np.arange(k), 2)
    hi = k + np.column_stack((np.arange(k), (np.arange(k) + 1) % k))
    return Poset(range(2 * k), posets.row_ptr(lo, 2 * k),
                 np.sort(hi, axis=1).ravel(), validate=True)


def test_a_chain_halves_in_each_round(monkeypatch):
    n = 3000
    (core, inc, ret), rounds = rounds_of_core(monkeypatch, chain(n))
    assert rounds <= math.ceil(math.log2(n)) + 2
    assert inc.tolist() == [n - 1] and not ret.any()


def test_a_fence_loses_only_its_two_ends_per_round(monkeypatch):
    # the ends are a fence's only beat points, so any scheme of rounds
    # needs linearly many
    n = 1600
    (core, inc, ret), rounds = rounds_of_core(monkeypatch, fence(n))
    assert rounds <= n // 2 + 1
    assert core.n == 1 and not ret.any()


def test_a_crown_takes_no_round(monkeypatch):
    P = crown(5)
    (core, inc, ret), rounds = rounds_of_core(monkeypatch, P)
    assert rounds == 0
    assert inc.tolist() == ret.tolist() == list(range(P.n))


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


def searched_faces(K):
    """K's face table as one index search per degree finds it."""
    out = [np.zeros((len(K.dims[0]), 1), dtype=np.int64)] if K.dims else []
    for k in range(1, len(K.dims)):
        faces = [np.delete(K.dims[k], t, axis=1) for t in range(k + 1)]
        out.append(K.index(k - 1, np.concatenate(faces))
                   .reshape(k + 1, -1).T)
    return out


def check_face_tables(P):
    K = order_complex(P)
    table = [f.tolist() for f in K.faces]
    assert table == [f.tolist() for f in searched_faces(K)]
    assert table == dict_faces(tuple_chains(P))
    # a complex built from the same arrays searches its table once
    assert [f.tolist() for f in SimplicialComplex(K.dims).faces] == table


@settings(max_examples=80, deadline=None)
@given(pair_cases(1, 8, 16))
@example((6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]))
def test_order_complex_grows_the_searched_face_table(case):
    P = poset_from_pairs(*case)
    if P is None:
        return
    check_face_tables(P)


def test_face_tables_of_a_core_and_a_join(ap2_sym5):
    octahedron = join_posets([Poset([0, 1], [0, 0, 0], [])] * 3)
    for P in (ap2_sym5, octahedron,
              beat_point_core(ap_poset(bundled("alt6"), 3))[0]):
        check_face_tables(P)


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


@st.composite
def lookup_cases(draw):
    """(width, table, rows): the distinct rows of a table of width 1 to 5,
    ascending, maybe none, and queries mixing its rows with rows it
    lacks, entries past its largest and negative entries."""
    width = draw(st.integers(1, 5))
    table = sorted(set(draw(st.lists(
        st.tuples(*[st.integers(0, 4)] * width), max_size=30))))
    query = st.tuples(*[st.one_of(st.integers(-2, 6), st.just(1 << 40))]
                      * width)
    rows = draw(st.lists(st.one_of(st.sampled_from(table), query)
                         if table else query, max_size=30))
    return width, table, rows


@settings(max_examples=150, deadline=None)
@given(lookup_cases())
@example((2, [], [(0, 1), (-1, 0)]))
@example((3, [(0, 1, 2), (0, 2, 1)], []))
@example((2, [(0, 4), (1, 0)], [(1, -1)]))   # 1·base − 1 is (0, 4)'s key
def test_row_lookup_matches_a_dict_of_rows(case):
    width, table, rows = case
    found = posets.row_lookup(
        np.array(table, dtype=np.int64).reshape(-1, width),
        np.array(rows, dtype=np.int64).reshape(-1, width))
    index = {row: i for i, row in enumerate(table)}
    assert found.tolist() == [index.get(row, -1) for row in rows]


@pytest.mark.parametrize("table", [
    [(1,), (0,)],
    [(0, 2), (0, 1)],
    [(0, 1), (1, 0), (0, 2)],
    [(0, 1), (0, 1)],
    [(0, 1, 2), (0, 1, 3), (0, 1, 3)],
], ids=["unsorted-1", "unsorted-2", "unsorted-later", "repeated",
        "repeated-last"])
def test_row_lookup_rejects_a_table_whose_rows_do_not_rise(table):
    table = np.array(table, dtype=np.int64)
    for rows in (table[:1], table[:0]):
        with pytest.raises(InvariantViolated, match="do not rise strictly"):
            posets.row_lookup(table, rows)


@st.composite
def wide_tables(draw):
    """A table of width 1 to 20, entries all small (many columns to a
    packed word) or up to 2^40 (one), rows often repeated."""
    width = draw(st.integers(1, 20))
    top = draw(st.sampled_from([1, 3, 1 << 40]))
    entry = st.integers(0, top)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         max_size=25))
    rows += draw(st.lists(st.sampled_from(rows), max_size=10)) if rows else []
    return np.array(rows, dtype=np.int64).reshape(-1, width)


def column_walk(table, rows):
    """row_lookup's answer one column at a time: a query keeps the table
    rows that agree with it so far, by plain comparisons."""
    out = []
    for q in rows.tolist():
        live = list(range(len(table)))
        for k, x in enumerate(q):
            live = [i for i in live if table[i, k] == x]
        out.append(live[0] if live else -1)
    return out


@settings(max_examples=150, deadline=None)
@given(wide_tables())
def test_packed_row_runs_match_lexsort(rows):
    order, head = posets.row_runs(rows)
    assert order.tolist() == np.lexsort(rows.T[::-1]).tolist()
    ranked = rows[order].tolist()
    assert head.tolist() == [i == 0 or ranked[i] != ranked[i - 1]
                             for i in range(len(rows))]


@settings(max_examples=150, deadline=None)
@given(wide_tables(), st.data())
def test_packed_row_lookup_matches_a_column_walk(rows, data):
    table = np.array(sorted(set(map(tuple, rows.tolist()))),
                     dtype=np.int64).reshape(-1, rows.shape[1])
    queries = np.concatenate([rows, rows[:, ::-1], rows + 1])
    assert posets.row_lookup(table, queries).tolist() == \
        column_walk(table, queries)
    if len(table) > 1:
        # a repeat or a swap anywhere breaks the rise
        i = data.draw(st.integers(0, len(table) - 2))
        for bad in (np.insert(table, i, table[i], axis=0),
                    table[np.r_[:i, i + 1, i, i + 2:len(table)]]):
            with pytest.raises(InvariantViolated, match="do not rise"):
                posets.row_lookup(bad, queries)


def test_sorted_find_on_empty_keys_and_past_both_ends():
    hit, pos = posets.sorted_find(np.empty(0, dtype=np.int64),
                                  np.array([-1, 0, 5]))
    assert hit.tolist() == [False] * 3 and pos.tolist() == [0] * 3
    hit, pos = posets.sorted_find(np.array([2, 4, 6]),
                                  np.array([1, 2, 5, 6, 7]))
    assert hit.tolist() == [False, True, False, True, False]
    assert pos.tolist() == [0, 0, 2, 2, 3]

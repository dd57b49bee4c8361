"""The elementary abelian layer against plain references.

elementary_abelian_subgroups is pinned, subgroup by subgroup and with
each Subgroup's generators, to a row-by-row BFS that shares no code with
it: p-elements from element orders, powers and products one element at
a time, commuting tested per candidate, first occurrences taken from
np.unique, and each subgroup's generators its greedy-max basis, read
off its member set one composition at a time.  The subspace tables
behind the closed-family poset route are checked against Gaussian
binomials and by brute force over F_p^r.  The layers in between are
checked against compose and tuple-built posets: the commuting-product
table, the coordinate rows the enumeration hands to the poset, and the
SubgroupFamily that is the poset's elements, with its lookup of members
by row.
"""

from itertools import product

import numpy as np
import pytest

from quillen import groups
from quillen.errors import IndexOutOfRange, NotAntisymmetric
from quillen.groups import SubgroupFamily, _commuting_products, \
    elementary_abelian_subgroups, member_csr, sylow_subgroup
from quillen.gspec import BUNDLED, load_group
from quillen.homology import _core
from quillen.posets import Poset
from quillen.pposets import ap_poset, subgroup_ids, subspace_order, \
    subspace_table

from conftest import bundled, compose, element_orders

def reference_elab(sub, p):
    """[(member bytes, gens)] of the nontrivial elementary abelian
    p-subgroups of sub, by rank and then member tuple."""
    G = sub.group
    pel = sub.midx[element_orders(G)[sub.midx] == p]
    powers = {}  # x -> [x, x^2, ..., x^(p-1)]
    for x in pel.tolist():
        powers[x] = [x]
        while len(powers[x]) < p - 1:
            powers[x].append(compose(G, powers[x][-1], x))

    rank1 = {}
    for x in pel.tolist():
        rank1.setdefault(tuple(sorted(powers[x])), (x,))
    level = sorted(rank1.items())
    found = list(level)
    while level:
        cands = []
        for row, gens in level:
            zs = pel[pel > row[-1]]
            for g in gens:
                grow, Z = G.perms[g], G.perms[zs]
                zs = zs[np.all(Z[:, grow] == grow[Z], axis=1)]
            if not zs.size:
                continue
            # products a * z^e, every a in the row and z^e over the zs
            zp = np.array([powers[z] for z in zs.tolist()])
            A = G.perms[list(row)]
            prods = G.lookup_rows(
                A[:, G.perms[zp.ravel()]].reshape(-1, G.degree))
            prods = prods.reshape(len(row), len(zs), p - 1)
            for t, z in enumerate(zs.tolist()):
                new = set(row) | set(zp[t].tolist()) | set(
                    prods[:, t].ravel().tolist())
                cands.append((tuple(sorted(new)), gens + (z,)))
        if not cands:
            break
        _, first = np.unique(np.array([c[0] for c in cands]), axis=0,
                             return_index=True)
        level = [cands[i] for i in first]
        found += level
    return [(np.array((0,) + row, dtype=np.int64).tobytes(),
             greedy_max_basis(G, row)) for row, _ in found]


def greedy_max_basis(G, row):
    """The basis a_1 > a_2 > ... of the group whose nontrivial members are
    row, a_1 its largest member and a_(k+1) the largest outside <a_1, ...,
    a_k>, ascending."""
    span, basis = {0}, []
    while len(span) <= len(row):
        a = max(set(row) - span)
        basis.append(a)
        grown, x = set(span), a
        while x != 0:
            grown |= {compose(G, s, x) for s in span}
            x = compose(G, x, a)
        span = grown
    return tuple(sorted(basis))


CASES = [(name, p) for name in BUNDLED for p in (2, 3, 5)
         if bundled(name).order % p == 0]


@pytest.mark.parametrize("name,p", CASES)
def test_elab_matches_row_by_row_reference(name, p):
    G = bundled(name)
    got = [(S.key, S.gens) for S in elementary_abelian_subgroups(G, p)]
    assert got == reference_elab(G, p)


@pytest.mark.parametrize("name,p", [("sym6", 2), ("sym6", 3), ("alt8", 2),
                                    ("a5xa5-e", 2)])
def test_elab_of_a_subgroup_matches_the_reference(name, p):
    # a Sylow subgroup and the centralizer of one of its p-elements:
    # their classes of p-elements are finer than the whole group's, so
    # more commuting rows are found directly, and neither has gens
    G = bundled(name)
    P = sylow_subgroup(G, p)
    C = groups.centralizer(G, [int(P.midx[-1])])
    for sub in (P, C):
        sub = groups.Subgroup(G.group, sub.midx)
        got = [(S.key, S.gens) for S in elementary_abelian_subgroups(sub, p)]
        assert got == reference_elab(sub, p)


def test_p_element_mask_is_order_p():
    for name in BUNDLED:
        G = bundled(name).group
        orders = element_orders(G)
        for p in (2, 3, 5, 7):
            assert np.array_equal(G.p_element_mask(p), orders == p)


def gaussian_binomial(r, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (r - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subspace_tables_are_the_subspaces(p):
    for r in range(2, 5):
        weights = p ** np.arange(r)
        # digits[c] is the vector at coordinate position c
        digits = np.array(list(product(range(p), repeat=r)))[:, ::-1]
        assert np.array_equal(digits @ weights, np.arange(p ** r))
        for k in range(1, r):
            table = subspace_table(p, r, k)
            assert table.shape == (gaussian_binomial(r, k, p), p ** k)
            assert len({row.tobytes() for row in table}) == len(table)
            assert (np.diff(table, axis=1) > 0).all()
            # every row is closed under addition mod p
            vecs = digits[table]
            sums = (vecs[:, :, None] + vecs[:, None, :]) % p @ weights
            assert all(np.isin(s, row).all() for s, row in zip(sums, table))


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2),
                                 (3, 3), (5, 2)])
def test_subspace_order_is_inclusion(p, r):
    spaces = [set(row) for k in range(1, r)
              for row in subspace_table(p, r, k).tolist()]
    spaces.append(set(range(p ** r)))
    lo, hi = subspace_order(p, r)
    assert sorted(zip(lo.tolist(), hi.tolist())) == [
        (a, b) for a in range(len(spaces)) for b in range(len(spaces))
        if spaces[a] < spaces[b]]


def test_rank_steps_search_past_the_generators(monkeypatch):
    # Sym(8) at p = 2: each subgroup is built once, from its canonical
    # pair, so 108 215 queries, where 290 937 built most subgroups several
    # times over and 392 958 also searched the filter's hits again; the
    # load, whose enumeration searches too, comes before the spy
    G = load_group("sym8").group.full()
    asked = []
    find = groups.sorted_find

    def spy(keys, q):
        asked.append(np.size(q))
        return find(keys, q)

    monkeypatch.setattr(groups, "sorted_find", spy)
    elementary_abelian_subgroups(G, 2)
    assert 0 < sum(asked) <= 113_500


def test_elab_looks_up_few_rows(monkeypatch):
    # Sym(8) at p = 2: the commuting table looks up the products of one
    # row per class of involutions and moves the other rows along the
    # generators' position maps, 1 848 rows in all, where composing every
    # commuting pair looked up 20 055 products
    looked = []
    lookup = groups.PermGroup.lookup_rows

    def spy(self, rows):
        looked.append(len(rows))
        return lookup(self, rows)

    G = load_group("sym8").group.full()
    monkeypatch.setattr(groups.PermGroup, "lookup_rows", spy)
    elementary_abelian_subgroups(G, 2)
    assert 0 < sum(looked) <= 2_000


LAYER_CASES = [(name, p) for name in ("sym5", "sym6", "aut-alt6", "l34",
                                      "a5xa5-e") for p in (2, 3, 5)
               if bundled(name).order % p == 0]


@pytest.mark.parametrize("name,p", LAYER_CASES)
def test_coordinate_rows_sort_to_the_member_rows(name, p):
    # column c_1 + c_2 p + ... holds b_1^c_1 b_2^c_2 ..., so column p^j
    # holds generator j and the identity sits in column 0
    for members, gens, coords in elementary_abelian_subgroups(
            bundled(name), p).blocks:
        assert np.array_equal(np.sort(coords, axis=1), members)
        assert np.array_equal(coords[:, p ** np.arange(gens.shape[1])],
                              gens)
        assert not coords[:, 0].any()


@pytest.mark.parametrize("name,p", LAYER_CASES)
def test_commuting_table_is_every_commuting_pair_with_its_product(name, p):
    sub = bundled(name)
    G = sub.group
    ext = np.concatenate(([0], sub.midx[G.p_element_mask(p)[sub.midx]]))
    m = ext.size
    # powers one composition at a time
    powers = np.zeros((m, p), dtype=np.int64)
    for q in range(1, m):
        x = 0
        for e in range(1, p):
            x = compose(G, x, int(ext[q]))
            powers[q, e] = np.searchsorted(ext, x)
    keys, prods = _commuting_products(sub, ext, powers)
    i, j = keys // m, keys % m
    assert (np.diff(keys) > 0).all() and (i > 0).all() and (j > 0).all()
    assert not (powers[i] == j[:, None]).any()
    for a, b, c in zip(ext[i].tolist(), ext[j].tolist(), ext[prods].tolist()):
        assert compose(G, a, b) == compose(G, b, a) == c
    # and no commuting pair of two cyclic subgroups is left out: the
    # pairs agreeing at points 0 and 1 are composed in full
    P = G.perms[ext[1:]]
    pairs = 0
    for k, x in enumerate(P):
        y = P[(P[:, x[0]] == x[P[:, 0]]) & (P[:, x[1]] == x[P[:, 1]])]
        pairs += int((y[:, x] == x[y]).all(axis=1).sum())
        pairs -= p - 1  # x commutes with its own p - 1 powers
    assert len(keys) == pairs


@pytest.mark.parametrize("name,p", LAYER_CASES)
def test_family_builds_each_subgroup_once(name, p):
    # a freshly loaded group, so nothing is cached for its family: each
    # index builds its member once from the rows.  Built back to front,
    # the members are the shared family's in key and gens, and a
    # sub-family's members equal the family's
    want = [(S.key, S.gens)
            for S in elementary_abelian_subgroups(bundled(name), p)]
    family = elementary_abelian_subgroups(load_group(name).group.full(), p)
    n = len(family)
    back = [family[k] for k in range(n - 1, -1, -1)][::-1]
    assert [(S.key, S.gens) for S in back] == want
    every_third = family.take(np.arange(0, n, 3))
    assert list(every_third) == back[::3]
    for k in (n, -1):
        with pytest.raises(IndexError):
            family[k]


@pytest.mark.parametrize("name,p", LAYER_CASES)
def test_family_poset_agrees_with_a_tuple_poset(name, p):
    P = ap_poset(load_group(name).group.full(), p)
    assert isinstance(P.elements, SubgroupFamily)
    T = Poset(tuple(P.elements), P.ptr, P.ids)
    assert list(P.elements) == list(T.elements)
    for ids in (_core(P)[1], np.arange(0, P.n, 2), np.arange(P.n)[-3:]):
        (A, a), (B, b) = P.induced(ids), T.induced(ids)
        assert isinstance(A.elements, SubgroupFamily)
        assert np.array_equal(a, b)
        assert np.array_equal(A.ptr, B.ptr) and np.array_equal(A.ids, B.ids)
        assert list(A.elements) == list(B.elements)


def test_family_with_a_repeated_row_is_rejected():
    family = elementary_abelian_subgroups(bundled("sym4"), 2)
    G = family.group
    M, g, C = family.blocks[1]
    assert family.distinct()
    for rows in ([0, 0], [1, 0]):
        bad = SubgroupFamily(G, family.blocks[:1] + [(M[rows], g[rows],
                                                      C[rows])])
        assert not bad.distinct()
        with pytest.raises(NotAntisymmetric, match="a label repeats"):
            Poset(bad, np.zeros(len(bad) + 1), [])
    # blocks out of order
    assert not SubgroupFamily(G, family.blocks[::-1]).distinct()


def test_positions_find_members_by_row():
    sym4 = bundled("sym4")
    G = sym4.group
    family = elementary_abelian_subgroups(sym4, 2)
    n = len(family)
    _, ptr, entries = member_csr(family)
    assert family.positions(ptr, entries).tolist() == list(range(n))
    # a sub-family numbers its own members; the others are absent
    odd = family.take(np.arange(1, n, 2))
    assert odd.positions(ptr, entries).tolist() == [
        k // 2 if k % 2 else -1 for k in range(n)]
    # absent: a cyclic group of order 4, a row of the four-groups' order;
    # a Sylow 2-subgroup and a group of order 3, orders with no block
    x = int(sym4.midx[element_orders(G)[sym4.midx] == 4][0])
    queries = [G.subgroup([x]), sylow_subgroup(sym4, 2),
               sylow_subgroup(sym4, 3), family[n - 1], family[0]]
    _, ptr, entries = member_csr(queries)
    assert family.positions(ptr, entries).tolist() == [-1, -1, -1, n - 1, 0]
    P = ap_poset(sym4, 2)
    assert subgroup_ids(P, ptr[3:] - ptr[3], entries[ptr[3]:]).tolist() == \
        [n - 1, 0]
    with pytest.raises(IndexOutOfRange, match="not in the target poset"):
        subgroup_ids(P, ptr, entries)

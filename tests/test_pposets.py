import os
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from quillen.errors import EmptyFactor, EnumerationCapExceeded, \
    IndexOutOfRange, InvariantViolated, NotAntisymmetric
from quillen import pposets
from quillen.groups import PermGroup, SubgroupFamily, _prime_divisors, \
    centralizer, conjugation_action, detect_components, \
    elementary_abelian_subgroups, subgroup_product, sylow_subgroup
from quillen.gspec import BUNDLED, load_group
from quillen.homology import betti_of_poset
from quillen.pposets import OrbitContext, _check_embedded_copy, ap_poset, \
    bouc_poset, decomposition, image_poset, outers_in_image, p_outer_poset, \
    poset_from_subgroups

from conftest import bundled, compose, element_orders, lookup_row
from family_order_oracle import family_order
from relation_oracle import make_poset, relation
from simplex_oracle import k0_and_k0hat, tuple_dims


def test_ap_sizes():
    assert ap_poset(bundled("sym4"), 2).n == 13
    assert ap_poset(bundled("alt5"), 2).n == 20
    assert ap_poset(bundled("sym5"), 2).n == 45
    assert ap_poset(bundled("alt6"), 2).n == 75


def test_ap_poset_cap_holds_on_cache_hit():
    with pytest.raises(EnumerationCapExceeded):
        ap_poset(load_group("sym6").group.full(), 2, cap=10)
    G = bundled("sym6")
    assert ap_poset(G, 2).n == 270
    with pytest.raises(EnumerationCapExceeded):
        ap_poset(G, 2, cap=10)
    assert ap_poset(G, 2, cap=270).n == 270
    # the enumeration is cached once per prime and checks cap on a hit
    elab = elementary_abelian_subgroups(G, 2)
    assert elementary_abelian_subgroups(G, 2, cap=270) is elab
    with pytest.raises(EnumerationCapExceeded):
        elementary_abelian_subgroups(G, 2, cap=269)


def naive_inclusion_poset(subs):
    """(elements, strict order as a set of pairs) by pairwise is_subset_of
    on the distinct nontrivial members, sorted by (order, member tuple)."""
    distinct = {S.key: S for S in subs if S.order > 1}
    elems = sorted(distinct.values(),
                   key=lambda S: (S.order, tuple(S.midx.tolist())))
    rel = {(i, j) for i, S in enumerate(elems) for j, T in enumerate(elems)
           if j != i and S.is_subset_of(T)}
    return elems, rel


ORACLE_CASES = [("ap", name, p) for name, p in [
    ("sym5", 2), ("sym6", 2), ("aut-alt6", 2), ("alt6", 3), ("sym6", 3),
    ("a5xa5-e", 3), ("a5xa5-e", 5)]] + [
    ("bouc", "sym6", 2), ("bouc", "sym5", 3),
    ("image", "aut-alt6", 2), ("p-outer", "aut-alt6", 2),
    ("2-subgroups", "sym4", 2)]


def _family(kind, name, p):
    """The family of one oracle case: a closed family has coordinates,
    any other none (_rows_family)."""
    G = bundled(name)
    if kind == "ap":
        return elementary_abelian_subgroups(G, p)
    if kind == "bouc":
        return _rows_family(list(bouc_poset(G, p).elements))
    if kind == "2-subgroups":
        return _rows_family(two_subgroups(G.group))
    L = detect_components(G)[0][0]
    P = image_poset(G, L, p).poset if kind == "image" else \
        p_outer_poset(G, L, p).poset
    return P.elements


def _rows_family(subs):
    """The distinct nontrivial subgroups subs as a family with no
    coordinates: per order, member rows sorted, gens padded by -1."""
    blocks = []
    for order in sorted({S.order for S in subs}):
        same = sorted((S for S in subs if S.order == order),
                      key=lambda S: S.midx.tolist())
        wide = max(len(S.generating_set()) for S in same)
        gens = [list(S.generating_set()) for S in same]
        blocks.append((np.array([S.midx for S in same]),
                       np.array([g + [-1] * (wide - len(g)) for g in gens]),
                       None))
    return SubgroupFamily(subs[0].group, blocks)


def two_subgroups(G):
    """Every nontrivial 2-subgroup of G that two 2-elements generate, each
    carrying the generators it was first reached by: the cyclic ones of
    order 4 carry one, and their squares lie in four-groups that do not
    hold them."""
    orders = element_orders(G)
    two = [x for x in range(len(orders)) if orders[x] in (2, 4)]
    family = {}
    for x in two:
        family.setdefault(G.subgroup([x]).key, G.subgroup([x]))
    for x, y in combinations(two, 2):
        S = G.subgroup([x, y])
        if S.order & (S.order - 1) == 0:
            family.setdefault(S.key, S)
    return list(family.values())


@pytest.mark.parametrize("kind,name,p", ORACLE_CASES)
def test_poset_from_subgroups_matches_pairwise_oracle(kind, name, p):
    family = _family(kind, name, p)
    elems, rel = naive_inclusion_poset(list(family))
    P = poset_from_subgroups(family)
    assert [S.key for S in P.elements] == [S.key for S in elems]
    assert [S.gens for S in P.elements] == [S.gens for S in elems]
    assert relation(P) == rel
    # a family lists each row once (SubgroupFamily.distinct)
    M, g, C = family.blocks[-1]
    twice = SubgroupFamily(family.group, family.blocks[:-1] + [
        tuple(None if x is None else x[[0, 0]] for x in (M, g, C))])
    with pytest.raises(NotAntisymmetric):
        poset_from_subgroups(twice)


BUNDLED_PAIRS = [(name, p) for name in BUNDLED
                 for p in _prime_divisors(bundled(name).order)]


@pytest.mark.parametrize("name,p", BUNDLED_PAIRS)
def test_closed_family_order_matches_every_member(name, p):
    # the order read off the maximal members is the one every member
    # lists from its own coordinate row
    P = ap_poset(bundled(name), p)
    assert relation(P) == family_order(P.elements, p)


@pytest.mark.parametrize("name,p", [
    ("sym5", 2), ("aut-alt6", 2), ("aut-alt6", 3), ("a5xa5-exr", 2),
    ("a5xa5-exr", 3), ("a5xa5-exr", 5)])
def test_sub_and_image_family_orders_match_every_member(name, p):
    G = bundled(name)
    L = detect_components(G)[0][0]
    for P in (image_poset(G, L, p).poset, p_outer_poset(G, L, p).poset):
        assert relation(P) == family_order(P.elements, p)


def test_relations_look_up_the_maximal_members_only(monkeypatch):
    # A_2(Sym(8)): 23 170 subspace rows of maximal members, where every
    # member's subspaces were 104 965 rows, one per relation
    looked = []
    lookup = pposets.row_lookup

    def spy(table, rows):
        looked.append(len(rows))
        return lookup(table, rows)

    monkeypatch.setattr(pposets, "row_lookup", spy)
    P = ap_poset(load_group("sym8").group.full(), 2)
    assert len(P.ids) == 104_965
    assert 0 < sum(looked) <= 24_330


@pytest.mark.parametrize("name,p", [
    ("sym5", 2), ("aut-alt6", 2), ("aut-alt6", 3), ("a5xa5-exr", 2),
    ("a5xa5-exr", 3), ("a5xa5-exr", 5)])
def test_image_family_matches_fresh_closures(name, p):
    # every member of A_p(N_G(L)), not only those meeting the kernel
    # trivially, projected by a fresh closure of its projected gens; the
    # first member reaching each image gives its gens
    G = bundled(name)
    ip = image_poset(G, detect_components(G)[0][0], p)
    act = ip.action
    first = {}
    for E in elementary_abelian_subgroups(act.actor, p):
        S = act.image.subgroup(act.project(E.generating_set()))
        first.setdefault(S.key, S)
    elems, rel = naive_inclusion_poset(first.values())
    assert [S.key for S in ip.poset.elements] == [S.key for S in elems]
    assert [S.gens for S in ip.poset.elements] == [S.gens for S in elems]
    assert relation(ip.poset) == rel


def _coordinates(G, basis, p):
    """Coordinate row of a basis: column c_1 + c_2 p + ... holds
    b_1^c_1 b_2^c_2 ⋯, each new basis element the next digit up."""
    row = [0]
    for b in basis:
        powers = [0]
        for _ in range(p - 1):
            powers.append(compose(G, powers[-1], b))
        row = [compose(G, x, y) for y in powers for x in row]
    return row


def _with_member(family, members, gens, coords):
    """family with one more member, given by its member row, gens and
    coordinate row, kept in (order, row) order."""
    new = [np.array([x], dtype=np.int64) for x in (sorted(members), gens,
                                                   coords)]
    blocks = []
    for b in family.blocks:
        if b[0].shape[1] == len(members):
            new = [np.concatenate(pair) for pair in zip(b, new)]
        else:
            blocks.append(b)
    order = np.lexsort(new[0].T[::-1])
    blocks.append(tuple(x[order] for x in new))
    blocks.sort(key=lambda b: b[0].shape[1])
    return SubgroupFamily(family.group, blocks)


@pytest.mark.parametrize("name,p", [("sym4", 2), ("alt6", 3)])
def test_closure_check_rejects_a_missing_rank_one_member(name, p):
    elab = elementary_abelian_subgroups(bundled(name), p)
    assert poset_from_subgroups(elab).n == len(elab)
    # drop a rank-1 member that lies in some rank-2 member
    rank2 = next(E for E in elab if E.order == p * p)
    k = next(k for k, E in enumerate(elab)
             if E.order == p and E.is_subset_of(rank2))
    missing = elab.take(np.delete(np.arange(len(elab)), k))
    with pytest.raises(IndexOutOfRange):
        poset_from_subgroups(missing)
    # the same members with no coordinates go through the membership
    # keys, which need no closure
    bare = SubgroupFamily(missing.group,
                          [(M, g, None) for M, g, _ in missing.blocks])
    assert poset_from_subgroups(bare).n == len(elab) - 1
    # so does a family with coordinates in some blocks only
    mixed = SubgroupFamily(missing.group, missing.blocks[:1] + bare.blocks[1:])
    assert relation(poset_from_subgroups(mixed)) == \
        relation(poset_from_subgroups(bare))


def test_closure_check_rejects_a_non_elementary_member(sym4):
    # a cyclic group of order 4 has an element of order 4, which fails
    # the power test, though its coordinates in the basis x, x^2 are its
    # members
    G = sym4.group
    elab = elementary_abelian_subgroups(sym4, 2)
    x = int(sym4.midx[element_orders(G)[sym4.midx] == 4][0])
    coords = _coordinates(G, [x, compose(G, x, x)], 2)
    with pytest.raises(IndexOutOfRange):
        poset_from_subgroups(_with_member(elab, coords, [x, coords[2]],
                                          coords))


@pytest.mark.parametrize("central_first", [False, True])
def test_closure_check_rejects_a_nonabelian_exponent_p_member(central_first):
    # the Heisenberg group of order 27 on F_3^2, point (a, b) at a + 3b,
    # generated by x: (a, b) -> (a + 1, b) and y: (a, b) -> (a, b + a),
    # with z: (a, b) -> (a, b + 1) central: exponent 3, so every element
    # passes the power test, and x^i y^j z^k is a bijection onto it, so
    # its coordinates in the basis x, y, z, or z, x, y, are its members.
    # It is not abelian: the plane of x and y is not a subgroup, so not
    # a member, whichever place the central z takes.
    pts = [(a, b) for b in range(3) for a in range(3)]
    rows = [[(a + 1) % 3 + 3 * b for a, b in pts],
            [a + 3 * ((b + a) % 3) for a, b in pts]]
    H = PermGroup.generate(rows, 9).full()
    G = H.group
    assert H.order == 27 and not H.is_abelian()
    x, y = (lookup_row(G, r) for r in rows)
    z = lookup_row(G, [a + 3 * ((b + 1) % 3) for a, b in pts])
    elab = elementary_abelian_subgroups(H, 3)
    assert [E.order for E in elab] == [3] * 13 + [9] * 4
    assert poset_from_subgroups(elab).ids.size == 16
    basis = [z, x, y] if central_first else [x, y, z]
    coords = _coordinates(G, basis, 3)
    assert sorted(coords) == H.midx.tolist()
    with pytest.raises(IndexOutOfRange):
        poset_from_subgroups(_with_member(elab, coords, basis, coords))


def test_closure_check_rejects_members_that_are_not_subgroups(sym4):
    # {1, a, b, c} with a < b < c involutions and ab commuting but not c:
    # its coordinates in the basis a, b are the four-group {1, a, b, ab},
    # whose subgroups are all members, so only the coordinate check sees
    # it
    G = sym4.group
    inv = [int(x) for x in sym4.midx if element_orders(G)[x] == 2]
    a, b, c = next((a, b, c) for a in inv for b in inv for c in inv
                   if a < b < c and compose(G, a, b) == compose(G, b, a)
                   and c != compose(G, a, b))
    elab = elementary_abelian_subgroups(sym4, 2)
    fake = _with_member(elab, [0, a, b, c], [a, b], _coordinates(G, [a, b], 2))
    with pytest.raises(IndexOutOfRange):
        poset_from_subgroups(fake)
    # {1, (123)}: of order 2 with no proper subgroup to look up, so only
    # the power test sees the 3-cycle
    t = lookup_row(G, [1, 2, 0, 3])
    fake = _with_member(elab, [0, t], [t], [0, t])
    with pytest.raises(IndexOutOfRange):
        poset_from_subgroups(fake)


def test_embedded_copy_must_be_an_induced_subposet(sym4):
    # the identity from A_2(Sym(4)) with its relations dropped keeps orders
    # and is injective, but the target relates the images
    P = ap_poset(sym4, 2)
    flat = make_poset(P.elements, [[] for _ in range(P.n)])
    with pytest.raises(InvariantViolated, match="not an induced subposet"):
        _check_embedded_copy(flat, P, np.arange(P.n))


def test_ap_rank_profile(sym4):
    P = ap_poset(sym4, 2)
    orders = sorted(E.order for E in P.elements)
    assert orders == [2] * 9 + [4] * 4
    assert P.height() == 1


def test_bouc_sizes(sym4, sym5):
    assert bouc_poset(sym4, 2).n == 4
    assert bouc_poset(sym5, 2).n == 30
    assert bouc_poset(sym5, 3).n == 10
    # no p-subgroup: an empty family
    assert bouc_poset(sym4, 5).n == 0


def test_bouc_of_p_group(sym4):
    P = sylow_subgroup(sym4, 2)
    B = bouc_poset(P, 2)
    assert B.n == 1
    assert B.elements[0].order == 8


def test_image_poset_sym5(sym5):
    comps, how = detect_components(sym5)
    assert how == "detected"
    ip = image_poset(sym5, comps[0], 2)
    assert ip.poset.n == 45
    assert ip.host.order == 120
    bv = betti_of_poset(ip.poset)
    assert (bv.get(0), bv.get(1)) == (0, 16)
    # the embedded copy of the source poset really is a copy
    assert ip.source.n == 20
    assert len(set(ip.embedded.table.tolist())) == 20


def test_outers_in_image(sym5):
    comps, _ = detect_components(sym5)
    ip = image_poset(sym5, comps[0], 2)
    ids, inn = outers_in_image(ip)
    assert inn.order == 60
    assert len(ids) == 10
    assert all(ip.poset.elements[i].order == 2 for i in ids)


def test_p_outer_poset(sym5):
    comps, _ = detect_components(sym5)
    op = p_outer_poset(sym5, comps[0], 2)
    assert op.poset.n == 10
    assert op.cyclic_only
    assert op.product.order == 60


def test_p_outer_poset_aut_alt6():
    G = bundled("aut-alt6")
    comps, _ = detect_components(G)
    op = p_outer_poset(G, comps[0], 2)
    assert op.poset.n == 66
    assert op.cyclic_only


def test_conjugation_action_faithful(sym5):
    comps, _ = detect_components(sym5)
    act = conjugation_action(sym5, comps[0])
    assert act.kernel.order == 1
    ptr, entries = act.project_family([act.target])
    assert ptr.tolist() == [0, 60]
    assert act.actor.order // act.kernel.order == 120


def test_image_union_over_outer_translates(sym5):
    # every projection lands in some inner-by-outer product, and those
    # products together recover the whole image poset
    comps, _ = detect_components(sym5)
    ip = image_poset(sym5, comps[0], 2)
    ids, inn = outers_in_image(ip)
    lhs = {S.key for S in ip.poset.elements}
    rhs = {S.key for S in ap_poset(inn, 2).elements}
    for i in ids:
        Ebar = ip.poset.elements[i]
        prod = subgroup_product(inn, Ebar)
        rhs |= {S.key for S in ap_poset(prod, 2).elements}
    assert lhs == rhs


@pytest.mark.parametrize("name", ["alt5", "sym5", "alt6", "sym6", "aut-alt6"])
def test_image_poset_nonzero_homology(name):
    G = bundled(name)
    comps, _ = detect_components(G)
    ip = image_poset(G, comps[0], 2)
    assert not betti_of_poset(ip.poset).is_zero()


def test_orbit_context_sym5(sym5):
    ctx = OrbitContext(sym5, 2)
    assert ctx.t == 1
    assert ctx.H.order == 120
    assert ctx.N.order == 60
    assert centralizer(ctx.G, ctx.N).order == 1
    jd = ctx.join()
    # single orbit: X is the image poset of H acting on the one component
    assert jd.X.n == 45
    bv = betti_of_poset(jd.X)
    assert (bv.get(0), bv.get(1)) == (0, 16)


def test_orbit_context_single_orbit_k0_empty(sym5):
    ctx = OrbitContext(sym5, 2)
    cx = ctx.complexes()
    assert cx.K0.simplex_counts == []
    assert cx.k0hat_betti.is_zero()


def test_k0_and_k0hat_match_the_simplexwise_rule(worked_ctx):
    cx = worked_ctx.complexes()
    k0, hat = k0_and_k0hat(worked_ctx.join(), tuple_dims(cx.KX))
    assert cx.K0.simplex_counts == [65, 75]
    assert tuple_dims(cx.K0) == [d for d in k0 if d]
    assert tuple_dims(cx.K0hat) == [d for d in hat if d]


def test_trivial_decomposition_when_h_is_g(sym5):
    ctx = OrbitContext(sym5, 2)
    dec = decomposition(ctx)
    assert dec.trivial
    assert dec.Y.n == dec.B.n == 45
    assert dec.Z.n == 0


def test_empty_factor_raises():
    ctx = OrbitContext(bundled("alt5"), 7)
    with pytest.raises(EmptyFactor):
        ctx.join()


def test_two_orbits_selected_by_index():
    G = bundled("a5xa5-e")
    ctx0 = OrbitContext(G, 2, orbit_index=0)
    ctx1 = OrbitContext(G, 2, orbit_index=1)
    assert ctx0.t == ctx1.t == 1
    assert ctx0.orbit[0].midx[1] != ctx1.orbit[0].midx[1]
    assert ctx0.H.order == ctx1.H.order == 7200


def test_answers_do_not_import_numpy_ma():
    # a plain np.unique or np.intersect1d imports numpy.ma on first use,
    # import time and resident memory that no answer needs
    code = textwrap.dedent("""
        import sys
        from quillen import (OrbitContext, ap_poset, betti_of_poset,
                             bouc_poset, check_conditions, load_group)
        sym8 = load_group("sym8").group.full()
        print(betti_of_poset(bouc_poset(sym8, 2)).tilde)
        print(betti_of_poset(ap_poset(load_group("alt6").group.full(), 2)).tilde)
        ctx = OrbitContext(load_group("a5xa5-exr").group.full(), 2)
        print(check_conditions(ctx).verdicts())
        print("numpy.ma" in sys.modules)
    """)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.split()[-1] == "False", out.stdout

import pytest

from quillen.errors import EmptyFactor, EnumerationCapExceeded, \
    IndexOutOfRange, InvariantViolated
from quillen.groups import PermGroup, centralizer, conjugation_action, \
    Subgroup, detect_components, elementary_abelian_subgroups, \
    subgroup_product, sylow_subgroup
from quillen.gspec import load_group
from quillen.homology import betti_of_poset
from quillen.pposets import OrbitContext, _check_embedded_copy, ap_poset, \
    bouc_poset, decomposition, image_poset, outers_in_image, p_outer_poset, \
    poset_from_subgroups

from conftest import bundled
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
    ("image", "aut-alt6", 2), ("p-outer", "aut-alt6", 2)]


def _family(kind, name, p):
    """(family, closed_under_subgroups) of one oracle case; finished posets
    are handed back reversed, so the sort has work to do."""
    G = bundled(name)
    if kind == "ap":
        return elementary_abelian_subgroups(G, p), True
    if kind == "bouc":
        return bouc_poset(G, p).elements[::-1], False
    L = detect_components(G)[0][0]
    P = image_poset(G, L, p).poset if kind == "image" else \
        p_outer_poset(G, L, p).poset
    return P.elements[::-1], True


@pytest.mark.parametrize("kind,name,p", ORACLE_CASES)
def test_poset_from_subgroups_matches_pairwise_oracle(kind, name, p):
    family, closed = _family(kind, name, p)
    family = list(family)
    # duplicates and the trivial subgroup are dropped
    padded = family + family[:3] + [family[0].group.subgroup([])]
    elems, rel = naive_inclusion_poset(family)
    P = poset_from_subgroups(padded, closed_under_subgroups=closed)
    assert [S.key for S in P.elements] == [S.key for S in elems]
    assert relation(P) == rel


@pytest.mark.parametrize("name,p", [("sym4", 2), ("alt6", 3)])
def test_closure_check_rejects_a_missing_rank_one_member(name, p):
    elab = elementary_abelian_subgroups(bundled(name), p)
    assert poset_from_subgroups(elab, closed_under_subgroups=True).n == \
        len(elab)
    # drop a rank-1 member that lies in some rank-2 member
    rank2 = next(E for E in elab if E.order == p * p)
    k = next(k for k, E in enumerate(elab)
             if E.order == p and E.is_subset_of(rank2))
    with pytest.raises(IndexOutOfRange):
        poset_from_subgroups(elab[:k] + elab[k + 1:],
                             closed_under_subgroups=True)
    # the pairwise relation of the same family is still fine without the flag
    assert poset_from_subgroups(elab[:k] + elab[k + 1:]).n == len(elab) - 1


def test_closure_check_rejects_a_non_elementary_member(sym4):
    # a cyclic group of order 4 has an element of order 4
    elab = elementary_abelian_subgroups(sym4, 2)
    x = int(sym4.midx[sym4.element_orders() == 4][0])
    with pytest.raises(IndexOutOfRange):
        poset_from_subgroups(elab + [sym4.group.subgroup([x])],
                             closed_under_subgroups=True)


@pytest.mark.parametrize("central_first", [False, True])
def test_closure_check_rejects_a_nonabelian_exponent_p_member(central_first):
    # the Heisenberg group of order 27 on F_3^2, point (a, b) at a + 3b,
    # generated by (a, b) -> (a + 1, b) and (a, b) -> (a, b + a): exponent
    # 3, so every element passes the power test, but it is not abelian.
    # Listing the central (a, b) -> (a, b + 1) first makes it element 1,
    # the first basis element, so the coordinates are a bijection and a
    # plane of two noncommuting basis elements is what is not found;
    # otherwise the greedy basis does not span bijectively.
    pts = [(a, b) for b in range(3) for a in range(3)]
    rows = [[(a + 1) % 3 + 3 * b for a, b in pts],
            [a + 3 * ((b + a) % 3) for a, b in pts]]
    if central_first:
        rows.insert(0, [a + 3 * ((b + 1) % 3) for a, b in pts])
    H = PermGroup.generate(rows, 9).full()
    assert H.order == 27 and not H.is_abelian()
    elab = elementary_abelian_subgroups(H, 3)
    assert [E.order for E in elab] == [3] * 13 + [9] * 4
    assert poset_from_subgroups(elab, closed_under_subgroups=True).ids.size \
        == 16
    with pytest.raises(IndexOutOfRange):
        poset_from_subgroups(elab + [H], closed_under_subgroups=True)


def test_closure_check_rejects_members_that_are_not_subgroups(sym4):
    # {1, a, b, c} with a < b < c involutions and ab commuting but not c:
    # its greedy basis a, b spans the four-group {1, a, b, ab}, whose
    # subgroups are all members, so only the coordinate check sees it
    G = sym4.group
    inv = [int(x) for x in sym4.midx if G.element_orders()[x] == 2]
    a, b, c = next((a, b, c) for a in inv for b in inv for c in inv
                   if a < b < c and G.compose(a, b) == G.compose(b, a)
                   and c != G.compose(a, b))
    fake = Subgroup(G, [0, a, b, c])
    elab = elementary_abelian_subgroups(sym4, 2)
    with pytest.raises(IndexOutOfRange):
        poset_from_subgroups(elab + [fake], closed_under_subgroups=True)
    # {1, (123)}: of order 2 with no proper subgroup to look up, so only
    # the power test sees the 3-cycle
    fake = Subgroup(G, [0, G.lookup_row([1, 2, 0, 3])])
    with pytest.raises(IndexOutOfRange):
        poset_from_subgroups(elab + [fake], closed_under_subgroups=True)


def test_embedded_copy_must_be_an_induced_subposet(sym4):
    # the identity from A_2(Sym(4)) with its relations dropped keeps orders
    # and is injective, but the target relates the images
    P = ap_poset(sym4, 2)
    flat = make_poset(P.elements, [[] for _ in range(P.n)])
    with pytest.raises(InvariantViolated, match="not an induced subposet"):
        _check_embedded_copy(flat, P, lambda i: i)


def test_ap_rank_profile(sym4):
    P = ap_poset(sym4, 2)
    orders = sorted(E.order for E in P.elements)
    assert orders == [2] * 9 + [4] * 4
    assert P.height() == 1


def test_bouc_sizes(sym4, sym5):
    assert bouc_poset(sym4, 2).n == 4
    assert bouc_poset(sym5, 2).n == 30
    assert bouc_poset(sym5, 3).n == 10


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
    assert act.project_subgroup(act.target).order == 60
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

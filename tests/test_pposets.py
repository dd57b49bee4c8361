import numpy as np
import pytest

from quillen.errors import EmptyFactor, EnumerationCapExceeded
from quillen.groups import centralizer, conjugation_action, \
    detect_components, elementary_abelian_subgroups, subgroup_product, \
    sylow_subgroup
from quillen.gspec import load_group
from quillen.homology import betti_of_poset
from quillen.pposets import OrbitContext, ap_poset, bouc_poset, \
    decomposition, image_poset, outers_in_image, p_outer_poset

from conftest import bundled


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
    assert cx.K0.size() == 0
    assert cx.k0hat_betti.is_zero()


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

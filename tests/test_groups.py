import numpy as np

from quillen.groups import center, centralizer, detect_components, \
    hyperelementary_check, is_simple, normalizer, subgroup_product, \
    sylow_subgroup
from quillen.gspec import load_group
from quillen.pposets import ap_poset, bouc_poset

from conftest import bundled, lookup_row


def test_orders_sym_alt(sym5, alt5):
    assert sym5.order == 120
    assert alt5.order == 60


def test_generated_subgroup(sym5):
    G = sym5.group
    # a transposition and a 5-cycle generate the whole group
    rows = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]
    assert G.subgroup_from_rows(rows).order == 120
    # the 5-cycle alone
    assert G.subgroup_from_rows(rows[1:]).order == 5


def test_centralizer_normalizer(sym5):
    G = sym5.group
    t = G.subgroup_from_rows([[1, 0, 2, 3, 4]])        # a transposition
    c5 = G.subgroup_from_rows([[1, 2, 3, 4, 0]])       # a 5-cycle
    assert centralizer(sym5, t).order == 12
    assert normalizer(sym5, c5).order == 20
    assert centralizer(sym5, c5).order == 5


def test_center(sym4, sym5):
    assert center(sym4).order == 1
    assert center(sym5).order == 1
    d10 = bundled("d10")
    assert center(d10).order == 1


def test_sylow(sym5):
    assert sylow_subgroup(sym5, 2).order == 8
    assert sylow_subgroup(sym5, 3).order == 3
    assert sylow_subgroup(sym5, 5).order == 5


def test_is_simple(alt5, sym5):
    assert is_simple(alt5)
    assert not is_simple(sym5)
    assert is_simple(bundled("l34"))
    assert not is_simple(bundled("sym4"))


def test_detect_components(sym5, sym4):
    comps, how = detect_components(sym5)
    assert [c.order for c in comps] == [60]
    assert how == "detected"
    comps, _ = detect_components(bundled("a5xa5-exr"))
    assert sorted(c.order for c in comps) == [60, 60]
    comps, _ = detect_components(sym4)
    assert comps == []


def test_declared_components():
    b = load_group("a8-in-s8")
    assert [c.order for c in b.components] == [20160]
    comps, how = detect_components(b.group.full(), declared=b.components)
    assert how == "declared"


def test_hyperelementary(sym5, sym4):
    S5 = sylow_subgroup(sym5, 5)
    ok, ev = hyperelementary_check(S5, 5)
    assert ok and ev["oq_cyclic"] and ev["oq_order"] == 1
    # the full degree-4 symmetric group is not 2-hyperelementary: its
    # smallest normal subgroup with 2-group quotient is the alternating
    # part, which is not cyclic
    ok, ev = hyperelementary_check(sym4, 2)
    assert not ok
    assert ev["oq_order"] == 12


def test_inner_decomposition_identity(sym4):
    # commuting subgroups A, B: the product of each with its centralizer
    # intersects to the product of AB with the centralizer of AB
    G = sym4.group
    rng = np.random.default_rng(5)
    n = sym4.order
    for _ in range(25):
        A = G.subgroup(rng.integers(0, n, size=2))
        CA = centralizer(sym4, A)
        B = G.subgroup(CA.midx[rng.integers(0, CA.midx.size, size=2)])
        CB = centralizer(sym4, B)
        AB = subgroup_product(A, B)
        lhs = np.intersect1d(subgroup_product(A, CA).midx,
                             subgroup_product(B, CB).midx)
        rhs = subgroup_product(AB, centralizer(sym4, AB)).midx
        assert np.array_equal(lhs, rhs)


def test_subgroup_product_order(sym5):
    G = sym5.group
    c2 = G.subgroup_from_rows([[1, 0, 2, 3, 4]])
    c3 = G.subgroup_from_rows([[0, 1, 3, 4, 2]])
    # disjoint supports commute, orders multiply
    prod = subgroup_product(c2, c3)
    assert prod.order == 6


def test_conjugate(sym5):
    G = sym5.group
    t = G.subgroup_from_rows([[1, 0, 2, 3, 4]])
    g = lookup_row(G, np.array([1, 2, 3, 4, 0]))
    assert t.conjugate(g).order == 2


def test_equal_subgroups_share_derived_data(sym5):
    # a distinct object with the same members reads the same cache entry
    H = sym5.intersection(sym5)
    assert H is not sym5 and H == sym5
    assert sylow_subgroup(H, 2) is sylow_subgroup(sym5, 2)
    assert ap_poset(H, 2) is ap_poset(sym5, 2)
    assert bouc_poset(H, 2) is bouc_poset(sym5, 2)

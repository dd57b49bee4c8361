import pytest

from quillen.checkers import FAILS, HOLDS, INAPPLICABLE, _condition_C, \
    check_conditions, check_cor51, check_cor52, check_prop68, check_propEM, \
    check_thm41, check_thm410, euler_formula, hqc_witness, \
    robinson_certificate
from quillen.errors import IndexOutOfRange, MatrixCapExceeded, \
    NotHyperelementary, NotPrime, VariantUnavailable, WrongArity
from quillen.groups import detect_components, sylow_subgroup
from quillen import homology
from quillen.homology import betti_of_poset
from quillen.gspec import build_group, load_group
from quillen.pposets import OrbitContext, ap_poset, decomposition

from conftest import bundled
from subjoin_oracle import psi_h0_equivalence_report


@pytest.fixture(scope="module")
def ctx_sym5():
    return OrbitContext(bundled("sym5"), 2)


@pytest.fixture(scope="module")
def ctx_alt5():
    return OrbitContext(bundled("alt5"), 2)


@pytest.fixture(scope="module")
def ctx_alt6():
    return OrbitContext(bundled("alt6"), 2)


def test_euler_formula_small():
    rep = euler_formula(bundled("alt5"), 2)
    assert rep.match
    assert rep.formula_sum == 4
    assert rep.rank_counts == {1: 15, 2: 5}
    rep = euler_formula(bundled("sym5"), 2)
    assert rep.match
    assert rep.formula_sum == -16
    assert rep.rank_counts == {1: 25, 2: 20}
    rep = euler_formula(bundled("sym4"), 3)
    assert rep.match
    assert rep.formula_sum == 3


def test_hqc_witness():
    cert = hqc_witness(bundled("sym5"), 2)
    assert cert.verdict == HOLDS
    assert cert.evidence["betti"][1] == 16
    cert = hqc_witness(bundled("alt5"), 2)
    assert cert.verdict == HOLDS
    cert = hqc_witness(bundled("sym4"), 2)
    assert cert.verdict == INAPPLICABLE
    assert cert.evidence["op_order"] == 4


def test_thm41_single_orbit(ctx_alt6):
    cert = check_thm41(ctx_alt6)
    assert cert.verdict == HOLDS
    assert cert.evidence["ranks"].get(1) == 16


def test_thm41_inapplicable_off_prime():
    ctx = OrbitContext(bundled("alt5"), 7)
    cert = check_thm41(ctx)
    assert cert.verdict == INAPPLICABLE
    assert cert.evidence["component_order"] == 60


def test_conditions_inapplicable_with_p_core():
    spec = {"construction": "direct_product",
            "factors": [{"construction": "cyclic", "degree": 2},
                        {"construction": "alternating", "degree": 5}]}
    G = build_group(spec).group.full()
    ctx = OrbitContext(G, 2)
    rep = check_conditions(ctx)
    assert all(v == INAPPLICABLE for v in rep.verdicts().values())
    assert rep["C"].evidence["op_order"] == 2


def test_conditions_bad_tag(ctx_sym5):
    with pytest.raises(IndexOutOfRange):
        check_conditions(ctx_sym5, which=["Q"])


def test_cor51_identity_factor_holds(ctx_alt5):
    cert = check_cor51(ctx_alt5)
    assert cert.verdict == HOLDS
    comp = cert.evidence["components"][0]
    assert comp["nonzero"]
    assert comp["ranks"].get(0) == 4


def test_cor51_factor_fails_when_target_connected(ctx_sym5):
    cert = check_cor51(ctx_sym5)
    assert cert.verdict == FAILS
    comp = cert.evidence["components"][0]
    assert not comp["nonzero"]
    assert comp["target_size"] == 45


def test_cor51_aut_variant_holds():
    ctx = OrbitContext(bundled("aut-alt6"), 2)
    cert = check_cor51(ctx, variant="aut-H")
    assert cert.verdict == HOLDS
    assert cert.evidence["components"][0]["ranks"].get(1) == 16


def test_cor51_variant_errors(ctx_alt5):
    with pytest.raises(VariantUnavailable):
        check_cor51(ctx_alt5, variant="aut")
    with pytest.raises(VariantUnavailable):
        check_cor51(ctx_alt5, variant="bogus")


def test_cor52_full_normalizer_holds(ctx_sym5):
    cert = check_cor52(ctx_sym5, [ctx_sym5.G])
    assert cert.verdict == HOLDS
    assert cert.evidence["clause_iii_pairwise_commuting"]


def test_cor52_component_alone_fails(ctx_sym5):
    # A5 times its centralizer misses the transpositions, so the
    # elementary abelian 2-subgroups do not match the normalizer's
    comps, _ = detect_components(ctx_sym5.G)
    cert = check_cor52(ctx_sym5, [comps[0]])
    assert cert.verdict == FAILS
    comp = cert.evidence["components"][0]
    assert comp["clause_i"]
    assert not comp["clause_ii"]


def test_cor52_product_of_symmetric_factors():
    spec = {"construction": "direct_product",
            "factors": [{"construction": "symmetric", "degree": 5},
                        {"construction": "symmetric", "degree": 5}]}
    G = build_group(spec).group.full()
    ctx = OrbitContext(G, 2, orbit_index=0)
    assert ctx.t == 1
    F = G.group.subgroup_from_rows([
        [1, 0, 2, 3, 4, 5, 6, 7, 8, 9],
        [1, 2, 3, 4, 0, 5, 6, 7, 8, 9]])
    assert F.order == 120
    cert = check_cor52(ctx, [F])
    assert cert.verdict == HOLDS


def test_cor52_wrong_arity(ctx_sym5):
    with pytest.raises(WrongArity):
        check_cor52(ctx_sym5, [])


def test_propEM_single_step(ctx_alt6):
    out = check_propEM(ctx_alt6, 1)
    assert out["M"].verdict == HOLDS
    assert out["E"].verdict == HOLDS
    assert out["E"].evidence["psi_rank_at_n"] == 16


def test_propEM_no_homology_in_degree(ctx_sym5):
    out = check_propEM(ctx_sym5, 0)
    assert out["M"].verdict == INAPPLICABLE
    assert out["E"].verdict == INAPPLICABLE


def test_propEM_bad_degree(ctx_sym5):
    with pytest.raises(IndexOutOfRange):
        check_propEM(ctx_sym5, -1)


def test_prop68_fails_for_symmetric_host(sym5):
    comps, _ = detect_components(sym5)
    cert = check_prop68(sym5, comps[0], 2)
    assert cert.verdict == FAILS
    classes = cert.evidence["classes"]
    assert len(classes) == 1
    assert classes[0]["size"] == 10
    assert classes[0]["centralizer_order"] == 6


def test_prop68_holds_for_full_automorphism_host():
    G = bundled("aut-alt6")
    comps, _ = detect_components(G)
    cert = check_prop68(G, comps[0], 2, k=1)
    assert cert.verdict == HOLDS
    assert cert.evidence["embedding_rank_at_k"] == 16
    assert cert.evidence["outer_count"] == 66


def test_prop68_refuses_a_negative_degree(sym5):
    # as check_propEM does: a degree below 0 is an input error, not a
    # verdict
    comps, _ = detect_components(sym5)
    with pytest.raises(IndexOutOfRange, match="degree -5 must be nonnegative"):
        check_prop68(sym5, comps[0], 2, k=-5)


def test_prop68_names_clause_3_when_L_has_no_homology_at_k(sym5):
    # A_2(A5) has homology in degree 0 alone, so at k = 5 no fixed-point
    # map is tested: the poset of L, not a map, fails the criterion
    comps, _ = detect_components(sym5)
    cert = check_prop68(sym5, comps[0], 2, k=5)
    assert cert.verdict == FAILS
    assert cert.evidence["searched_degrees"] == [5]
    assert cert.evidence["why"] == \
        "the poset of L has no homology in a searched degree"
    assert [c["map_ranks"] for c in cert.evidence["classes"]] == \
        ["zero by dimension"]


def test_prop68_rejects_composite_p(sym5):
    comps, _ = detect_components(sym5)
    with pytest.raises(NotPrime):
        check_prop68(sym5, comps[0], 4)


def test_robinson_nonzero_residue(sym5, ap2_sym5):
    S = sylow_subgroup(sym5, 5)
    cert = robinson_certificate(ap2_sym5, S, 5)
    assert cert.verdict == HOLDS
    assert cert.evidence["residue"] == 4
    assert cert.evidence["fixed_points"] == 0
    assert cert.evidence["fixed_chi"] == -1


def test_robinson_residue_vanishes_on_acyclic(sym4):
    P = ap_poset(sym4, 2)
    S = sylow_subgroup(sym4, 3)
    cert = robinson_certificate(P, S, 3)
    assert cert.verdict == FAILS
    assert cert.evidence["residue"] == 0


def test_robinson_rejects_non_hyperelementary(sym4):
    P = ap_poset(sym4, 2)
    with pytest.raises(NotHyperelementary):
        robinson_certificate(P, sym4, 2)


def test_betti_ap_cached(alt5):
    assert betti_of_poset(ap_poset(alt5, 2)).tilde == (4,)
    assert betti_of_poset(ap_poset(alt5, 2)) is \
        betti_of_poset(ap_poset(alt5, 2))


@pytest.mark.parametrize("check", [
    check_conditions,
    check_thm41,
    lambda ctx: check_thm410(ctx, variant="formal"),
    lambda ctx: check_thm410(ctx, variant="off-component"),
    check_cor51,
    lambda ctx: check_propEM(ctx, 1),
    psi_h0_equivalence_report,
], ids=["conditions", "thm41", "thm410-formal", "thm410-off-component",
        "cor51", "propEM", "psi-h0"])
def test_checkers_honour_the_context_work_cap(check, monkeypatch):
    # the work cap lives on the context alone: every elimination a checker
    # runs gets it.  A freshly loaded group, so no Betti vector cached on a
    # shared poset under another cap hides an elimination.
    cap = 10 ** 9 + 7
    seen = []
    rank = homology.sparse_rank

    def spy(columns, work_cap=homology.DEFAULT_WORK_CAP):
        seen.append(work_cap)
        return rank(columns, work_cap)

    monkeypatch.setattr(homology, "sparse_rank", spy)
    check(OrbitContext(load_group("sym6").group.full(), 2, work_cap=cap))
    assert seen and set(seen) == {cap}
    # a fresh context per call, so no induced map cached on it is reused
    with pytest.raises(MatrixCapExceeded):
        check(OrbitContext(bundled("sym6"), 2, work_cap=1))


def test_condition_C_fails_with_a_witness_chain(worked_ctx, monkeypatch):
    # every member of V0 projects into factor 2; send the rank-1 members'
    # projections to factor 1 and a chain from rank 1 to rank 2 touches both
    ctx = worked_ctx
    dec = decomposition(ctx)
    jd, psi, AH = ctx.join(), ctx.psi(), ctx.ap_H()
    rank1 = [int(g) for g in dec.ids_V0 if AH.elements[int(g)].order == 2]
    factor_of = jd.factor_of.copy()
    factor_of[psi.table[rank1]] = 1
    monkeypatch.setattr(jd, "factor_of", factor_of)
    holds, det = _condition_C(ctx, dec)
    assert not holds
    chain = [w["id"] for w in det["witness_chain"]]
    assert AH.related(chain[:-1], chain[1:]).all()
    assert chain == [0, 361]    # the u below each v are taken ascending
    assert {w["factor"] for w in det["witness_chain"]} == {1, 2}

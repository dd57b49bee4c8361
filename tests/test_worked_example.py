"""End-to-end checks on the wreath-like group (A5 x A5) . [swap, flip].

This degree-10 group of order 14400 has one orbit of two components and
a nontrivial decomposition, so it exercises every pipeline stage with
exact expected values.  The benchmark's chain of certificates on it
ranks no complex twice and computes no induced map twice.
"""
import hashlib

import numpy as np
import pytest

from quillen import homology
from quillen.checkers import FAILS, HOLDS, INAPPLICABLE, check_conditions, \
    check_cor51, check_cor52, check_propEM, check_thm41, check_thm410
from quillen.errors import InvariantViolated
from quillen.groups import centralizer, subgroup_product
from quillen.gspec import load_group
from quillen.homology import betti_of_poset
from quillen.posets import PosetMap
from quillen.pposets import OrbitContext, ap_poset, decomposition, \
    diagonal_poset, off_component_subposet

from mv_oracle import mv_rank_audit
from subjoin_oracle import psi_h0_equivalence_report


def same_betti(a, b, upto=4):
    return a.minus1 == b.minus1 and \
        all(a.get(k) == b.get(k) for k in range(upto + 1))


def test_context_shape(worked_ctx):
    ctx = worked_ctx
    assert ctx.t == 2
    assert ctx.G.order == 14400
    assert ctx.H.order == 7200
    assert ctx.N.order == 3600
    assert ctx.C[0].order == 1
    assert all(L.order == 60 for L in ctx.orbit)


def test_ambient_and_kernel_posets(worked_ctx):
    ctx = worked_ctx
    B = ap_poset(ctx.G, 2)
    assert B.n == 4785
    bv = betti_of_poset(B, work_cap=ctx.work_cap)
    assert (bv.get(0), bv.get(1), bv.get(2)) == (0, 0, 2304)
    AH = ctx.ap_H()
    assert AH.n == 2565
    bv = betti_of_poset(AH, work_cap=ctx.work_cap)
    assert (bv.get(0), bv.get(1), bv.get(2)) == (0, 0, 384)


def test_join_and_complexes(worked_ctx):
    ctx = worked_ctx
    jd = ctx.join()
    assert jd.X.n == 65
    sizes = sorted(P.n for P in jd.factor_posets.values())
    assert sizes == [20, 45]
    bv = betti_of_poset(jd.X)
    assert (bv.get(0), bv.get(1), bv.get(2)) == (0, 0, 64)
    cx = ctx.complexes()
    assert cx.KX.simplex_counts == [65, 975, 1875, 900]
    assert cx.K0.simplex_counts == [65, 75]
    assert cx.K0hat.simplex_counts == [65, 237, 275, 102]
    assert cx.k0hat_betti.is_zero()


def test_projection_tower(worked_ctx, monkeypatch):
    # check_thm41 checks each psi_i against psi_{i-1} up the chain, and
    # check_propEM the composite of the transfer maps against psi_t: a
    # constant map in place of psi_1, or of Phi_{1,2}, is caught
    ctx = worked_ctx
    for key, source, target, check, message in (
            (("psi", 1), ctx.ap_C(1), ctx.join().W[1], check_thm41,
             "does not commute with inclusion"),
            (("phi", 1, 2), ctx.mixed_join(1, 2), ctx.mixed_join(0, 2),
             lambda ctx: check_propEM(ctx, 2),
             "do not compose to the projection")):
        with monkeypatch.context() as m:
            m.setitem(ctx._cache, key, PosetMap(
                source, target, np.zeros(source.n, dtype=np.int64)))
            with pytest.raises(InvariantViolated, match=message):
                check(ctx)


def test_decomposition_sizes(worked_ctx):
    dec = decomposition(worked_ctx)
    assert not dec.trivial
    assert dec.B.n == 4785
    assert dec.Y.n == 4665
    assert dec.Z.n == 2220
    assert dec.Y0.n == 2100
    assert dec.V0.n == 925
    assert dec.B.n - dec.Y.n == 120
    assert dec.v0_in_diagonal


def test_inflation_invariance(worked_ctx):
    # the poset of members meeting H has the homology of the poset of H
    dec = decomposition(worked_ctx)
    bY = betti_of_poset(dec.Y, work_cap=worked_ctx.work_cap)
    bAH = betti_of_poset(dec.AH, work_cap=worked_ctx.work_cap)
    assert same_betti(bY, bAH)
    assert (bY.get(0), bY.get(1), bY.get(2)) == (0, 0, 384)


def test_inflation_fibers(worked_ctx):
    # above any member missing H entirely, the part meeting H looks like
    # the poset of its centralizer in H
    ctx = worked_ctx
    dec = decomposition(ctx)
    inY = np.zeros(dec.B.n, dtype=bool)
    inY[dec.ids_Y] = True
    outside = [i for i in range(dec.B.n) if not inY[i]]
    assert len(outside) == 120
    for j in (outside[0], outside[len(outside) // 2], outside[-1]):
        over = dec.ids_Y[dec.B.related(np.full(len(dec.ids_Y), j),
                                       dec.ids_Y)]
        sub, _ = dec.B.induced(over)
        CE = centralizer(ctx.H, dec.B.elements[j])
        got = betti_of_poset(sub)
        want = betti_of_poset(ap_poset(CE, 2))
        assert same_betti(got, want)


def test_overlap_and_meet_posets(worked_ctx):
    dec = decomposition(worked_ctx)
    bv = betti_of_poset(dec.Y0, work_cap=worked_ctx.work_cap)
    assert (bv.get(0), bv.get(1)) == (0, 1501)
    bv = betti_of_poset(dec.V0, work_cap=worked_ctx.work_cap)
    assert (bv.get(0), bv.get(1)) == (0, 876)


def test_cover_rank_audit(worked_ctx):
    dec = decomposition(worked_ctx)
    audit = mv_rank_audit(dec.B, dec.ids_Y, dec.ids_Z,
                          work_cap=worked_ctx.work_cap)
    assert audit.ok
    assert audit.chi_additive


def test_diagonal_variants(worked_ctx):
    D, _, _ = diagonal_poset(worked_ctx)
    assert D.n == 925
    bv = betti_of_poset(D, work_cap=worked_ctx.work_cap)
    assert (bv.get(0), bv.get(1)) == (0, 876)
    O, _, _ = off_component_subposet(worked_ctx)
    assert O.n == 2525
    bv = betti_of_poset(O, work_cap=worked_ctx.work_cap)
    assert (bv.get(0), bv.get(1), bv.get(2)) == (0, 212, 36)
    assert O.reduced_euler() == -176


def test_conditions_all_hold(worked_ctx):
    rep = check_conditions(worked_ctx)
    assert rep.consistent
    assert not rep.trivial
    assert all(v == HOLDS for v in rep.verdicts().values())
    assert rep.notes["sizes"] == {
        "B": 4785, "Y": 4665, "Z": 2220, "Y0": 2100, "V0": 925}


def test_thm41_full_and_restricted(worked_ctx):
    cert = check_thm41(worked_ctx)
    assert cert.verdict == HOLDS
    assert cert.evidence["witness_degree"] == 2
    assert cert.evidence["ranks"].get(2) == 64
    cert = check_thm41(worked_ctx, restrict=worked_ctx.N)
    assert cert.verdict == FAILS
    assert cert.evidence["subposet_size"] == 1490
    assert all(v == 0 for v in cert.evidence["ranks"].values())


def test_thm410_both_variants(worked_ctx):
    for variant in ("formal", "off-component"):
        cert = check_thm410(worked_ctx, variant=variant)
        assert cert.verdict == HOLDS, variant


def test_propEM_routes(worked_ctx):
    out = check_propEM(worked_ctx, 2)
    assert out["E"].verdict == HOLDS
    assert out["E"].evidence["psi_rank_at_n"] == 64
    assert out["M"].verdict == FAILS
    steps = out["E"].evidence["steps"]
    assert steps[0]["through_degree"] == 1
    assert steps[1]["through_degree"] == 2
    out1 = check_propEM(worked_ctx, 1)
    assert out1["M"].verdict == INAPPLICABLE
    assert out1["E"].verdict == INAPPLICABLE


def test_cor51_factor_split(worked_ctx):
    cert = check_cor51(worked_ctx)
    assert cert.verdict == FAILS
    comps = cert.evidence["components"]
    assert comps[0]["nonzero"]
    assert comps[0]["ranks"].get(0) == 4
    assert comps[0]["target_size"] == 20
    assert not comps[1]["nonzero"]
    assert comps[1]["target_size"] == 45


def test_cor52_no_separating_overgroups(worked_ctx):
    ctx = worked_ctx
    # the components themselves: separated but too small to carry the
    # normalizer's elementary abelians
    cert = check_cor52(ctx, list(ctx.orbit))
    assert cert.verdict == FAILS
    comp = cert.evidence["components"][0]
    assert comp["clause_i"]
    assert not comp["clause_ii"]
    # enlarging by the flip couples the factors and breaks commutation
    e_row = [1, 0, 2, 3, 4, 6, 5, 7, 8, 9]
    F = [subgroup_product(L, ctx.G.group.subgroup_from_rows([e_row]))
         for L in ctx.orbit]
    cert = check_cor52(ctx, F)
    assert cert.verdict == FAILS
    assert not cert.evidence["clause_iii_pairwise_commuting"]


def test_restricted_projection_equivalence(worked_ctx):
    rep = psi_h0_equivalence_report(worked_ctx)
    assert rep.h0.order == 3600
    assert rep.image_matches_subjoin
    assert rep.iso
    assert rep.kunneth_ok
    assert rep.subjoin_betti.get(1) == 16


def _digest(*parts):
    """sha256 of RawComplexes (cell counts and boundaries) and chain maps
    (degree -> Boundary)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, homology.RawComplex):
            h.update(repr(sorted(part.counts.items())).encode())
            part = part.cols
        for k in sorted(part):
            h.update(repr(k).encode())
            for a in (part[k].ptr, part[k].rows, part[k].vals):
                h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.digest()


def test_worked_certificates_rank_each_complex_and_map_once(monkeypatch):
    # the benchmark's questions on a fresh load: equal posets, cores and
    # maps share their results, so no rank profile repeats and no induced
    # map is computed twice.  With every poset and map apart, 6 of 18
    # rank profiles repeated, and one of three induced maps
    profiles, maps = [], []
    rank_profile, cone = homology._rank_profile, homology.cone_rank_profile

    def profile_spy(raw, work_cap):
        profiles.append(_digest(raw))
        return rank_profile(raw, work_cap)

    def cone_spy(rawS, rawT, colmaps, *args):
        maps.append(_digest(rawS, rawT, colmaps))
        return cone(rawS, rawT, colmaps, *args)

    monkeypatch.setattr(homology, "_rank_profile", profile_spy)
    monkeypatch.setattr(homology, "cone_rank_profile", cone_spy)
    ctx = OrbitContext(load_group("a5xa5-exr").group.full(), 2)
    check_conditions(ctx)
    check_thm41(ctx)
    check_thm410(ctx, variant="formal")
    check_thm410(ctx, variant="off-component")
    check_propEM(ctx, 2)
    assert profiles and len(profiles) == len(set(profiles))
    assert maps and len(maps) == len(set(maps))

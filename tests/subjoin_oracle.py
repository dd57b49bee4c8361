"""The chain projection on the inner part H0 is the standard equivalence.

Restricted to the p-subgroups of H0 = C_H(N) L_1 ... L_t, the projection
psi of an OrbitContext lands on the join of the embedded copies of the
factor posets, and is an isomorphism there in rational homology; the
join's Betti numbers follow the product formula.  The report recomputes
each of these with quillen's own maps and ranks, and tests require them.
"""

from dataclasses import dataclass

import numpy as np

from quillen.groups import Subgroup, membership, subgroup_product
from quillen.homology import betti_of_poset, induced_map, join_betti
from quillen.posets import sorted_unique
from quillen.pposets import ap_poset


@dataclass
class SubjoinReport:
    """psi restricted to the members inside H0 = C_H(N) L_1 ... L_t, landing
    on the join of the embedded factor copies."""
    h0: Subgroup
    image_matches_subjoin: bool
    map_report: object
    iso: bool
    subjoin_betti: object
    kunneth_ok: bool


def psi_h0_equivalence_report(ctx):
    """Restrict the projection to the p-subgroups of H0 = C_H(N) L_1...L_t
    and verify it lands on the join of the embedded copies of the factor
    posets, isomorphically in rational homology, with the join's Betti
    numbers matching the product formula."""
    wc = ctx.work_cap
    H0 = ctx.C[0]
    for L in ctx.orbit:
        H0 = subgroup_product(H0, L)
    AH = ctx.ap_H()
    psi = ctx.psi()
    jd = ctx.join()
    b0ids = np.flatnonzero(membership(AH, H0).inside())
    B0, _ = AH.induced(b0ids)
    # the block of C_0 whole, and each factor's copy of L_i's poset
    Jids = sorted_unique(np.concatenate(
        [np.arange(*jd.blocks.get(0, (0, 0)))]
        + [jd.blocks[i][0] + ctx.factor(i).embedded.table
           for i in range(1, ctx.t + 1)]))
    matches = np.array_equal(sorted_unique(psi.table[b0ids]), Jids)
    J, _ = jd.X.induced(Jids)
    restricted = ctx._map(B0, J, np.searchsorted(Jids, psi.table[b0ids]))
    rep = induced_map(restricted, work_cap=wc)
    top = max(len(rep.source_betti.tilde), len(rep.target_betti.tilde))
    iso = all(rep.rank(k) == rep.source_betti.get(k) == rep.target_betti.get(k)
              for k in range(-1, top))
    factor_bettis = [betti_of_poset(ctx.ap_C(0), work_cap=wc)] \
        if 0 in jd.active else []
    factor_bettis += [betti_of_poset(ap_poset(L, ctx.p, cap=ctx.cap),
                                     work_cap=wc) for L in ctx.orbit]
    conv = join_betti(factor_bettis)
    bJ = betti_of_poset(J, work_cap=wc)
    degs = set(conv) | set(bJ.nonzero_degrees())
    kunneth_ok = all(bJ.get(d) == conv.get(d, 0) for d in degs)
    return SubjoinReport(h0=H0, image_matches_subjoin=matches,
                         map_report=rep, iso=iso, subjoin_betti=bJ,
                         kunneth_ok=kunneth_ok)

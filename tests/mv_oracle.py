"""Mayer-Vietoris rank audit of a poset cover.

For a cover U = Y ∪ Z in which every chain of U lies wholly inside one
part, the Mayer-Vietoris sequence of the order complexes fixes each
Betti number of U from those of Y, Z and Y ∩ Z and the ranks of
α: H̃(Y ∩ Z) -> H̃(Y) ⊕ H̃(Z).  The audit recomputes all of them with
quillen's kernels, through a different route than betti_of_poset takes
on U: full order complexes with no core, a direct sum of raw complexes,
and α as one mapping cone.  Tests require the identity to hold.
"""

from dataclasses import dataclass

import numpy as np

from quillen.homology import DEFAULT_WORK_CAP, RawComplex, _stack, \
    betti_of_poset, betti_of_raw, chain_map_from_poset_map, \
    cone_rank_profile
from quillen.posets import order_complex, sorted_find, sorted_unique


class NotACover(Exception):
    """The two subposets do not cover the target chain by chain."""


def direct_sum_raw(rawA, rawB):
    """Direct sum of two raw complexes (both augmentations kept)."""
    counts = {}
    cols = {}
    lo = min(rawA.bottom, rawB.bottom)
    hi = max(rawA.top, rawB.top)
    for k in range(lo, hi + 1):
        counts[k] = rawA.count(k) + rawB.count(k)
    for k in range(lo + 1, hi + 1):
        cols[k] = _stack(counts[k], [(rawA.columns(k), 0, 0, 1), (
            rawB.columns(k), rawA.count(k), rawA.count(k - 1), 1)])
    return RawComplex(counts, cols)


@dataclass
class MVRankAudit:
    ok: bool
    degrees: dict            # k -> per-degree numbers and consistency flag
    chi_additive: bool


def mv_rank_audit(U, ids_Y, ids_Z, work_cap=DEFAULT_WORK_CAP):
    """Mayer-Vietoris consistency audit for a chain-level cover of U.

    ids_Y and ids_Z index two subposets whose union is U and such that
    every chain of U lies wholly inside one part (checked; NotACover
    otherwise).  Verifies, degree by degree,
      b̃_k(U) = [b̃_k Y + b̃_k Z - rank α_k] + [b̃_{k-1}(Y ∩ Z) - rank α_{k-1}]
    where α is induced by the two inclusions H̃(Y ∩ Z) -> H̃(Y) ⊕ H̃(Z),
    plus additivity of the reduced Euler characteristic.
    """
    ids_Y = sorted_unique(np.asarray(ids_Y, dtype=np.int64))
    ids_Z = sorted_unique(np.asarray(ids_Z, dtype=np.int64))
    inY = np.zeros(U.n, dtype=bool)
    inY[ids_Y] = True
    inZ = np.zeros(U.n, dtype=bool)
    inZ[ids_Z] = True
    if not np.all(inY | inZ):
        raise NotACover("subposets do not cover the target")
    y_only, z_only = inY & ~inZ, inZ & ~inY
    lo, hi = U.pairs()
    if np.any((y_only[lo] & z_only[hi]) | (z_only[lo] & y_only[hi])):
        raise NotACover(
            "a chain of the target mixes elements private to each part")
    PY, incY = U.induced(ids_Y)
    PZ, incZ = U.induced(ids_Z)
    ids_I = ids_Y[sorted_find(ids_Z, ids_Y)[0]]
    PI, _ = U.induced(ids_I)
    KY = order_complex(PY)
    KZ = order_complex(PZ)
    KI = order_complex(PI)
    rawY = RawComplex.from_simplicial(KY)
    rawZ = RawComplex.from_simplicial(KZ)
    rawI = RawComplex.from_simplicial(KI)
    rawYZ = direct_sum_raw(rawY, rawZ)
    bU = betti_of_poset(U, work_cap=work_cap)
    bY = betti_of_raw(rawY, work_cap=work_cap)
    bZ = betti_of_raw(rawZ, work_cap=work_cap)
    bI = betti_of_raw(rawI, work_cap=work_cap)
    bYZ = betti_of_raw(rawYZ, work_cap=work_cap)
    # α = (inclusion into Y, inclusion into Z), the Z half offset by Y's cells
    toY = chain_map_from_poset_map(np.searchsorted(incY, ids_I), KI, KY)
    toZ = chain_map_from_poset_map(np.searchsorted(incZ, ids_I), KI, KZ)
    colmaps = {k: _stack(len(toY[k]), [(toY[k], 0, 0, 1),
                                       (toZ[k], 0, rawY.count(k), 1)])
               for k in toY}
    ranks = cone_rank_profile(rawI, rawYZ, colmaps, bI, bYZ, work_cap)
    degrees = {}
    ok = True
    hi = 1 + max(len(bU.tilde), len(bY.tilde), len(bZ.tilde), len(bI.tilde))
    for k in range(0, hi):
        lhs = bU.get(k)
        rhs = (bY.get(k) + bZ.get(k) - ranks.get(k, 0)) + (
            bI.get(k - 1) - ranks.get(k - 1, 0))
        degrees[k] = {
            "bU": bU.get(k), "bY": bY.get(k), "bZ": bZ.get(k),
            "bI": bI.get(k), "alpha": ranks.get(k, 0),
            "consistent": lhs == rhs,
        }
        ok = ok and lhs == rhs
    chi_additive = (PI.reduced_euler() + U.reduced_euler()
                    == PY.reduced_euler() + PZ.reduced_euler())
    return MVRankAudit(ok=ok and chi_additive, degrees=degrees,
                       chi_additive=chi_additive)

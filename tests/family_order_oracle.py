"""Per-member reference for the inclusion order of a closed family.

quillen reads the order of a family closed under nontrivial subgroups
(A_p(G), its p-outer sub-families, the image families) off its maximal
members alone.  This module reads it the way each member sees it: every
member lists its own proper nontrivial subgroups, through its coordinate
row and the subspaces of F_p^r, and finds each by its sorted member
tuple in a dict.  Subspaces are grown as spans, one vector at a time,
so nothing is shared with quillen.pposets.  Tests require the two to
agree.
"""

from functools import cache
from itertools import product


@cache
def subspaces(p, r):
    """The proper nontrivial subspaces of F_p^r, each as the sorted
    positions c_1 + c_2 p + ... + c_r p^(r-1) of its vectors."""
    vectors = list(product(range(p), repeat=r))

    def span(space, v):
        return frozenset(tuple((a + e * b) % p for a, b in zip(u, v))
                         for u in space for e in range(p))

    level, found = {frozenset([(0,) * r])}, []
    for _ in range(1, r):
        level = {span(S, v) for S in level for v in vectors if v not in S}
        found += level
    return [tuple(sorted(sum(c * p ** i for i, c in enumerate(v))
                         for v in S)) for S in found]


def family_order(family, p):
    """The strict inclusion order of a closed SubgroupFamily, read off
    its arrays, as a set of (lower id, upper id): every member's proper
    nontrivial subgroups, listed from its coordinate row.  KeyError if
    one is not a member."""
    ids = {}
    for rows, _, _ in family.blocks:
        for row in rows.tolist():
            ids[tuple(row)] = len(ids)
    pairs, upper = set(), 0
    for rows, _, coords in family.blocks:
        r = 0
        while p ** r < rows.shape[1]:
            r += 1
        spaces = subspaces(p, r)
        for C in coords.tolist():
            pairs.update((ids[tuple(sorted(C[c] for c in S))], upper)
                         for S in spaces)
            upper += 1
    return pairs

"""The elementary abelian layer against plain references.

elementary_abelian_subgroups is pinned, subgroup by subgroup and with
each Subgroup's generators, to a row-by-row BFS that shares no code with
it: p-elements from element orders, powers and products one element at
a time, commuting tested per candidate, and first occurrences taken from
np.unique.  The subspace tables behind the closed-family poset route are
checked against Gaussian binomials and by brute force over F_p^r.
"""

from itertools import product

import numpy as np
import pytest

from quillen.groups import elementary_abelian_subgroups
from quillen.gspec import BUNDLED
from quillen.pposets import subspace_table

from conftest import bundled

def reference_elab(sub, p):
    """[(member bytes, gens)] of the nontrivial elementary abelian
    p-subgroups of sub, by rank and then member tuple."""
    G = sub.group
    pel = sub.midx[G.element_orders()[sub.midx] == p]
    powers = {}  # x -> [x, x^2, ..., x^(p-1)]
    for x in pel.tolist():
        powers[x] = [x]
        while len(powers[x]) < p - 1:
            powers[x].append(G.compose(powers[x][-1], x))

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
    return [(np.array((0,) + row, dtype=np.int64).tobytes(), gens)
            for row, gens in found]


CASES = [(name, p) for name in BUNDLED for p in (2, 3, 5)
         if bundled(name).order % p == 0]


@pytest.mark.parametrize("name,p", CASES)
def test_elab_matches_row_by_row_reference(name, p):
    G = bundled(name)
    got = [(S.key, S.gens) for S in elementary_abelian_subgroups(G, p)]
    assert got == reference_elab(G, p)


def test_p_element_mask_is_order_p():
    for name in BUNDLED:
        G = bundled(name).group
        orders = G.element_orders()
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

from functools import cache

import numpy as np
import pytest

from quillen.errors import NonPermutationGenerator
from quillen.gspec import bundled_group
from quillen.pposets import OrbitContext, ap_poset

# one group object per bundled name, shared with the acceptance suite
bundled = bundled_group


def check_permutation(p, degree):
    """p, if it is a permutation of 0..degree-1; else
    NonPermutationGenerator."""
    p = np.asarray(p)
    if p.shape != (degree,) or not np.array_equal(np.sort(p), np.arange(degree)):
        raise NonPermutationGenerator(f"not a permutation of 0..{degree - 1}: {p}")
    return p


def perm_order(p):
    """Order = lcm of cycle lengths."""
    p = np.asarray(p)
    seen = np.zeros(len(p), dtype=bool)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = int(p[x])
            length += 1
        order = np.lcm(order, length)
    return int(order)


@cache
def element_orders(G):
    """The order of every element of the PermGroup G, row by row by
    perm_order (cycle lengths), sharing no code with the group layer's
    power test."""
    return np.fromiter(map(perm_order, G.perms.tolist()), dtype=np.int64,
                       count=G.order)


def lookup_row(G, row):
    """Index of one permutation row in the PermGroup G, by lookup_rows."""
    return int(G.lookup_rows(np.reshape(row, (1, -1)))[0])


def compose(G, i, j):
    """Index of perms[i] ∘ perms[j], one row looked up."""
    return lookup_row(G, G.perms[i][G.perms[j]])


@pytest.fixture(scope="session")
def sym4():
    return bundled("sym4")


@pytest.fixture(scope="session")
def sym5():
    return bundled("sym5")


@pytest.fixture(scope="session")
def alt5():
    return bundled("alt5")


@pytest.fixture(scope="session")
def alt6():
    return bundled("alt6")


@pytest.fixture(scope="session")
def worked_ctx():
    """The order-14400 product example: two conjugate components."""
    return OrbitContext(bundled("a5xa5-exr"), 2)


@pytest.fixture(scope="session")
def ap2_sym5(sym5):
    return ap_poset(sym5, 2)

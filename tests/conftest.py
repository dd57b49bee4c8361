from functools import cache

import numpy as np
import pytest

from quillen.gspec import bundled_group
from quillen.perms import perm_order
from quillen.pposets import OrbitContext, ap_poset

# one group object per bundled name, shared with the acceptance suite
bundled = bundled_group


@cache
def element_orders(G):
    """The order of every element of the PermGroup G, row by row by
    perms.perm_order (cycle lengths), sharing no code with the group
    layer's power test."""
    return np.fromiter(map(perm_order, G.perms.tolist()), dtype=np.int64,
                       count=G.order)


def compose(G, i, j):
    """Index of perms[i] ∘ perms[j], one row looked up."""
    return G.lookup_row(G.perms[i][G.perms[j]])


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

import pytest

from quillen.gspec import bundled_group
from quillen.pposets import OrbitContext, ap_poset

# one group object per bundled name, shared with the acceptance suite
bundled = bundled_group


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

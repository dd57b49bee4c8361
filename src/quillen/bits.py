"""Bitset helpers.

Poset relations are stored as arbitrary-size Python ints, one bit per
poset element: up[i] holds the elements above i.  CPython's big-int
AND/OR are word-parallel, which is what makes the poset-scale set
algebra cheap.  Subgroup member sets are sorted index arrays, not
bitsets.
"""


def iter_bits(v):
    """Yield set-bit positions in increasing order."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low

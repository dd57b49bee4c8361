"""Bitset helpers.

Subgroup member sets and poset relations are stored as arbitrary-size
Python ints, one bit per element index.  CPython's big-int AND/OR are
word-parallel, which is what makes the poset-scale set algebra cheap.
"""


def bits_from_indices(idx):
    """Bitset with the given bits set.  idx: iterable of nonnegative ints."""
    v = 0
    for i in idx:
        v |= 1 << int(i)
    return v


def iter_bits(v):
    """Yield set-bit positions in increasing order."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low

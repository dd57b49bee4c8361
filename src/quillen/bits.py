"""Bitsets, and the one module that knows their layout.

A bitset is an arbitrary-size Python int with bit k set for member k;
CPython's big-int AND/OR run a machine word at a time.  Posets keep their
order as a CSR (posets.py); only the beat-point test and the holders
table of poset_from_subgroups build bitsets, from a CSR, and drop them
when done.  The holders table serves only families not closed under
subgroups (the radical poset); a closed family's relations are read off
its subspaces with no bitsets.
"""

import numpy as np


def csr_bitsets(ptr, ids, width):
    """Row r of the CSR (ptr, ids), the ids ids[ptr[r]:ptr[r+1]], each in
    [0, width), as a bitset.  Rows are packed 256 KB at a time, so no
    table of rows × width/8 bytes is ever built."""
    nbytes = (width + 7) // 8
    step = max(1, (1 << 18) // max(nbytes, 1))
    out = []
    for lo in range(0, len(ptr) - 1, step):
        rows = ptr[lo:lo + step + 1]
        cols = ids[rows[0]:rows[-1]]
        packed = np.zeros((len(rows) - 1, nbytes), dtype=np.uint8)
        np.bitwise_or.at(packed, (np.repeat(np.arange(len(rows) - 1),
                                            np.diff(rows)), cols >> 3),
                         (1 << (cols & 7)).astype(np.uint8))
        out.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return out


def iter_bits(v):
    """Yield set-bit positions in increasing order."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low

#!/usr/bin/env python3
"""Output ledger of the bundled catalogue: a sha256 per quantity, per
bundled (group, prime) pair.

    python scripts/ledger.py [--out PATH]

For every bundled group and every prime p dividing its order, digests
six outputs that no choice of the algorithm moves: for the A_p poset
(pposets.ap_poset) and the p-radical poset (pposets.bouc_poset) alike,
the family's member CSR (ptr, entries), the poset's order (ptr, ids) and
its reduced Betti vector.  Generating sets and the chosen Sylow subgroup
are left out, since another algorithm may choose them differently.
Writes the ledger as JSON, {"group/p": {quantity: sha256}}, to PATH
(default tests/ledger.json), which tests/test_ledger.py checks.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "ledger.json"
FAMILIES = (("ap", "ap_poset"), ("radical", "bouc_poset"))


def _digest(*arrays):
    """sha256 of int64 arrays, each as its length and its bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<i8")
        h.update(len(a).to_bytes(8, "little"))
        h.update(a.tobytes())
    return h.hexdigest()


def pair_digests(G, p):
    """{quantity: sha256} of one group's A_p and p-radical posets."""
    from quillen import pposets
    from quillen.groups import member_csr
    from quillen.homology import betti_of_poset
    out = {}
    for name, build in FAMILIES:
        P = getattr(pposets, build)(G, p)
        _, ptr, entries = member_csr(P)
        bv = betti_of_poset(P)
        out[f"{name}_members"] = _digest(ptr, entries)
        out[f"{name}_order"] = _digest(P.ptr, P.ids)
        out[f"{name}_betti"] = _digest([bv.minus1, *bv.tilde])
    return out


def ledger():
    """{"group/p": {quantity: sha256}} over every bundled (group, prime)."""
    from quillen.groups import _prime_divisors
    from quillen.gspec import BUNDLED, bundled_group
    out = {}
    for name in BUNDLED:
        G = bundled_group(name)
        for p in _prime_divisors(G.order):
            out[f"{name}/{p}"] = pair_digests(G, p)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=LEDGER)
    args = ap.parse_args(argv)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    args.out.write_text(json.dumps(ledger(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

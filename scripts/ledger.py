#!/usr/bin/env python3
"""Output ledger of the bundled catalogue: a sha256 per quantity, per
bundled group and per bundled (group, prime) pair.

    python scripts/ledger.py [--out PATH]

Digests outputs that no choice of the algorithm moves.  For every
bundled group and every prime p dividing its order, seven: for the A_p
poset (pposets.ap_poset) and the p-radical poset (pposets.bouc_poset)
alike, the family's member CSR (ptr, entries), the poset's order (ptr,
ids) and its reduced Betti vector; and the members of O_p(G).  For
every bundled group, three: its minimal normal subgroups and its
detected components, each as member sets in (order, members) order (for
components, the class name of the error if detection refuses), and its
conjugacy-class partition, each element labelled by the smallest member
of its class.  Generating sets and the chosen Sylow subgroup are left
out, since another algorithm may choose them differently.  Writes the
ledger as JSON, {"group/p": {quantity: sha256}, "group": {quantity:
sha256}}, to PATH (default tests/ledger.json), which tests/test_ledger.py
checks.
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


def _sets(subgroups):
    """sha256 of subgroups as one CSR of sorted member sets, ordered by
    (order, members)."""
    sets = sorted((S.midx.tolist() for S in subgroups),
                  key=lambda m: (len(m), m))
    return _digest(np.cumsum([0] + [len(m) for m in sets]),
                   [x for m in sets for x in m])


def pair_digests(G, p):
    """{quantity: sha256} of one group's A_p and p-radical posets and
    O_p(G)."""
    from quillen import pposets
    from quillen.groups import member_csr, p_core
    from quillen.homology import betti_of_poset
    out = {"p_core": _digest(p_core(G, p).midx)}
    for name, build in FAMILIES:
        P = getattr(pposets, build)(G, p)
        _, ptr, entries = member_csr(P)
        bv = betti_of_poset(P)
        out[f"{name}_members"] = _digest(ptr, entries)
        out[f"{name}_order"] = _digest(P.ptr, P.ids)
        out[f"{name}_betti"] = _digest([bv.minus1, *bv.tilde])
    return out


def group_digests(G):
    """{quantity: sha256} of one group's minimal normal subgroups,
    components and conjugacy classes."""
    from quillen.errors import ComponentsUndetectable
    from quillen.groups import (conjugacy_classes, detect_components,
                                minimal_normal_subgroups)
    try:
        components = _sets(detect_components(G)[0])
    except ComponentsUndetectable as e:
        components = hashlib.sha256(type(e).__name__.encode()).hexdigest()
    label = np.empty(G.order, dtype=np.int64)
    for members in conjugacy_classes(G):
        label[members] = members.min()
    return {"minimal_normal": _sets(minimal_normal_subgroups(G)),
            "components": components, "classes": _digest(label)}


def ledger():
    """{"group/p": {quantity: sha256}, "group": {quantity: sha256}} over
    every bundled group and (group, prime) pair."""
    from quillen.groups import _prime_divisors
    from quillen.gspec import BUNDLED, bundled_group
    out = {}
    for name in BUNDLED:
        G = bundled_group(name)
        out[name] = group_digests(G)
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

#!/usr/bin/env python3
"""Survey the bundled groups: poset sizes, Euler characteristics, Betti
numbers, and the direct nonvanishing witness, in one table per prime.

Usage: python scripts/poset_survey.py [--p 2] [--skip-above 50000]
"""
import argparse
import time

from quillen import BUNDLED, ap_poset, betti_of_poset, hqc_witness, \
    load_group
from quillen.errors import QuillenError
from quillen.groups import p_core


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--skip-above", type=int, default=50000,
                    help="skip groups with order above this")
    args = ap.parse_args()

    print(f"p = {args.p}")
    print(f"{'group':12s} {'order':>7s} {'|A_p|':>6s} {'height':>6s} "
          f"{'chi~':>6s} {'betti':18s} {'witness':12s} {'time':>6s}")
    for name in BUNDLED:
        G = load_group(name).group.full()
        if G.order > args.skip_above:
            print(f"{name:12s} {G.order:7d} skipped (above cap)")
            continue
        t0 = time.time()
        try:
            P = ap_poset(G, args.p)
        except QuillenError as e:
            print(f"{name:12s} {G.order:7d} {e}")
            continue
        if P.n == 0:
            print(f"{name:12s} {G.order:7d} {0:6d}      -      - "
                  f"{'(empty)':18s} {'inapplicable':12s}")
            continue
        bv = betti_of_poset(P)
        cert = hqc_witness(G, args.p)
        tilde = tuple(bv.get(k) for k in range(len(bv.tilde)))
        note = "" if p_core(G, args.p).order == 1 else " (p-core > 1)"
        print(f"{name:12s} {G.order:7d} {P.n:6d} {P.height():6d} "
              f"{bv.chi:6d} {str(tilde):18s} {cert.verdict + note:12s} "
              f"{time.time() - t0:5.1f}s")


if __name__ == "__main__":
    main()

"""Set-based reference for the beat-point core.

quillen.posets.beat_point_core removes beat points in bulk rounds, read
off degree counts over the CSR.  This module removes them one at a time
instead, the way a hand computation would: sweeps over the live ids in
ascending order take out each beat point as it is met (x retracts to its
unique upper cover, else to its unique lower cover), until a sweep takes
out nothing.  The order is a Python set of pairs and the covers come
from plain set operations; no code is shared with quillen.posets.

The two schemes keep the same core up to isomorphism on every poset, but
not always the same set of ids.  On the bundled A_p and radical posets
they keep the same ids with the same retraction, which tests require.
"""


def sweep_core(n, rel):
    """(inc, ret) of the ascending sweep on range(n) with strict order
    rel, a set of pairs (a, b), a below b, ids a linear extension: inc
    the kept ids ascending, ret[i] the position in inc that i retracts
    to."""
    above = [set() for _ in range(n)]
    below = [set() for _ in range(n)]
    for a, b in rel:
        above[a].add(b)
        below[b].add(a)
    alive = set(range(n))
    target = list(range(n))
    live, kept = None, list(range(n))
    while kept != live:
        live, kept = kept, []
        for x in live:
            ups = above[x] & alive
            downs = below[x] & alive
            if ups and ups - {min(ups)} <= above[min(ups)]:
                target[x] = min(ups)
            elif downs and downs - {max(downs)} <= below[max(downs)]:
                target[x] = max(downs)
            else:
                kept.append(x)
                continue
            alive.remove(x)
    inc = sorted(alive)
    pos = {x: k for k, x in enumerate(inc)}
    ret = []
    for x in range(n):
        while x not in alive:
            x = target[x]
        ret.append(pos[x])
    return inc, ret

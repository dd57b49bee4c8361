"""Set-of-pairs reference for poset relations.

quillen keeps a poset's strict order as one CSR of up-sets and tests it
with vectorized searches over the relation pairs.  This module keeps the
order as a Python set of pairs (a, b), a below b, and does the same jobs
with plain loops over those sets, sharing no code with quillen.posets.
Tests require the two to agree.
"""

from quillen.posets import Poset


def closed_order(n, pairs):
    """The strict order generated by pairs (a < b) on range(n), closed
    under transitivity and relabelled along a linear extension (ids
    sorted by their number of elements below), as a set of pairs.
    None if the pairs close into a cycle."""
    lt = [set() for _ in range(n)]
    for a, b in pairs:
        lt[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            new = set()
            for b in lt[a]:
                new |= lt[b]
            if not new <= lt[a]:
                lt[a] |= new
                changed = True
    if any(a in lt[a] for a in range(n)):
        return None
    order = sorted(range(n), key=lambda a: sum(a in lt[b] for b in range(n)))
    pos = {orig: k for k, orig in enumerate(order)}
    return {(pos[a], pos[b]) for a in range(n) for b in lt[a]}


def make_poset(elements, rows, validate=False):
    """Poset whose ids above i are rows[i], taken as given (so invalid rows
    reach the validator)."""
    ptr = [0]
    ids = []
    for row in rows:
        ids.extend(row)
        ptr.append(len(ids))
    return Poset(elements, ptr, ids, validate=validate)


def up_rows(n, rel):
    """For each i in range(n), the ids above i in rel, ascending."""
    return [sorted(b for a, b in rel if a == i) for i in range(n)]


def poset_of(n, rel):
    """Validated Poset on labels range(n) with strict order rel."""
    return make_poset(range(n), up_rows(n, rel), validate=True)


def relation(P):
    """P's strict order read back as a set of pairs."""
    return {(i, int(j)) for i in range(P.n)
            for j in P.ids[P.ptr[i]:P.ptr[i + 1]]}


def induced(rel, ids):
    """The order rel restricted to ids and renumbered by rank in ids."""
    ids = sorted(set(ids))
    pos = {o: k for k, o in enumerate(ids)}
    return {(pos[a], pos[b]) for a, b in rel if a in pos and b in pos}


def join(parts):
    """Order of the join of the (n, rel) parts: each part's pairs shifted
    by the sizes before it, and every id of a part below every id of a
    later part."""
    out, off = set(), 0
    total = sum(n for n, _ in parts)
    for n, rel in parts:
        out |= {(a + off, b + off) for a, b in rel}
        out |= {(a, b) for a in range(off, off + n)
                for b in range(off + n, total)}
        off += n
    return out


def chain_counts(n, rel):
    """Chains per number of elements minus one, grown one top at a time."""
    counts = []
    level = [(i,) for i in range(n)]
    while level:
        counts.append(len(level))
        level = [c + (b,) for c in level for b in range(n) if (c[-1], b) in rel]
    return counts


def order_preserving(rel_s, rel_t, table):
    """a < b in the source gives table[a] <= table[b] in the target."""
    return all(table[a] == table[b] or (table[a], table[b]) in rel_t
               for a, b in rel_s)


def automorphism(n, rel, table):
    """table is a bijection of range(n) carrying rel onto itself."""
    return (sorted(table) == list(range(n))
            and {(table[a], table[b]) for a, b in rel} == rel)


def star(rel, b):
    """b and every id comparable to it."""
    return {b} | {y for x, y in rel if x == b} | {x for x, y in rel if y == b}

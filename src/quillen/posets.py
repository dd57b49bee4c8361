"""Finite posets, order complexes, beat-point reduction.

A Poset keeps its strict order once, as a CSR of up-sets: row i of the
int64 arrays ptr and ids, ids[ptr[i]:ptr[i+1]], holds the ids above i in
ascending order.  Ids are assigned along a linear extension (i < j
whenever element i is below element j), so chains are id-increasing and
the relation pairs (row, id) are sorted by the key row·n + id, which the
bulk tests search.  An induced subposet is a mask and a renumbering of
those pairs; a join concatenates the factors' arrays.  Each order check
(PosetMap, action tables, the embedded copy of an image poset) is one
sorted search over the pairs.

The order complex K(P) has the nonempty chains of P as simplices, kept
per degree d as one (m_d, d+1) int64 array of increasing rows, in
lexicographic order, beside its table of face positions.  order_complex
grows the faces with the chains, each read off the chain's parent, so
no face is searched; a complex built from arrays searches its table
once.  One lookup, row_lookup (SimplicialComplex.index in a complex),
finds rows: the faces of a complex built from arrays, images, simplices
of a subcomplex, the subspaces of a closed subgroup family's maximal
members (pposets.poset_from_subgroups), and the members of a subgroup
family (groups.SubgroupFamily.positions).  It searches each table in
the order it was built and sorts nothing.  One packing helper, _pack,
puts as many columns as fit into each int64 word, for row_lookup's walk
and for row_runs, the one row sort.  Every hit-checked search of sorted
keys, here and in the group layer, goes through one helper,
sorted_find, and every plain dedup through sorted_unique.

Beat points (elements with a unique upper or unique lower cover) can be
removed without changing the homotopy type of K(P); the composite
retraction is returned alongside the reduced poset so induced maps can
be transported to the core.  They are found by degree counts over the
live relation pairs and removed in bulk rounds, so every job reads the
order through the CSR alone.
"""

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvariantViolated,
    NotAnActionByAutomorphisms,
    NotAntisymmetric,
    NotOrderPreserving,
    NotTransitiveAfterClosure,
    ParentMismatch,
    SimplexCapExceeded,
)

SIMPLEX_CAP = 50_000_000


def row_ptr(rows, n):
    """ptr of an n-row CSR whose entries, in row order, lie in rows."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def _word_width(width, base, room):
    """w, the columns _pack puts into one int64 word: the most, up to
    width, that keep room·base^w within 2^62."""
    w = 1
    while w < width and room * base ** (w + 1) <= 1 << 62:
        w += 1
    return w


def _pack(rows, base, room):
    """The columns of rows, a 2-d int64 array of entries in [0, base),
    packed left to right, _word_width of them to a word, into int64
    words: [(word, base^w)], word the w columns read as one base-base
    numeral.  Packing keeps order: rows compare lexicographically as
    their word lists do.  row_runs sorts by the words and row_lookup
    walks them, so both read a few words where the columns are many."""
    width, base = rows.shape[1], int(base)
    w = _word_width(width, base, room)
    out = []
    for c in range(0, width, w):
        word = rows[:, c]
        for col in rows[:, c + 1:c + w].T:
            word = word * base + col
        out.append((word, base ** min(w, width - c)))
    return out


def row_runs(rows):
    """(order, head) for a 2-d int array: order, the stable lexicographic
    order of its rows by one lexsort of their packed words (_pack);
    head, a mask over order that is True where a run of equal rows
    starts, at its first occurrence."""
    rows = np.asarray(rows, dtype=np.int64)
    low = rows.min(initial=0)
    words = [w for w, _ in _pack(rows - low, rows.max(initial=0) - low + 1,
                                 1)]
    order = np.lexsort(words[::-1])
    head = np.zeros(len(rows), dtype=bool)
    head[:1] = True
    for w in words:
        ranked = w[order]
        head[1:] |= ranked[1:] != ranked[:-1]
    return order, head


def sorted_unique(a):
    """The distinct entries of a, ascending: one sort and a step mask.
    A plain np.unique would import numpy.ma on first use."""
    a = np.sort(a, axis=None)
    step = np.ones(a.size, dtype=bool)
    step[1:] = a[1:] != a[:-1]
    return a[step]


def sorted_find(keys, q):
    """(hit, pos) for queries q in the ascending array keys: pos, where one
    searchsorted puts each query; hit, whether the key at pos is the
    query.  Empty keys hold no query."""
    pos = np.searchsorted(keys, q)
    if not len(keys):
        return np.zeros(pos.shape, dtype=bool), pos
    return keys.take(pos, mode="clip") == q, pos


def row_lookup(table, rows):
    """Position of each row of rows in table, or -1 where it is absent.

    table is a 2-d array of nonnegative indices whose rows rise strictly
    (lexicographic, none repeated), as order_complex builds a degree and
    elementary_abelian_subgroups an order block of a family.  It is
    searched in that order, with no sort; InvariantViolated if its rows
    do not rise.  The walk goes word by word over the packed columns
    (_pack, with room for the prefix ids).  A table row's first words
    up to word k are keyed pid·B + its k-th word, B the word's radix and
    pid the rank of its earlier words among the distinct such prefixes.
    The keys ascend, and each step up starts a new prefix, so the keys
    at the steps are the level's distinct prefixes; one sorted_find per
    word places each query's prefix among them.  A query with a negative
    entry, or missing in any word, gets -1.  Keys stay below
    (len(table) + 1)·B <= 2^62.
    """
    table = np.asarray(table, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    base = 1 + max(table.max(initial=0), rows.max(initial=0))
    live = (rows >= 0).all(axis=1)
    if not live.all():
        rows = np.where(live[:, None], rows, 0)
    room = len(table) + 1
    words = list(zip(_pack(table, base, room), _pack(rows, base, room)))
    pid = np.zeros(len(table), dtype=np.int64)
    pos = np.zeros(len(rows), dtype=np.int64)
    for k, ((word, radix), (query, _)) in enumerate(words):
        key = pid * radix + word
        step = np.diff(key, prepend=-1)
        if (step < 0).any() or (k == len(words) - 1 and (step == 0).any()):
            raise InvariantViolated("lookup table rows do not rise strictly")
        new = step > 0
        hit, pos = sorted_find(key[new], pos * radix + query)
        live &= hit
        pid = np.cumsum(new) - 1
    pos[~live] = -1
    return pos


class Poset:
    """Finite poset with ids in a linear extension and a CSR of up-sets.

    The labels are a tuple, or a subgroup family (groups.SubgroupFamily:
    it has take and distinct), kept as it is: induced then takes a
    sub-family, and the duplicate check runs on its arrays.  No dict
    from label to id is kept: a family finds its members by their rows
    (SubgroupFamily.positions).

    results is the store of Betti vectors (homology.betti_of_poset) of
    the load the poset belongs to: a family's group's
    (PermGroup.results), the parent's for an induced subposet, the first
    factor's for a join, and a store of its own for a poset built from
    labels."""

    def __init__(self, elements, ptr, ids, validate=False):
        if hasattr(elements, "distinct"):
            if not elements.distinct():
                raise NotAntisymmetric(
                    "family rows do not rise strictly: a label repeats")
            self.elements = elements
            self.results = elements.group.results
        else:
            self.elements = tuple(elements)
            if len(set(self.elements)) != len(self.elements):
                raise NotAntisymmetric("duplicate element labels")
            self.results = {}
        self.n = len(self.elements)
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)
        self._cache = {}
        if validate:
            self._validate()

    def _validate(self):
        n, ptr = self.n, self.ptr
        if ptr.shape != (n + 1,) or ptr[0] != 0 or ptr[-1] != len(self.ids) \
                or np.any(np.diff(ptr) < 0):
            raise IndexOutOfRange("ptr does not delimit one row per element")
        lo, hi = self.pairs()
        for bad, error, what in (
                ((hi < 0) | (hi >= n), IndexOutOfRange, "id outside [0, n)"),
                (hi == lo, NotAntisymmetric, "element above itself"),
                (hi < lo, NotAntisymmetric, "ids not a linear extension"),
                (np.diff(lo * n + hi, prepend=-1) <= 0, IndexOutOfRange,
                 "row not strictly ascending")):
            if bad.any():
                raise error(f"{what} at {lo[bad][0]}")
        # i < j < k must give i < k
        chains = _grow(self, np.column_stack((lo, hi)))
        missing = ~self.related(chains[:, 0], chains[:, 2])
        if missing.any():
            raise NotTransitiveAfterClosure(
                f"transitivity fails at {chains[missing, 0][0]}")

    def __repr__(self):
        return f"<Poset n={self.n}>"

    def pairs(self):
        """The strict order as aligned id arrays (lo, hi), one entry per
        relation lo < hi, sorted by lo and then hi."""
        return np.repeat(np.arange(self.n), np.diff(self.ptr)), self.ids

    def related(self, a, b):
        """Elementwise a < b over id arrays, searched in the sorted keys."""
        lo, hi = self.pairs()
        q = np.asarray(a, dtype=np.int64) * self.n + b
        return sorted_find(lo * self.n + hi, q)[0]

    def below(self):
        """CSR (ptr, ids) of down-sets: row v, the ids below v, ascending."""
        lo, hi = self.pairs()
        return row_ptr(hi, self.n), lo[np.argsort(hi, kind="stable")]

    def induced(self, ids):
        """Induced subposet on the given ids (any order; sorted internally).

        Returns (subposet, inc) where inc[k] = original id of element k.
        The kept pairs are a mask on the CSR, renumbered in order.
        """
        ids = sorted_unique(np.asarray(ids, dtype=np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= self.n):
            raise IndexOutOfRange("induced ids out of range")
        newid = np.full(self.n, -1, dtype=np.int64)
        newid[ids] = np.arange(ids.size)
        lo, hi = self.pairs()
        keep = (newid[lo] >= 0) & (newid[hi] >= 0)
        elements = ([self.elements[o] for o in ids.tolist()]
                    if isinstance(self.elements, tuple)
                    else self.elements.take(ids))
        sub = Poset(elements, row_ptr(newid[lo[keep]], ids.size),
                    newid[hi[keep]])
        sub.results = self.results
        return sub, ids

    def chain_counts(self):
        """Number of chains per dimension (dim d = chains with d+1 elements).

        Counts chains by their least element: the chains of d+2 elements
        starting at z number the sum, over the w above z, of the chains of
        d+1 elements starting at w, one prefix sum over the CSR per level.
        A level whose sums could pass 2^62 moves to Python ints, so the
        counts stay exact.
        """
        if "chain_counts" in self._cache:
            return self._cache["chain_counts"]
        bound = (1 << 62) // max(1, self.n, len(self.ids))
        counts = []
        level = np.ones(self.n, dtype=np.int64)
        while level.any():
            if level.dtype != object and level.max() > bound:
                level = level.astype(object)
            counts.append(int(level.sum()))
            sums = np.concatenate(([0], np.cumsum(level[self.ids])))
            level = sums[self.ptr[1:]] - sums[self.ptr[:-1]]
        self._cache["chain_counts"] = counts
        return counts

    def reduced_euler(self):
        chi = -1
        for d, c in enumerate(self.chain_counts()):
            chi += c if d % 2 == 0 else -c
        return chi

    def height(self):
        return len(self.chain_counts()) - 1


def join_posets(posets):
    """Join: disjoint union with everything in an earlier factor below
    everything in a later factor.  Elements are labelled (factor position,
    id in the factor), so no factor's labels are read."""
    total = sum(P.n for P in posets)
    elements = []
    lo, hi = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    off = 0
    for k, P in enumerate(posets):
        elements.extend((k, i) for i in range(P.n))
        plo, phi = P.pairs()
        later = np.arange(off + P.n, total)
        lo += [plo + off, np.repeat(np.arange(off, off + P.n), later.size)]
        hi += [phi + off, np.tile(later, P.n)]
        off += P.n
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    J = Poset(elements, row_ptr(lo, total), hi[np.lexsort((hi, lo))])
    if posets:
        J.results = posets[0].results
    return J


class SimplicialComplex:
    """Simplices per dimension: dims[d] is an (m_d, d+1) int64 array, and
    faces[d] its (m_d, d+1) table of face positions: faces[d][i, t] is
    the position in dims[d-1] of row i less its entry t, and 0, the
    empty simplex, in degree 0.  order_complex hands over the table it
    grew with the chains; a complex built from its arrays alone gets its
    table here, once, by one index search per degree.  A face missing
    there is -1, which RawComplex.from_simplicial refuses."""

    def __init__(self, dims, faces=None):
        self.dims = [np.asarray(d, dtype=np.int64).reshape(len(d), k + 1)
                     for k, d in enumerate(dims)]
        while self.dims and not len(self.dims[-1]):
            self.dims.pop()
        if faces is None:
            faces = [self.index(k - 1, simps[:, _drop(k)].reshape(-1, k))
                     .reshape(-1, k + 1) if k
                     else np.zeros((len(simps), 1), dtype=np.int64)
                     for k, simps in enumerate(self.dims)]
        self.faces = faces[:len(self.dims)]

    @property
    def simplex_counts(self):
        return [len(d) for d in self.dims]

    def index(self, d, rows):
        """Position of each row of rows in dims[d], or -1 where it is
        absent: one row_lookup of the degree's rows as they were built,
        lexicographic (InvariantViolated if they are not)."""
        table = (self.dims[d] if d < len(self.dims)
                 else np.empty((0, d + 1), dtype=np.int64))
        return row_lookup(table, rows)

    def reduced_euler(self):
        chi = -1
        for d, simps in enumerate(self.dims):
            chi += len(simps) if d % 2 == 0 else -len(simps)
        return chi

    def is_subcomplex_of(self, other):
        return all((other.index(d, simps) >= 0).all()
                   for d, simps in enumerate(self.dims))


def _drop(k):
    """(k + 1, k) column picks: row t is 0..k less t, so a degree-k array
    taken at it lists each simplex's faces, face t dropping entry t."""
    cols = np.arange(k + 1)
    return np.array([np.delete(cols, t) for t in range(k + 1)],
                    dtype=np.int64).reshape(k + 1, k)


def order_complex(P):
    """All nonempty chains of P, as a SimplicialComplex over P's ids, with
    its face table grown alongside.

    Each degree repeats every chain of the one below once per id above
    its last element (row of P's CSR), so the rows stay lexicographic
    and the extensions of one chain are consecutive.  The faces of a
    chain c = (v_0, ..., v_k) grown from its parent (v_0, ..., v_{k-1})
    at offset r among the parent's extensions are read off the parent's
    faces: face k is the parent; face t < k - 1 extends the parent's
    face t by v_k, at the same offset r among its extensions, since it
    ends at v_{k-1} too; face k - 1 extends the parent's face k - 1
    (v_0, ..., v_{k-2}) by v_k, at the offset of v_k in v_{k-2}'s CSR
    row, one searchsorted of v_{k-2}·n + v_k in P's sorted relation keys.
    Raises SimplexCapExceeded before allocating a degree past
    SIMPLEX_CAP.
    """
    dims, faces = [], []
    level = np.arange(P.n, dtype=np.int64)[:, None]
    face = np.zeros((P.n, 1), dtype=np.int64)
    keys = up = None
    total = P.n
    while len(level):
        dims.append(level)
        faces.append(face)
        total += int(np.diff(P.ptr)[level[:, -1]].sum())
        if total > SIMPLEX_CAP:
            raise SimplexCapExceeded(
                f"order complex exceeds {SIMPLEX_CAP} simplices")
        parent, at, first = _extensions(P, level[:, -1])
        k = level.shape[1]
        child = np.column_stack((level[parent], P.ids[at]))
        if k == 1:
            face = np.column_stack((child[:, 1], parent))
        else:
            if keys is None:
                keys = np.repeat(np.arange(P.n), np.diff(P.ptr)) * P.n + P.ids
            # up[f]: the first extension of the level's face f
            below = child[:, k - 2]
            grown = np.empty_like(child)
            grown[:, :k] = up[face][parent]
            grown[:, :k - 1] += (np.arange(len(child)) - first[parent])[:, None]
            grown[:, k - 1] += np.searchsorted(keys, below * P.n + child[:, k]) \
                - P.ptr[below]
            grown[:, k] = parent
            face = grown
        level, up = child, first
    return SimplicialComplex(dims, faces)


def _extensions(P, last):
    """(parent, at, first) for the chains that extend a level of chains
    ending at the ids last, each once per id above its end, in order:
    new chain i is chain parent[i] with P.ids[at[i]] appended, and the
    extensions of chain c start at first[c]."""
    reps = np.diff(P.ptr)[last]
    first = np.cumsum(reps) - reps
    parent = np.repeat(np.arange(len(last)), reps)
    at = np.arange(len(parent)) + (P.ptr[last] - first)[parent]
    return parent, at, first


def _grow(P, level):
    """Each row of level once per id above its last entry, that id appended."""
    parent, at, _ = _extensions(P, level[:, -1])
    return np.column_stack((level[parent], P.ids[at]))


# -- poset maps -----------------------------------------------------------------


class PosetMap:
    """Order-preserving map between posets, as an id table, checked.

    results is the store of its induced-map reports (homology.induced_map):
    its own, or the one it shares with the other maps an OrbitContext
    built."""

    def __init__(self, source, target, table):
        self.source = source
        self.target = target
        self.table = np.asarray(table, dtype=np.int64)
        self.results = {}
        if self.table.shape != (source.n,):
            raise NotOrderPreserving("table length does not match source")
        if self.table.size and (self.table.min() < 0 or self.table.max() >= target.n):
            raise IndexOutOfRange("map table value out of range")
        lo, hi = source.pairs()
        fi, fj = self.table[lo], self.table[hi]
        bad = np.flatnonzero((fi != fj) & ~target.related(fi, fj))
        if bad.size:
            k = bad[0]
            raise NotOrderPreserving(f"{lo[k]} < {hi[k]} maps to "
                                     f"incomparable {fi[k]}, {fj[k]}")

    def compose(self, inner):
        """self ∘ inner."""
        if inner.target is not self.source:
            raise ParentMismatch("composition type mismatch")
        return PosetMap(inner.source, self.target, self.table[inner.table])


def check_action_tables(P, tables):
    """Validate that each table is an order-automorphism of P: a bijection
    on ids mapping the finite relation set into, hence onto, itself."""
    ident = np.arange(P.n)
    lo, hi = P.pairs()
    for t in tables:
        t = np.asarray(t)
        if t.shape != (P.n,) or not np.array_equal(np.sort(t), ident):
            raise NotAnActionByAutomorphisms("table is not a bijection on ids")
        bad = np.flatnonzero(~P.related(t[lo], t[hi]))
        if bad.size:
            raise NotAnActionByAutomorphisms(
                f"table does not preserve order at {lo[bad[0]]}")


def fixed_subposet(P, tables):
    """Induced subposet of points fixed by every table, after checking that
    each table is an order-automorphism of P.

    Returns (subposet, inc ids array)."""
    check_action_tables(P, tables)
    fixed = np.arange(P.n)
    for t in tables:
        t = np.asarray(t)
        fixed = fixed[t[fixed] == fixed]
    return P.induced(fixed)


# -- beat point reduction ----------------------------------------------------------


def beat_point_core(P):
    """Remove beat points until none remain.

    Returns (core, inc, ret): core the reduced Poset, inc[k] = original id
    of core element k, ret[i] = core id that original element i retracts
    to.  Each round reads the beat points off two bincounts over the live
    relation pairs.  Ids are a linear extension, so the least live id u
    above x is minimal above x, and every live id above u is above x: u is
    x's unique upper cover exactly when x's live up-degree is one more
    than u's.  Dually with d, the largest live id below x.  x retracts to
    u, else d.  Beat points whose targets stay can go at once, since
    removing other points leaves each one's cover unique; a round removes
    those at odd depth in the forest x -> target (_odd_depth), whose only
    cycles (u covers only x, and x only u) are broken at their larger id.
    So the kept set is fixed by P alone.  A chain halves in each round; a
    fence loses only its two ends.  The core is a strong deformation
    retract of P by ret, which is how induced maps reach the cores.
    Uncached; homology._core keeps one.
    """
    n = P.n
    ids = np.arange(n)
    lo, hi = P.pairs()
    alive = np.ones(n, dtype=bool)
    ret_ptr = ids.copy()
    while len(lo):
        up, down = np.bincount(lo, minlength=n), np.bincount(hi, minlength=n)
        u = hi[np.minimum(np.cumsum(up) - up, len(hi) - 1)]
        d = np.zeros(n, dtype=np.int64)
        np.maximum.at(d, hi, lo)
        target = np.where(up == up[u] + 1, u,
                          np.where(down == down[d] + 1, d, ids))
        beat = target != ids
        if not beat.any():
            break
        # each 2-cycle x -> y -> x becomes a tree rooted at its larger id
        parent = np.where(beat & ((target[target] != ids) | (target > ids)),
                          target, ids)
        drop = _odd_depth(parent)
        ret_ptr[drop] = target[drop]
        alive[drop] = False
        live = alive[lo] & alive[hi]
        lo, hi = lo[live], hi[live]

    core, inc = P.induced(np.flatnonzero(alive))
    # each removed id points at an id removed after it or kept: jump the
    # pointers until every id points into the core
    nxt = ret_ptr[ret_ptr]
    while not np.array_equal(nxt, ret_ptr):
        ret_ptr, nxt = nxt, nxt[nxt]
    return core, inc, np.searchsorted(inc, ret_ptr)


def _odd_depth(parent):
    """Mask of the nodes at odd depth in the forest parent, whose roots
    point at themselves, by pointer doubling: odd[x] is the parity of the
    distance from x to parent[x], which jumps to its grandparent."""
    odd = parent != np.arange(len(parent))
    nxt = parent[parent]
    while not np.array_equal(nxt, parent):
        odd ^= odd[parent]
        parent, nxt = nxt, nxt[nxt]
    return odd

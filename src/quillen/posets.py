"""Finite posets, order complexes, beat-point reduction.

A Poset stores, for each element id, the bitset of strictly larger ids.
Ids are always assigned along a linear extension (i < j whenever
element i is below element j), which makes chains id-increasing and
keeps joins and induced subposets cheap.

The order complex K(P) has the nonempty chains of P as simplices, kept
per degree d as one (m_d, d+1) int64 array of increasing rows.  One
lookup, SimplicialComplex.index, finds rows (faces, images, simplices of
a subcomplex) in any complex.  Beat
points (elements with a unique upper or unique lower cover) can be
removed one at a time without changing the homotopy type of K(P); the
composite retraction is returned alongside the reduced poset so induced
maps can be transported to the core.  The beat-point test reads the up
and down bitsets directly, so no cover lists are kept.
"""

from array import array

import numpy as np

from .bits import iter_bits
from .errors import (
    IndexOutOfRange,
    NotAnActionByAutomorphisms,
    NotAntisymmetric,
    NotOrderPreserving,
    NotTransitiveAfterClosure,
    ParentMismatch,
    SimplexCapExceeded,
)

SIMPLEX_CAP = 50_000_000


class Poset:
    """Finite poset with ids in a linear extension."""

    def __init__(self, elements, up, validate=False):
        self.elements = tuple(elements)
        self.up = list(up)
        self.n = len(self.elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != self.n:
            raise NotAntisymmetric("duplicate element labels")
        self._above = None
        self._down = None
        self._cache = {}
        if validate:
            self._validate()

    def _validate(self):
        for i in range(self.n):
            if self.up[i] >> self.n:
                raise IndexOutOfRange(f"relation bit beyond n at {i}")
            if (self.up[i] >> i) & 1:
                raise NotAntisymmetric(f"element {i} above itself")
            if self.up[i] & ((1 << i) - 1):
                raise NotAntisymmetric(f"ids not a linear extension at {i}")
            acc = 0
            for j in iter_bits(self.up[i]):
                acc |= self.up[j]
            if acc & ~self.up[i]:
                raise NotTransitiveAfterClosure(f"transitivity fails at {i}")

    def __repr__(self):
        return f"<Poset n={self.n}>"

    def leq(self, i, j):
        return i == j or bool((self.up[i] >> j) & 1)

    def lt(self, i, j):
        return bool((self.up[i] >> j) & 1)

    @property
    def above(self):
        """above[i] = ids above i, ascending, as an int64 array: each
        bitset is read once, for chain_counts, down and order_complex."""
        if self._above is None:
            self._above = [array("q", iter_bits(m)) for m in self.up]
        return self._above

    @property
    def down(self):
        if self._down is None:
            down = [0] * self.n
            for i, ids in enumerate(self.above):
                bit = 1 << i
                for j in ids:
                    down[j] |= bit
            self._down = down
        return self._down

    def induced(self, ids):
        """Induced subposet on the given ids (any order; sorted internally).

        Returns (subposet, inc) where inc[k] = original id of element k.
        """
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= self.n):
            raise IndexOutOfRange("induced ids out of range")
        newid = {int(o): k for k, o in enumerate(ids)}
        mask = 0
        for o in ids:
            mask |= 1 << int(o)
        up = []
        for o in ids:
            m = self.up[int(o)] & mask
            acc = 0
            for j in iter_bits(m):
                acc |= 1 << newid[j]
            up.append(acc)
        sub = Poset([self.elements[int(o)] for o in ids], up)
        return sub, ids

    def chain_counts(self):
        """Number of chains per dimension (dim d = chains with d+1 elements).

        Counts chains by their least element: the chains of d+2 elements
        starting at z number the sum, over the w above z, of the chains of
        d+1 elements starting at w.  Every level sums over the lists of
        ids above (self.above).
        """
        if "chain_counts" in self._cache:
            return self._cache["chain_counts"]
        above = self.above
        counts = []
        level = [1] * self.n
        while any(level):
            counts.append(sum(level))
            get = level.__getitem__
            level = [sum(map(get, ids)) for ids in above]
        self._cache["chain_counts"] = counts
        return counts

    def reduced_euler(self):
        chi = -1
        for d, c in enumerate(self.chain_counts()):
            chi += c if d % 2 == 0 else -c
        return chi

    def height(self):
        return len(self.chain_counts()) - 1


def join_posets(posets, tag_elements=True):
    """Join: disjoint union with everything in an earlier factor below
    everything in a later factor.  Elements become (factor_index, label)
    unless tag_elements is False and labels are already unique."""
    offsets = []
    total = 0
    for P in posets:
        offsets.append(total)
        total += P.n
    full = (1 << total) - 1
    elements = []
    up = []
    for k, P in enumerate(posets):
        off = offsets[k]
        later = full & ~((1 << (off + P.n)) - 1)
        for i in range(P.n):
            elements.append((k, P.elements[i]) if tag_elements else P.elements[i])
            up.append((P.up[i] << off) | later)
    return Poset(elements, up)


class SimplicialComplex:
    """Simplices per dimension: dims[d] is an (m_d, d+1) int64 array."""

    def __init__(self, dims):
        self.dims = [np.asarray(d, dtype=np.int64).reshape(len(d), k + 1)
                     for k, d in enumerate(dims)]
        while self.dims and not len(self.dims[-1]):
            self.dims.pop()

    @property
    def simplex_counts(self):
        return [len(d) for d in self.dims]

    def index(self, d, rows):
        """Position of each row of rows in dims[d], or -1 where it is
        absent.  One stable lexsort ranks the table and then the rows, so
        a run of equal rows starts with its table row, if it has one."""
        table = (self.dims[d] if d < len(self.dims)
                 else np.empty((0, d + 1), dtype=np.int64))
        both = np.concatenate((table, rows))
        order = np.lexsort(both.T[::-1])
        ranked = both[order]
        head = np.ones(len(both), dtype=bool)
        head[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        first = order[head][np.cumsum(head) - 1]
        pos = np.empty(len(both), dtype=np.int64)
        pos[order] = np.where(first < len(table), first, -1)
        return pos[len(table):]

    def reduced_euler(self):
        chi = -1
        for d, simps in enumerate(self.dims):
            chi += len(simps) if d % 2 == 0 else -len(simps)
        return chi

    def is_subcomplex_of(self, other):
        return all((other.index(d, simps) >= 0).all()
                   for d, simps in enumerate(self.dims))


def order_complex(P):
    """All nonempty chains of P, as a SimplicialComplex over P's ids.

    Each degree repeats every chain of the one below once per id above its
    last element (the CSR of P.above), so the rows stay lexicographic.
    Raises SimplexCapExceeded before allocating a degree past SIMPLEX_CAP.
    """
    above = P.above
    deg = np.fromiter(map(len, above), dtype=np.int64, count=P.n)
    start = np.cumsum(deg) - deg
    ids = np.frombuffer(b"".join(above), dtype=np.int64)
    dims = []
    level = np.arange(P.n, dtype=np.int64)[:, None]
    total = P.n
    while len(level):
        dims.append(level)
        reps = deg[level[:, -1]]
        total += int(reps.sum())
        if total > SIMPLEX_CAP:
            raise SimplexCapExceeded(
                f"order complex exceeds {SIMPLEX_CAP} simplices")
        # new row r extends chain c by ids[start[c's last] + r - first[c]]
        shift = np.repeat(start[level[:, -1]] - np.cumsum(reps) + reps, reps)
        level = np.column_stack((np.repeat(level, reps, axis=0),
                                 ids[np.arange(len(shift)) + shift]))
    return SimplicialComplex(dims)


# -- poset maps -----------------------------------------------------------------


class PosetMap:
    """Order-preserving map between posets, stored as an id table."""

    def __init__(self, source, target, table, validate=True):
        self.source = source
        self.target = target
        self.table = np.asarray(table, dtype=np.int64)
        if self.table.shape != (source.n,):
            raise NotOrderPreserving("table length does not match source")
        if self.table.size and (self.table.min() < 0 or self.table.max() >= target.n):
            raise IndexOutOfRange("map table value out of range")
        if validate:
            up_s, up_t = source.up, target.up
            t = [int(v) for v in self.table]
            for i in range(source.n):
                fi = t[i]
                for j in iter_bits(up_s[i]):
                    fj = t[j]
                    if fi != fj and not ((up_t[fi] >> fj) & 1):
                        raise NotOrderPreserving(
                            f"{i} < {j} maps to incomparable {fi}, {fj}")

    def __call__(self, i):
        return int(self.table[i])

    def compose(self, inner):
        """self ∘ inner."""
        if inner.target is not self.source:
            raise ParentMismatch("composition type mismatch")
        return PosetMap(inner.source, self.target,
                        self.table[inner.table], validate=False)


def make_map(source, target, fn):
    """PosetMap from a label function; fn may also return a target id."""
    table = np.empty(source.n, dtype=np.int64)
    for i, e in enumerate(source.elements):
        v = fn(e)
        if v in target.index:
            table[i] = target.index[v]
        elif isinstance(v, (int, np.integer)):
            table[i] = int(v)
        else:
            raise IndexOutOfRange(f"image {v!r} not in target poset")
    return PosetMap(source, target, table)


def check_action_tables(P, tables):
    """Validate that each table is an order-automorphism of P."""
    ident = np.arange(P.n)
    for t in tables:
        t = np.asarray(t)
        if t.shape != (P.n,) or not np.array_equal(np.sort(t), ident):
            raise NotAnActionByAutomorphisms("table is not a bijection on ids")
        for i in range(P.n):
            img = 0
            for j in iter_bits(P.up[i]):
                img |= 1 << int(t[j])
            if img != P.up[int(t[i])]:
                raise NotAnActionByAutomorphisms(
                    f"table does not preserve order at {i}")


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
    to.  The test reads the bitsets: with U the live ids above x and u the
    least of them, x is an up beat point when U less u lies inside up[u];
    with D the live ids below x and d the largest, a down beat point when
    D less d lies inside down[d].  Ids are a linear extension, so u is
    minimal in U and d maximal in D, and U less u inside up[u] says u is
    x's only upper cover.  Sweeps run over the live ids in ascending
    order, removing each beat point as it is met (x retracts to u, else
    d), until a sweep removes nothing; so the kept set is fixed by P
    alone.  The core is a strong deformation retract of P by ret, which
    is how induced maps reach the cores.  Uncached; homology._core keeps
    one.
    """
    n = P.n
    up, down = P.up, P.down
    alive = (1 << n) - 1
    ret_ptr = list(range(n))
    removed = True
    while removed:
        removed = False
        for x in iter_bits(alive):
            U = up[x] & alive
            u = (U & -U).bit_length() - 1
            D = down[x] & alive
            d = D.bit_length() - 1
            if U and U & ~up[u] == 1 << u:
                ret_ptr[x] = u
            elif D and D & ~down[d] == 1 << d:
                ret_ptr[x] = d
            else:
                continue
            alive ^= 1 << x
            removed = True

    kept = np.fromiter(iter_bits(alive), dtype=np.int64)
    core, inc = P.induced(kept)
    coreid = {int(o): k for k, o in enumerate(kept)}
    ret = np.empty(n, dtype=np.int64)
    for i in range(n):
        j = i
        seen = []
        while j not in coreid:
            seen.append(j)
            j = ret_ptr[j]
        for s in seen:
            ret_ptr[s] = j
        ret[i] = coreid[j]
    return core, inc, ret

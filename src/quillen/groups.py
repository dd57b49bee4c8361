"""Finite permutation groups with full element tables.

Everything downstream (poset construction, homology of p-subgroup posets)
works with element *indices* into a fully enumerated group.  That is viable
because the groups of interest here stay well under the order cap, and it
makes subgroup algebra (centralizers, normalizers, conjugation) plain
vectorized numpy over the element table.

Conventions:
  * composition (p*q)(x) = p(q(x)), i.e. q acts first;
  * element 0 is the identity;
  * a Subgroup is a sorted array of member indices into its parent group,
    always containing 0.

Element arithmetic is on permutation rows, with no table beside the
element index: an inverse is the argsort of its row, and x^e = 1 is one
square-and-multiply power test (_power_is_identity), which finds the
p-elements (on the elements that bring point 0 back after p steps), a
Sylow subgroup's, the q'-elements of the hyperelementary check, cyclic
subgroups and prime-order classes.  No element orders are computed.

The hot set work runs in bulk rather than element by element in Python:
  * PermGroup.generate numbers the elements by a BFS of the Cayley
    graph, a level at a time: a level's products are keyed as exact
    int64 words (the row packed as posets._pack packs rows) by one
    stacked matrix product of the frontier, with no product row built,
    and one sort and one search of the keys seen find the new elements.
    Each is numbered by where it is first seen (level, then generator,
    then frontier row), and only the new rows are built;
  * the one element index is two int64 arrays built once from the
    final rows: every element's key (the same exact words, one matrix
    product per batch of rows), ascending, and the element number of
    each key.  PermGroup.lookup_rows packs a whole batch and resolves it
    with one sorted_find; it raises NotAnElement for a row outside the
    group, and for any entry outside [0, degree), on which packing
    would alias;
  * close_indices grows a subgroup a BFS level at a time, one
    lookup_rows per level for the products under every generator, from
    the identity or from a subgroup already known, whose right cosets it
    then adds whole;
  * _adjoin is the one loop that grows a subgroup until it holds given
    elements, for generating_set, class closures (_class_closure),
    sylow_subgroup and hyperelementary_check: the first element outside
    joins the generators, and the subgroup regrows from its members;
  * Subgroup.contains_indices (binary search in the sorted member array)
    is the one membership test; membership asks it once for a whole
    family, over the member CSR a poset keeps, and intersections filter
    the smaller member array;
  * normalizer takes the candidates for the target's first generator t
    from t's class in the ambient, one coset of C(t) per conjugate of t
    inside the target, with no scan of the ambient.  They stay
    permutation rows while later generators filter them: a conjugate
    that agrees at the points 0 and 1 with no member of the target is
    dropped, and only the other conjugates and the final members are
    looked up.  The class, its transversal and C(t) come from one BFS
    per class, cached on the ambient; a conjugate of a cached element
    reads its class off that entry.  Every element in centralizer is
    tested against the survivors of the last, at one point before
    whole rows; normalizes answers "is it normal" from generators alone;
  * sylow_subgroup power tests a normalizer's members in ascending
    blocks and stops at the first that holds a p-element outside P;
  * _position_maps gives one position map per actor generator, from
    one conj_batch each: _classes labels element classes by them, and
    the commuting table moves its rows along them; _subgroup_class is
    the one walk of a subgroup's class, as rows, each element looked up
    once per generator: the radical poset's classes and the simple
    factors of a minimal normal subgroup;
  * elementary_abelian_subgroups steps a whole rank at a time, from the
    p-elements of one power test (PermGroup.p_element_mask) and one
    table of their commuting pairs with products: one row per class of
    p-elements is found and looked up, and the others are moved along
    the position maps.  The rank steps search the table, with no
    lookup, and build each subgroup once, from its canonical pair.  It
    returns a SubgroupFamily, arrays per order whose readers take its
    member rows, with no Subgroup built.

Components come from class closures.  The normal closure of x is
<x^G>, the subgroup its class generates, so _class_closure grows it by
_adjoin over the class's members, which _classes has labelled already:
no subgroup's members are conjugated to close it.  The prime-order
classes are labelled over the prime-order elements alone, found by one
power test per prime and conjugated once per generator
(_prime_order_classes).  The minimal normal subgroups are the minimal
closures of those classes, returned as they are.  A nonabelian minimal
normal subgroup M is split from one factor (_simple_factors): T, the
closure in M of its smallest prime-order class, is checked simple, and
the factors are the k rows of T's class under the group, each with T's
generators conjugated, with |T|^k = |M| checked.  Simplicity reads the
closures of the prime-order classes, and quasisimplicity (nonabelian,
every noncentral class closing to the whole) those of the noncentral
classes; no derived subgroup is formed.  No production route builds
the lattice of normal subgroups; normal_subgroups is a library function.

The cache rule: data derived from a subgroup (Sylow subgroups, p-cores,
classes, class closures, the classes of elements under it with a
transversal and centralizer each, components, a generating set, elementary
abelian subgroups and the posets built from them) lives in one table on
the parent group, keyed by Subgroup.key, so equal subgroups reached by
different routes share it.  Subgroup._cache is that table's entry,
created on first use.  Homology results are not derived data of a
subgroup: PermGroup.results is the load's store of Betti vectors, keyed
by what they are computed from (homology.betti_of_poset), which every
poset of the group's families shares, and so do the posets of a
conjugation action's image, which is part of the same load.
"""

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import (
    ActorDoesNotNormalize,
    ComponentsUndetectable,
    EnumerationCapExceeded,
    IndexOutOfRange,
    InvariantViolated,
    NotAnElement,
    NotPrime,
    OrderCapExceeded,
    ParentMismatch,
    SubgroupNotContained,
)
from .posets import Poset, _word_width, row_lookup, row_ptr, row_runs, \
    sorted_find, sorted_unique

DEFAULT_ORDER_CAP = 500_000


def _times_inverse(rows, by):
    """m b^-1 for each permutation row m of rows, b being by, one row, or
    by's row at m's position: m b^-1 sends b(a) to m(a), so it is one
    scatter, with no inverse."""
    out = np.empty_like(rows)
    np.put_along_axis(out, np.broadcast_to(by, rows.shape), rows, axis=-1)
    return out


def _power_is_identity(rows, e):
    """Mask of the permutation rows x with x^e = 1, for e >= 1: x^e by
    square and multiply, about 2 log2(e) compositions per row."""
    ident = np.arange(rows.shape[-1], dtype=rows.dtype)
    power, square = None, rows
    while True:
        if e & 1:
            power = square if power is None else np.take_along_axis(
                square, power, axis=-1)
        e >>= 1
        if not e:
            return np.all(power == ident, axis=-1)
        square = np.take_along_axis(square, square, axis=-1)


def _p_part(n, p):
    """The largest power of p dividing n."""
    q = 1
    while n % (q * p) == 0:
        q *= p
    return q


def _check_order_cap(order_cap):
    """IndexOutOfRange unless order_cap is at least 1, the order of the
    trivial group."""
    if order_cap < 1:
        raise IndexOutOfRange(f"order cap {order_cap} must be at least 1")


def _merge_sorted(a, b):
    """The ascending arrays a and b as one: a stable sort (timsort)
    merges the two runs in one pass, in place."""
    out = np.concatenate((a, b))
    out.sort(kind="stable")
    return out


def _as_perm_rows(gen_rows, degree):
    rows = np.asarray(gen_rows, dtype=np.int16)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.size == 0:
        rows = np.arange(degree, dtype=np.int16).reshape(1, -1)
    return rows


def _key_dtype(nw):
    """The dtype that reads a row's nw int64 words as one sortable key:
    int64 for one word, nw words of bytes for several."""
    return np.dtype(np.int64) if nw == 1 else np.dtype((np.void, 8 * nw))


class PermGroup:
    """A finite permutation group, fully enumerated.

    Built by generate, which hands over the final rows, the generator
    rows and the word matrix: row @ words is a row's exact int64 words
    (_word_width columns to a word, radix degree).  The element index is
    built here, once: _keys, every row's key ascending, by one product
    and one argsort, and _numbers, the element number of each key.
    """

    __slots__ = ("perms", "order", "degree", "gens", "name", "_words",
                 "_keys", "_numbers", "_pmask", "_full", "_derived",
                 "results")

    def __init__(self, perms, gen_rows, words, name=""):
        self.perms = np.ascontiguousarray(perms, dtype=np.int16)
        self.order, self.degree = self.perms.shape
        self.name = name
        self._words = words
        keys = (self.perms @ words).view(_key_dtype(words.shape[1])).ravel()
        self._numbers = np.argsort(keys)
        self._keys = keys[self._numbers]
        self.gens = tuple(self.lookup_rows(gen_rows).tolist()) or (0,)
        self._pmask = {}
        self._full = None
        # Subgroup.key -> derived data of that subgroup (Subgroup._cache)
        self._derived = {}
        # the load's homology results, shared by its posets (Poset.results)
        self.results = {}

    @classmethod
    def generate(cls, gen_rows, degree, name="", order_cap=DEFAULT_ORDER_CAP):
        """Enumerate the group generated by the given permutation rows.

        BFS of the Cayley graph by whole levels, the generators
        deduplicated in the order given and the identity dropped.  Each
        product f∘g of a level is keyed as exact int64 words, the row f∘g
        packed as posets._pack packs rows (_word_width columns to a word:
        one word through degree 15).  A word of f∘g is linear in f's row,
        which it reads at the columns g[i], so one stacked matrix product
        of the frontier's columns keys the whole level, generator-major,
        with no product row built.  The keys are sorted once; a run of
        equal keys is one element, first seen at the least position in
        its run, and one search of the run heads against the keys seen
        finds the new ones.  They take the next indices in the order of
        their first positions, so the numbering is the dict BFS's: level,
        then generator, then frontier row.  Only their rows are built.
        The keys seen are two sorted arrays, base and a recent one that
        joins it once it holds more than sqrt(len(base)) keys, so that a
        deep graph's levels of a few elements do not copy them all.  The
        sorted index lookup_rows reads is built once, from the final rows
        and the same words.

        OrderCapExceeded once a level takes the order past order_cap, and
        IndexOutOfRange, before any enumeration, for a cap below 1.
        """
        _check_order_cap(order_cap)
        rows = np.ascontiguousarray(_as_perm_rows(gen_rows, degree))
        ident = np.arange(degree, dtype=np.int16)
        gens = dict.fromkeys(r.tobytes() for r in rows)
        gens.pop(ident.tobytes(), None)
        gen_cols = np.frombuffer(b"".join(gens), dtype=np.int16).reshape(
            len(gens), degree)
        k = len(gen_cols)
        # word u of a row h packs its columns i with i // w == u, h[i] at
        # place value pv[i].  Word u of f∘g reads f at the columns g[i]:
        # feeds marks them over all generators, U lists them (padded),
        # and Wb[u, g, t] is the place value f[U[u, t]] takes in f∘g
        w = _word_width(degree, degree, 1)
        nw = max(1, -(-degree // w))
        col = np.arange(degree)
        word = col // w
        pv = np.int64(degree) ** (np.minimum(word * w + w, degree) - 1 - col)
        feeds = np.zeros((nw, degree), dtype=bool)
        feeds[word, gen_cols] = True
        width = feeds.sum(axis=1).max(initial=0)
        U = np.argsort(~feeds, axis=1, kind="stable")[:, :width]
        Wb = np.zeros((nw, k, width), dtype=np.int64)
        np.add.at(Wb, (word, np.arange(k)[:, None],
                       np.cumsum(feeds, axis=1)[word, gen_cols] - 1), pv)
        # a level's keys, one int64 word or a void of nw words each;
        # words[i, u] is column i's place value in word u
        key = _key_dtype(nw)
        words = np.zeros((degree, nw), dtype=np.int64)
        words[col, word] = pv
        ident_key = col @ words
        # the keys seen, sorted: base, and recent, which joins base once
        # it holds more than sqrt(len(base)) keys, so that levels of a few
        # elements each, as in a deep Cayley graph, do not copy them all
        base, recent = ident_key.view(key), ident_key[:0].view(key)
        levels = [ident.reshape(1, -1)]
        while k:
            frontier = levels[-1]
            m = len(frontier)
            # the products' keys, generator-major
            keys = np.ascontiguousarray((Wb @ frontier.T[U]).transpose(
                1, 2, 0)).view(key).ravel()
            order = np.argsort(keys)
            keys = keys[order]
            head = np.ones(len(keys), dtype=bool)
            head[1:] = keys[1:] != keys[:-1]
            start = np.flatnonzero(head)
            heads = keys[start]
            new = ~(sorted_find(base, heads)[0] | sorted_find(recent, heads)[0])
            recent = _merge_sorted(recent, heads[new])
            if len(base) + len(recent) > order_cap:
                raise OrderCapExceeded(f"group order exceeds cap {order_cap}")
            if len(recent) ** 2 > len(base):
                base, recent = _merge_sorted(base, recent), recent[:0]
            # the new elements' first positions, ascending: one block of
            # frontier rows per generator
            first = np.sort(np.minimum.reduceat(order, start)[new])
            if not len(first):
                break
            cut = [0, *np.searchsorted(first, np.arange(1, k) * m).tolist(),
                   len(first)]
            levels.append(np.concatenate([
                frontier[first[cut[g]:cut[g + 1], None] - g * m, gen_cols[g]]
                for g in range(k)]))
        return cls(np.concatenate(levels), gen_cols, words, name=name)

    def __repr__(self):
        nm = self.name or "PermGroup"
        return f"<{nm}: order {self.order}, degree {self.degree}>"

    # -- element table access ------------------------------------------------

    def lookup_rows(self, rows):
        """Indices of a batch of rows, shape (n, degree), in one pass: the
        rows packed as the index's keys, found by one sorted_find.

        NotAnElement for a row outside the group, and for any entry
        outside [0, degree), on which packing is not injective (at
        degree 8, [0, 9, ...] packs as [1, 1, ...]).  Through a uint16
        view a negative entry reads as 2^16 + e, so one max checks the
        range; an entry that the cast to int16 would wrap fails the
        round trip.
        """
        given = np.asarray(rows)
        rows = given.astype(np.int16, copy=False)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.degree:
            raise NotAnElement(
                f"rows of shape {rows.shape} are not elements of {self!r}")
        if rows.view(np.uint16).max() < self.degree and (
                rows is given or (rows == given).all()):
            hit, pos = sorted_find(self._keys, (rows @ self._words).view(
                self._keys.dtype).ravel())
            if hit.all():
                return self._numbers[pos]
        else:
            # the first row with an entry out of range is reported
            hit = (rows.view(np.uint16) < self.degree).all(axis=1) & \
                (rows == given).all(axis=1)
        row = given[np.argmin(hit)].tolist()
        raise NotAnElement(f"{row} is not an element of {self!r}")

    def p_element_mask(self, p):
        """Mask of the elements x != 1 with x^p = 1, the elements of order
        p for p prime.  Point 0 is followed through p applications of
        every element, and only the elements that bring it back take the
        whole-row power test (_power_is_identity).  A p above the degree
        divides no element's order."""
        if p not in self._pmask:
            mask = np.zeros(self.order, dtype=bool)
            if p <= self.degree:
                each = np.arange(self.order)
                at = np.zeros(self.order, dtype=np.intp)
                for _ in range(p):
                    at = self.perms[each, at]
                back = np.flatnonzero(at == 0)[1:]
                mask[back] = _power_is_identity(self.perms[back], p)
            self._pmask[p] = mask
        return self._pmask[p]

    # -- conjugation ----------------------------------------------------------

    def conj_batch(self, g, idx):
        """Indices of g x g^-1 for each x in idx."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return idx
        grow = self.perms[g]
        return self.lookup_rows(grow[self.perms[idx][:, np.argsort(grow)]])

    # -- subgroup constructors -------------------------------------------------

    def full(self):
        if self._full is None:
            self._full = Subgroup(
                self, np.arange(self.order, dtype=np.int64), gens=self.gens)
        return self._full

    def subgroup(self, gen_indices):
        """Subgroup generated by the given element indices."""
        gens = _gens_tuple(gen_indices)
        return Subgroup(self, close_indices(self, gens), gens=gens)

    def subgroup_from_rows(self, gen_rows):
        return self.subgroup(
            self.lookup_rows(_as_perm_rows(gen_rows, self.degree)))


def _trivial(group):
    """The trivial subgroup, generated by the identity."""
    return Subgroup(group, np.zeros(1, dtype=np.int64), gens=(0,))


def _gens_tuple(gen_indices):
    """The generator tuple a subgroup carries: sorted, distinct, no identity
    unless there is nothing else."""
    return tuple(sorted({int(g) for g in gen_indices} - {0})) or (0,)


def close_indices(group, gen_indices, start=None):
    """Member indices of start * <gen_indices>, ascending.

    start is the member array of a subgroup K (default: the identity
    alone, which gives the subgroup generated by gen_indices).  The result
    is a union of right cosets K y, so the BFS runs over cosets a level at
    a time: one representative of each new coset times every generator,
    looked up in one batch, generator-major.  The products outside the
    members found so far bring in their cosets K y whole, in one more
    batch, and one product per new coset represents it at the next level.
    """
    K = np.zeros(1, dtype=np.int64) if start is None else start
    member = np.zeros(group.order, dtype=bool)
    member[K] = True
    grows = [group.perms[g] for g in gen_indices if g != 0]
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size and grows:
        P = group.perms[frontier]
        new = np.zeros(group.order, dtype=bool)
        new[group.lookup_rows(np.concatenate([P[:, g] for g in grows]))] = True
        frontier = np.flatnonzero(new & ~member)
        if K.size > 1 and frontier.size:
            # cosets[i, j] is the index of K[i] * frontier[j]
            cosets = group.lookup_rows(
                group.perms[K][:, group.perms[frontier]].reshape(
                    -1, group.degree)).reshape(K.size, -1)
            _, first = np.unique(cosets.min(axis=0), return_index=True)
            frontier = frontier[first]
            member[cosets.ravel()] = True
        else:
            member[frontier] = True
    return np.flatnonzero(member)


class Subgroup:
    """A subgroup given by its sorted member-index array (0 always present)."""

    __slots__ = ("group", "midx", "gens", "_key")

    def __init__(self, group, member_indices, gens=None):
        self.group = group
        self.midx = np.asarray(member_indices, dtype=np.int64)
        if self.midx.size == 0 or self.midx[0] != 0:
            self.midx = sorted_unique(np.append(self.midx, 0))
        self.gens = tuple(int(g) for g in gens) if gens is not None else None
        self._key = None

    @property
    def order(self):
        return int(self.midx.size)

    @property
    def key(self):
        if self._key is None:
            self._key = self.midx.tobytes()
        return self._key

    @property
    def _cache(self):
        """Derived data, shared by every Subgroup equal to this one."""
        return self.group._derived.setdefault(self.key, {})

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.group is self.group
                and other.key == self.key)

    def __hash__(self):
        return hash((id(self.group), self.key))

    def __repr__(self):
        return f"<Subgroup order {self.order} of {self.group.name or 'G'}>"

    def contains_indices(self, idx):
        """Boolean membership of each parent index in idx."""
        return sorted_find(self.midx, np.asarray(idx, dtype=np.int64))[0]

    def is_subset_of(self, other):
        if other.group is not self.group:
            raise ParentMismatch("subgroups of different groups")
        if self.order > other.order:
            return False
        return bool(np.all(other.contains_indices(self.midx)))

    def generating_set(self):
        """Small generating set (greedy over members), cached: _adjoin
        over the members from the identity, so each pick is the least
        member outside the closure of the picks before it."""
        if self.gens is not None:
            return self.gens
        if "gens" not in self._cache:
            self._cache["gens"] = _adjoin(_trivial(self.group), [],
                                          self.midx).gens
        return self._cache["gens"]

    def conjugate(self, g):
        """The subgroup g S g^-1: members and generators conjugated in one
        conj_batch."""
        n = self.order
        conj = self.group.conj_batch(g, np.concatenate(
            (self.midx, self.gens or ())).astype(np.int64))
        return Subgroup(self.group, np.sort(conj[:n]),
                        gens=None if self.gens is None else conj[n:])

    def intersection(self, other):
        if other.group is not self.group:
            raise ParentMismatch("subgroups of different groups")
        small, big = sorted((self, other), key=lambda S: S.order)
        return Subgroup(self.group,
                        small.midx[big.contains_indices(small.midx)])

    def is_cyclic(self):
        """Some member has order n = |self|: x^(n/r) != 1 for every prime
        r dividing n."""
        rows = self.group.perms[self.midx]
        for r in _prime_divisors(self.order):
            rows = rows[~_power_is_identity(rows, self.order // r)]
        return rows.size > 0

    def is_abelian(self):
        if "abelian" not in self._cache:
            gens = self.generating_set()
            self._cache["abelian"] = gens_commute(self.group, gens, gens)
        return self._cache["abelian"]


def gens_commute(G, a_gens, b_gens):
    """Whether every element index in a_gens commutes with every one in
    b_gens: the rows a∘b and b∘a compared, with no lookup."""
    A = G.perms[np.asarray(a_gens, dtype=np.int64)]
    B = G.perms[np.asarray(b_gens, dtype=np.int64)]
    # A[:, B][i, j] is the row a_i∘b_j
    return np.array_equal(A[:, B], B[:, A].swapaxes(0, 1))


def member_csr(family):
    """(group, ptr, entries): the members of a family of subgroups of one
    group as one CSR, member k being entries[ptr[k]:ptr[k + 1]], its
    sorted member array, and group their group, None for an empty family.
    family is a list of Subgroups, a SubgroupFamily, read off its arrays,
    or a Poset of either, which keeps the result in its _cache.
    ParentMismatch if the members' groups differ."""
    if isinstance(family, Poset):
        if "members" not in family._cache:
            family._cache["members"] = member_csr(family.elements)
        return family._cache["members"]
    empty = np.empty(0, dtype=np.int64)
    if isinstance(family, SubgroupFamily):
        blocks = [members for members, _, _ in family.blocks]
        ptr = np.concatenate(([0], np.cumsum(np.repeat(
            [M.shape[1] for M in blocks], [len(M) for M in blocks]))))
        return (family.group if blocks else None, ptr.astype(np.int64),
                np.concatenate([empty] + [M.ravel() for M in blocks]))
    group = family[0].group if len(family) else None
    if any(S.group is not group for S in family):
        raise ParentMismatch("family of subgroups of different groups")
    ptr = np.cumsum([0] + [S.order for S in family], dtype=np.int64)
    return group, ptr, np.concatenate([empty] + [S.midx for S in family])


def same_members(a, b):
    """Whether two families (member_csr) list the same subgroups in the
    same order.  For families in (order, member row) order, such as two
    A_p posets, that is equality as sets."""
    return all(np.array_equal(x, y)
               for x, y in zip(member_csr(a)[1:], member_csr(b)[1:]))


class Membership(NamedTuple):
    """The members of a family as one CSR (ptr, entries) and mask, the
    membership of every entry in one subgroup K."""
    ptr: np.ndarray
    entries: np.ndarray
    mask: np.ndarray

    def inside(self):
        """E <= K, per member."""
        return np.logical_and.reduceat(self.mask, self.ptr[:-1])

    def meet_orders(self):
        """|E n K|, per member; 1 where E meets K trivially."""
        return np.add.reduceat(self.mask, self.ptr[:-1])


def membership(family, K):
    """Every member of a family of subgroups (member_csr) tested against
    the subgroup K in one contains_indices call.  ParentMismatch unless
    K is of the family's group (member_csr's group; an empty family has
    none and fits any K)."""
    group, ptr, entries = member_csr(family)
    if group is not None and group is not K.group:
        raise ParentMismatch("family and subgroup of different groups")
    return Membership(ptr, entries, K.contains_indices(entries))


def as_subgroup(g):
    if isinstance(g, PermGroup):
        return g.full()
    if isinstance(g, Subgroup):
        return g
    raise TypeError(f"expected PermGroup or Subgroup, got {type(g)!r}")


def require_contained(ambient, sub):
    if not sub.is_subset_of(ambient):
        raise SubgroupNotContained(
            f"subgroup of order {sub.order} not inside ambient of order {ambient.order}")


# -- centralizers, normalizers, products --------------------------------------


def centralizer(ambient, target):
    """C_ambient(target) as a Subgroup.  target: Subgroup or element indices.

    One element t of target (a generator, or an index) at a time, the
    candidates shrink to those that commute with it, so later elements
    are tested against the survivors only.  A candidate x is first
    tested at one point, x(t(0)) = t(x(0)), from two columns of its
    rows; only the candidates that pass are compared with t whole.
    """
    ambient = as_subgroup(ambient)
    G = ambient.group
    if isinstance(target, Subgroup):
        if target.group is not G:
            raise ParentMismatch("centralizer across different groups")
        tgens = target.generating_set()
    else:
        tgens = [int(t) for t in np.atleast_1d(np.asarray(target, dtype=np.int64))]
    cand = ambient.midx
    for t in tgens:
        trow = G.perms[t]
        cand = cand[G.perms[cand, trow[0]] == trow[G.perms[cand, 0]]]
        P = G.perms[cand]
        cand = cand[np.all(P[:, trow] == trow[P], axis=1)]
    return Subgroup(G, cand)


def _element_class(ambient, t):
    """t's class under conjugation by ambient, (orbit, transversal, cent).

    orbit holds the indices of the class; transversal[k] is the row of
    an x with x t x^-1 = orbit[k]; cent is the member array of
    C_ambient(t).  The BFS runs once per class: the classes it finds are
    cached on ambient, keyed by the element each was grown from.

    If t lies in the cached class of t0, as orbit[k] = y t0 y^-1 for y
    the transversal row k, t's class is read off t0's: the same orbit,
    the transversal x y^-1 (t0's rows composed with y^-1), and C(t) =
    y C(t0) y^-1, from one lookup of |C(t0)| rows.  The rows are checked
    to give y t0 y^-1 = t (InvariantViolated).  The result is not
    cached, so no table is kept per element.

    Otherwise a BFS under ambient's generators finds the orbit,
    composing the transversal along it with no lookup, and cent is
    centralizer(ambient, [t]).  Orbit-stabilizer is checked: |orbit| *
    |cent| = |ambient|.
    """
    t = int(t)
    classes = ambient._cache.setdefault("element classes", {})
    if t in classes:
        return classes[t]
    G = ambient.group
    for t0, (orbit, trans, cent) in classes.items():
        k = np.flatnonzero(orbit == t)
        if k.size:
            y = trans[k[0]]
            if not np.array_equal(_times_inverse(y[G.perms[t0]], y),
                                  G.perms[t]):
                raise InvariantViolated(
                    f"a cached transversal row does not conjugate {t0} "
                    f"to {t}")
            conj = _times_inverse(y[G.perms[cent]], y)  # y c y^-1
            return (orbit, _times_inverse(trans, y),
                    np.sort(G.lookup_rows(conj)))
    seen = np.zeros(G.order, dtype=bool)
    seen[t] = True
    orbit = [np.array([t], dtype=np.int64)]
    trans = [np.arange(G.degree, dtype=np.int16).reshape(1, -1)]
    frontier, X = orbit[0], trans[0]
    agens = [(G.perms[a], np.argsort(G.perms[a]))
             for a in ambient.generating_set()]
    while frontier.size:
        new, newX = [], []
        for a, ainv in agens:
            img = G.lookup_rows(a[G.perms[frontier][:, ainv]])  # a s a^-1
            fresh, first = np.unique(img, return_index=True)
            keep = ~seen[fresh]
            seen[fresh[keep]] = True
            new.append(fresh[keep])
            newX.append(a[X[first[keep]]])  # a x_s
        frontier, X = np.concatenate(new), np.concatenate(newX)
        orbit.append(frontier)
        trans.append(X)
    orbit, trans = np.concatenate(orbit), np.concatenate(trans)
    cent = centralizer(ambient, [t]).midx
    if orbit.size * cent.size != ambient.order:
        raise InvariantViolated(
            f"class of size {orbit.size} times centralizer of order "
            f"{cent.size} is not the ambient order {ambient.order}")
    classes[t] = orbit, trans, cent
    return classes[t]


_REPEATED_CANDIDATE = "cosets of the centralizer repeat a normalizer candidate"


def normalizer(ambient, target):
    """N_ambient(target) as a Subgroup.

    For target's first generator t, the ambient elements conjugating t
    into target are the cosets x_s C(t), over the s of t's class that
    lie in target, with x_s t x_s^-1 = s (_element_class).  They are
    kept as permutation rows x_s c, with no lookup.  Each later
    generator u shrinks them to the rows g with g u g^-1 in target: the
    conjugates come from one scatter (_times_inverse).  A conjugate
    whose images of the points 0 and 1 are those of no member of target
    is dropped at once, by one degree x degree table of the pairs
    (s(0), s(1)) over target's members; only the rest are looked up and
    tested by contains_indices.  The survivors, N's members, are looked
    up once.

    x_s t x_s^-1 = s is checked on the rows for every kept s, so
    distinct s give disjoint cosets; the members are checked for
    repeats as well (InvariantViolated either way).
    """
    ambient = as_subgroup(ambient)
    target = as_subgroup(target)
    G = ambient.group
    if target.group is not G:
        raise ParentMismatch("normalizer across different groups")
    if target.order == 1:
        return Subgroup(G, ambient.midx)
    t, *rest = target.generating_set()
    orbit, trans, cent = _element_class(ambient, t)
    inside = target.contains_indices(orbit)
    X = trans[inside]
    if not np.array_equal(_times_inverse(X[:, G.perms[t]], X),
                          G.perms[orbit[inside]]):
        raise InvariantViolated(
            f"{_REPEATED_CANDIDATE}: a transversal row does not conjugate "
            f"{t} to its class member")
    rows = X[:, G.perms[cent]].reshape(-1, G.degree)  # x_s c
    if rest:
        # pairs[a, b]: some member s of target has s(0) = a, s(1) = b
        pairs = np.zeros((G.degree, G.degree), dtype=bool)
        pairs[G.perms[target.midx, 0], G.perms[target.midx, 1]] = True
    for u in rest:
        conj = _times_inverse(rows[:, G.perms[u]], rows)  # g u g^-1
        hit = pairs[conj[:, 0], conj[:, 1]]
        rows, conj = rows[hit], conj[hit]
        rows = rows[target.contains_indices(G.lookup_rows(conj))]
    members = np.sort(G.lookup_rows(rows))
    if np.any(members[1:] == members[:-1]):
        raise InvariantViolated(_REPEATED_CANDIDATE)
    return Subgroup(G, members)


def normalizes(actor, target):
    """Whether actor normalizes target: each generator of actor conjugates
    each generator of target into target."""
    G = target.group
    tgens = target.generating_set()
    return all(np.all(target.contains_indices(G.conj_batch(a, tgens)))
               for a in actor.generating_set())


def subgroup_product(a, b):
    """<a, b>, grown from a's members: the set product when one normalizes."""
    if a.group is not b.group:
        raise ParentMismatch("product across different groups")
    gens = _gens_tuple(a.generating_set() + b.generating_set())
    return Subgroup(a.group, close_indices(a.group, gens, a.midx), gens=gens)


def center(sub):
    sub = as_subgroup(sub)
    return centralizer(sub, sub)


def _adjoin(K, bfs, elements):
    """<K, elements> for K = <bfs>, the one loop that grows a subgroup
    until it holds given elements: while some element lies outside K,
    the first one joins bfs, and K is regrown from its members under
    bfs.  The elements outside K are found by one contains_indices call
    over those left per round.  The result carries bfs as its gens."""
    G = K.group
    rest = np.asarray(elements, dtype=np.int64)
    while True:
        rest = rest[~K.contains_indices(rest)]
        if not rest.size:
            return K
        bfs.append(int(rest[0]))
        K = Subgroup(G, close_indices(G, bfs, start=K.midx),
                     gens=_gens_tuple(bfs))


# -- conjugacy classes and normal subgroups -----------------------------------


def _position_maps(actor, elements):
    """One position map per generator a of actor, a permutation of
    range(len(elements)): map[k] is the position of a x a^-1 for x =
    elements[k], elements being sorted and closed under conjugation by
    actor.  One conj_batch per generator."""
    G = actor.group
    return [np.searchsorted(elements, G.conj_batch(a, elements))
            for a in actor.generating_set()]


def _classes(actor, elements):
    """The orbits of conjugation by actor on elements, a sorted element
    array closed under it, as arrays ordered by smallest member, each
    ascending, in one sweep over the position maps (_position_maps,
    _orbit_labels)."""
    label = _orbit_labels(_position_maps(actor, elements), elements.size)
    return _orbit_arrays(elements, label)


def _orbit_labels(maps, n):
    """label[k], the least point in the orbit of k under the permutations
    maps of range(n): labels are lowered along each map in both
    directions, then by pointer jumping, until they stop changing."""
    label = np.arange(n)
    while True:
        before = label
        label = label.copy()
        for m in maps:
            label[m] = np.minimum(label[m], label)
            label = np.minimum(label, label[m])
        label = label[label]
        if np.array_equal(label, before):
            return label


def _orbit_arrays(members, label):
    """Split members into orbits, ordered by label, each ascending."""
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order]))
    return np.split(members[order], starts + 1)


def conjugacy_classes(sub):
    """Conjugacy classes of sub (as arrays of member indices), by smallest member."""
    sub = as_subgroup(sub)
    if "classes" not in sub._cache:
        sub._cache["classes"] = _classes(sub, sub.midx)
    return sub._cache["classes"]


def _subgroup_class(sub, S, found):
    """The class of S under sub as (members, gens) rows, S first, grown by
    levels: each generator g of sub conjugates a level's rows through an
    image table, image[x] = g x g^-1 or -1 while unknown, so each element
    is looked up once per generator (one conj_batch per level of the
    elements new to the table); a sorted row joins when its key is new
    to the set found."""
    G = S.group
    agens = sub.generating_set()
    tables = np.full((len(agens), G.order), -1, dtype=np.int64)
    found.add(S.key)
    members = S.midx[None, :]
    gens = np.array(S.generating_set(), dtype=np.int64)[None, :]
    width = members.shape[1]
    levels = [(members, gens)]
    while members.shape[0]:
        cut = members.size
        rows = np.concatenate((members.ravel(), gens.ravel()))
        for g, image in zip(agens, tables):
            new = sorted_unique(rows[image[rows] < 0])
            image[new] = G.conj_batch(g, new)
        # take keeps the rows C-contiguous, as the void view below needs
        images = tables.take(rows, axis=1)
        members = np.sort(images[:, :cut].reshape(-1, width), axis=1)
        gens = images[:, cut:].reshape(-1, gens.shape[1])
        keys = members.view(np.dtype((np.void, 8 * width))).ravel().tolist()
        keep = []
        for i, key in enumerate(keys):
            if key not in found:
                found.add(key)
                keep.append(i)
        members, gens = members[keep], gens[keep]
        levels.append((members, gens))
    return tuple(np.concatenate(x) for x in zip(*levels))


def _class_closure(sub, cls):
    """<cls>, the normal closure in sub of any member of cls, a class of
    sub as _classes gives it (ascending), cached on sub by cls[0]:
    _adjoin over the class's members from the identity, so each
    generator is the least member outside the closure of those before.

    The one closure that minimal_normal_subgroups, normal_subgroups,
    is_simple, is_quasisimple and _simple_factors share.
    """
    sub = as_subgroup(sub)
    key = ("closure", int(cls[0]))
    if key not in sub._cache:
        sub._cache[key] = _adjoin(_trivial(sub.group), [], cls)
    return sub._cache[key]


def _prime_order_classes(sub):
    """sub's conjugacy classes of prime order, as arrays by smallest
    member, cached: the x != 1 with x^r = 1 for some prime r dividing
    |sub|, one power test per r over sub's rows, and their orbits under
    sub's generators (_classes).  No other element is conjugated."""
    sub = as_subgroup(sub)
    if "prime classes" not in sub._cache:
        rows = sub.group.perms[sub.midx]
        prime = np.zeros(sub.order, dtype=bool)
        for r in _prime_divisors(sub.order):
            prime |= _power_is_identity(rows, r)
        pel = sub.midx[1:][prime[1:]]
        sub._cache["prime classes"] = _classes(sub, pel) if pel.size else []
    return sub._cache["prime classes"]


def normal_subgroups(sub):
    """All normal subgroups, as the lattice generated by class closures.

    A library function: the component layer reads minimal normal
    subgroups and simplicity off class closures alone and never builds
    this lattice.  Every normal subgroup is a join of normal closures of
    the conjugacy classes it contains, so closing the class closures under
    pairwise product yields the full set.  A pair where one contains the
    other joins to a subgroup already found and is skipped.  Otherwise the
    join of A and B is the set AB, which is a subgroup only because both
    are normal: A's members are grown under B's generators alone.
    """
    sub = as_subgroup(sub)
    if "normals" in sub._cache:
        return sub._cache["normals"]
    G = sub.group
    triv = _trivial(G)
    found = {triv.key: triv}
    for cls in conjugacy_classes(sub)[1:]:
        N = _class_closure(sub, cls)
        found.setdefault(N.key, N)
    # close under join
    worklist = list(found.values())
    while worklist:
        A = worklist.pop()
        for B in list(found.values()):
            if A.is_subset_of(B) or B.is_subset_of(A):
                continue
            gens = _gens_tuple(A.generating_set() + B.generating_set())
            J = Subgroup(G, close_indices(G, B.generating_set(), A.midx),
                         gens=gens)
            if J.key not in found:
                found[J.key] = J
                worklist.append(J)
    out = sorted(found.values(), key=lambda s: (s.order, s.key))
    sub._cache["normals"] = out
    return out


def minimal_normal_subgroups(sub):
    """The minimal normal subgroups of sub, sorted by (order, key).

    A minimal normal subgroup is the normal closure of any of its
    nontrivial elements, and every normal closure of a prime-order element
    contains one, so they are the minimal members among the closures of
    the prime-order classes.  Each M is returned as the closure of the
    first prime-order class that reaches it.
    """
    sub = as_subgroup(sub)
    closures = {}
    for cls in _prime_order_classes(sub):
        N = _class_closure(sub, cls)
        closures.setdefault(N.key, N)
    normals = sorted(closures.values(), key=lambda s: (s.order, s.key))
    return [N for N in normals
            if not any(M.order < N.order and M.is_subset_of(N)
                       for M in normals)]


def is_simple(sub):
    """Every prime-order class closes to sub; stops at the first that does not.

    A proper nontrivial normal subgroup would hold an element of prime
    order whose closure stays inside it.
    """
    sub = as_subgroup(sub)
    return sub.order > 1 and all(_class_closure(sub, cls).order == sub.order
                                 for cls in _prime_order_classes(sub))


# -- Sylow subgroups and p-cores ------------------------------------------------


def _check_prime(p):
    p = int(p)
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise NotPrime(f"{p} is not prime")
    return p


# members of a normalizer power tested at a time by sylow_subgroup
_SYLOW_BLOCK = 256


def sylow_subgroup(sub, p):
    """A Sylow p-subgroup, grown inside successive normalizers.

    While the current p-subgroup P is not Sylow, its normalizer contains a
    p-element outside P (the image of P's normalizer mod P has order
    divisible by p), and adjoining the least one multiplies |P| by p.
    The p-elements of sub are those with x^(p^a) = 1, p^a the p-part of
    |sub|, with no element orders: N's members outside P are power
    tested in ascending blocks of _SYLOW_BLOCK, and the scan stops at
    the first block that holds a p-element (InvariantViolated if none
    does).
    """
    sub = as_subgroup(sub)
    p = _check_prime(p)
    key = ("sylow", p)
    if key in sub._cache:
        return sub._cache[key]
    G = sub.group
    p_part = _p_part(sub.order, p)
    P, bfs = _trivial(G), []
    while P.order < p_part:
        N = normalizer(sub, P) if P.order > 1 else sub
        for lo in range(0, N.order, _SYLOW_BLOCK):
            block = N.midx[lo:lo + _SYLOW_BLOCK]
            block = block[~P.contains_indices(block)]
            hit = block[_power_is_identity(G.perms[block], p_part)]
            if hit.size:
                break
        else:
            raise InvariantViolated(
                f"the normalizer of a {p}-subgroup of order {P.order} "
                f"holds no {p}-element outside it")
        P = _adjoin(P, bfs, hit[:1])
    sub._cache[key] = P
    return P


def p_core(sub, p):
    """O_p(sub): the largest normal p-subgroup, the core of a Sylow
    p-subgroup (it lies in every Sylow and contains every normal
    p-subgroup)."""
    sub = as_subgroup(sub)
    p = _check_prime(p)
    key = ("pcore", p)
    if key not in sub._cache:
        sub._cache[key] = normal_core(sub, sylow_subgroup(sub, p))
    return sub._cache[key]


def normal_core(sub, K):
    """The core of K in sub: the largest subgroup of K normal in sub.

    Intersects K with its conjugates under sub's generators until every
    generator normalizes it; each conjugate, and so each intersection,
    contains every subgroup of K normal in sub.
    """
    agens = sub.generating_set()
    while True:
        for g in agens:
            Kg = K.conjugate(g)
            if Kg.key != K.key:
                K = K.intersection(Kg)
                break
        else:
            return K


def hyperelementary_check(sub, q):
    """Is sub q-hyperelementary: O^q(sub) (generated by q'-elements) cyclic?

    Returns (bool, evidence dict).
    """
    sub = as_subgroup(sub)
    q = _check_prime(q)
    # the q'-elements: x^m = 1 for m the q'-part of |sub|
    qprime = sub.midx[_power_is_identity(sub.group.perms[sub.midx],
                                         sub.order // _p_part(sub.order, q))]
    K = _adjoin(_trivial(sub.group), [], qprime)
    cyclic = K.is_cyclic()
    return cyclic, {
        "q": q,
        "oq_order": K.order,
        "oq_cyclic": cyclic,
        "index": sub.order // K.order,
    }


# -- conjugation actions --------------------------------------------------------


class ConjugationAction:
    """Conjugation of `actor` on a normalized subgroup `target`.

    The image is a PermGroup on a tracking set: actor-classes of target
    elements, taken by (size, smallest member) and kept when they shrink
    their common centralizer in the actor, until it is the kernel
    C_actor(target).  The set depends on the two subgroups, not on the
    target's generators, and |image| * |kernel| = |actor| is checked.
    Image element indices depend only on the actor's generators.
    """

    def __init__(self, actor, target):
        actor = as_subgroup(actor)
        target = as_subgroup(target)
        G = actor.group
        if target.group is not G:
            raise ParentMismatch("action across different groups")
        if not normalizes(actor, target):
            raise ActorDoesNotNormalize(
                f"actor (order {actor.order}) does not normalize target "
                f"(normalizer has order {normalizer(actor, target).order})")
        self.actor = actor
        self.target = target
        self.kernel = centralizer(actor, target)

        classes = _classes(actor, target.midx)
        chosen = [np.zeros(0, dtype=np.int64)]
        C = actor
        for cls in sorted(classes[1:], key=lambda c: (c.size, int(c[0]))):
            if C.order == self.kernel.order:
                break
            D = centralizer(C, cls)
            if D.order < C.order:
                chosen.append(cls)
                C = D
        self.tracking = np.sort(np.concatenate(chosen))
        self.image = PermGroup.generate(
            self._positions(actor.generating_set()),
            degree=int(self.tracking.size), name="conj-image")
        # the image is part of the actor's load: its posets share results
        self.image.results = G.results
        if self.image.order * self.kernel.order != actor.order:
            raise InvariantViolated(
                f"conjugation image of order {self.image.order} times "
                f"kernel of order {self.kernel.order} is not the actor "
                f"order {actor.order}")

    def _positions(self, idx):
        """Row k: the permutation of the tracking set, by position, that
        conjugation by the actor element idx[k] induces, from one lookup
        of every conjugated tracking row."""
        G = self.actor.group
        idx = np.asarray(idx, dtype=np.int64)
        # rows g t g^-1 for t in the tracking set, one block per g in idx
        conj = np.take_along_axis(
            G.perms[idx][:, None, :],
            G.perms[self.tracking][:, np.argsort(G.perms[idx], axis=1)]
            .swapaxes(0, 1),
            axis=2)
        return np.searchsorted(self.tracking, G.lookup_rows(
            conj.reshape(-1, G.degree))).reshape(conj.shape[:2])

    def project(self, idx):
        """Image-group indices of the automorphisms the actor elements idx
        induce: their tracking permutations, looked up in one batch."""
        return self.image.lookup_rows(self._positions(idx))

    def project_family(self, family):
        """Images of a family of subgroups of the actor (member_csr), in
        its order, as a member CSR (ptr, entries) of self.image.  Each is
        the set of its members' images, so none is closed or built: the
        distinct elements are projected once, in one batch."""
        _, ptr, entries = member_csr(family)
        elems, inv = np.unique(entries, return_inverse=True)
        n, N = len(ptr) - 1, self.image.order
        keys = sorted_unique(np.repeat(np.arange(n), np.diff(ptr)) * N
                             + self.project(elems)[inv])
        return row_ptr(keys // N, n), keys % N


def conjugation_action(actor, target):
    return ConjugationAction(actor, target)


# -- components ------------------------------------------------------------------


def is_quasisimple(sub):
    """Nonabelian, and every noncentral class closes to sub.

    That is perfect and simple modulo the center: a normal subgroup not
    inside Z(sub) holds a noncentral class.  A proper derived subgroup
    either holds a noncentral class, whose closure stays inside it, or
    lies in the center, and then the closure of a noncentral x lies in
    the abelian <x, Z(sub)>.  Stops at the first proper closure.
    """
    sub = as_subgroup(sub)
    if sub.is_abelian():
        return False
    return all(_class_closure(sub, c).order == sub.order
               for c in conjugacy_classes(sub) if c.size > 1)


def _simple_factors(sub, M):
    """The simple factors of M, a nonabelian minimal normal subgroup of sub.

    M is T_1 x ... x T_k for a nonabelian simple T_1 whose conjugates
    under sub are the T_i.  A prime-order element with two nontrivial
    coordinates has an M-class of at least the square of the smallest
    prime-order class size of T_1, so M's smallest prime-order class lies
    in one factor, and T, that class's closure in M, is that factor.  T
    is checked simple and nonabelian, its conjugates are grown under
    sub's generators, and |T|^k = |M| is checked for the k found
    (ComponentsUndetectable if either fails): distinct conjugates of a
    simple normal subgroup of M multiply directly, so then M is their
    product.  The factors are the rows of T's class under sub
    (_subgroup_class), T first, each with T's generators conjugated.
    """
    T = _class_closure(M, min(_prime_order_classes(M), key=len))
    if T.is_abelian() or not is_simple(T):
        raise ComponentsUndetectable(
            "nonabelian minimal normal subgroup does not split into "
            "nonabelian simple factors")
    members, gens = _subgroup_class(sub, T, set())
    if T.order ** len(members) != M.order:
        raise ComponentsUndetectable(
            f"{len(members)} conjugates of a simple factor of order "
            f"{T.order} do not make up the minimal normal subgroup of "
            f"order {M.order}")
    return [Subgroup(sub.group, m, gens=g) for m, g in zip(members, gens)]


def detect_components(group, declared=None):
    """The components (subnormal quasisimple subgroups) of a group.

    Detection walks minimal normal subgroups and splits the nonabelian ones
    into their simple factors; the result is verified by checking that the
    generalized Fitting subgroup built from it is self-centralizing.  If
    verification fails and no declared components were given, raises
    ComponentsUndetectable.  Declared components are verified quasisimple
    and returned flagged as declared.

    Returns (components, flag) with flag in {"detected", "declared"}.
    """
    sub = as_subgroup(group)
    G = sub.group
    if declared is not None:
        comps = []
        for d in declared:
            c = d if isinstance(d, Subgroup) else G.subgroup(d)
            require_contained(sub, c)
            if not is_quasisimple(c):
                raise ComponentsUndetectable(
                    f"declared component of order {c.order} is not quasisimple")
            comps.append(c)
        comps.sort(key=lambda c: (c.order, c.key))
        return comps, "declared"

    if "components" in sub._cache:
        return sub._cache["components"], "detected"

    comps, primes = [], set()
    for M in minimal_normal_subgroups(sub):
        if M.is_abelian():
            primes.update(_prime_divisors(M.order))
            continue
        comps.extend(_simple_factors(sub, M))

    # verify: F*(G) = F(G) * (product of components) is self-centralizing.
    # F(G) is the product of the O_p(G), and O_p(G) > 1 only for the primes
    # above: a minimal normal subgroup inside O_p(G) is an abelian p-group.
    factors = [p_core(sub, p) for p in sorted(primes)] + comps
    gens = _gens_tuple(x for S in factors for x in S.generating_set())
    fstar = Subgroup(G, close_indices(
        G, gens, start=comps[0].midx if comps else None), gens=gens)
    C = centralizer(sub, fstar)
    if not C.is_subset_of(fstar):
        raise ComponentsUndetectable(
            "generalized Fitting subgroup is not self-centralizing; "
            "pass declared components")
    comps.sort(key=lambda c: (c.order, c.key))
    sub._cache["components"] = comps
    return comps, "detected"


def rank_of_order(order, p):
    """The least r with p^r >= order: the rank of an elementary abelian
    p-group of that order.  A caller that may hold another order checks
    that p^r is the order."""
    r = 0
    while p ** r < order:
        r += 1
    return r


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- elementary abelian p-subgroups ------------------------------------------------

DEFAULT_ENUM_CAP = 1_000_000


_MISSING_PRODUCT = ("a product of commuting p-elements is missing from the "
                    "commuting table")


def _commuting_products(sub, ext, powers):
    """Every commuting pair of p-elements from two different cyclic
    subgroups, with its product, as one table (keys, prods).

    Elements are named by position in ext, the identity and then the
    p-elements of sub ascending; m = ext.size and powers[q, e] is the
    position of the e-th power of q.  keys holds i·m + j ascending, and
    prods[k] the position of the product of the pair keys[k], a
    p-element.

    Row i, the p-elements outside <i> that commute with i, is found
    directly for one representative t of each class of p-elements under
    conjugation by sub's generators: the p-elements y with y(t(0)) =
    t(y(0)), then those whose whole rows commute with t's, and the
    products t·y, looked up once.  Every other row follows breadth-first
    through the generators' position maps (_position_maps): conjugation
    by a generator a sends row x and its products to row a x a^-1 and
    theirs.  The table is checked symmetric, as commuting is: one argsort
    of the reversed keys j·m + i gives back keys and prods
    (InvariantViolated otherwise)."""
    m = powers.shape[0]
    G = sub.group
    P = G.perms[ext]
    maps = _position_maps(sub, ext)
    seen = np.zeros(m, dtype=bool)
    seen[0] = True
    slot = np.empty(m, dtype=np.int64)
    classes = []  # (elements, rows, products), one row per element
    while not seen.all():
        t = int(np.argmin(seen))
        x = P[t]
        ys = np.flatnonzero(P[:, x[0]] == x[P[:, 0]])
        ys = ys[(P[ys][:, x] == x[P[ys]]).all(axis=1)]
        ys = ys[~np.isin(ys, powers[t])]
        level = (np.array([t]), ys[None, :], np.searchsorted(
            ext, G.lookup_rows(x[P[ys]]))[None, :])
        seen[t] = True
        found = []
        while level[0].size:
            found.append(level)
            elems, rows, outs = level
            grown = []
            for mp in maps:
                img = mp[elems]
                new = np.flatnonzero(~seen[img])
                # an element reached twice in one step keeps one parent
                slot[img[new]] = new
                new = new[slot[img[new]] == new]
                seen[img[new]] = True
                grown.append((img[new], mp[rows[new]], mp[outs[new]]))
            level = tuple(map(np.concatenate, zip(*grown)))
        classes.append(tuple(map(np.concatenate, zip(*found))))
    width = np.zeros(m, dtype=np.int64)
    for elems, rows, _ in classes:
        width[elems] = rows.shape[1]
    ptr = np.concatenate(([0], np.cumsum(width)))
    keys = np.empty(ptr[-1], dtype=np.int64)
    prods = np.empty(ptr[-1], dtype=np.int64)
    for elems, rows, outs in classes:
        order = np.argsort(rows, axis=1)
        at = ptr[elems, None] + np.arange(rows.shape[1])
        keys[at] = elems[:, None] * m + np.take_along_axis(rows, order, 1)
        prods[at] = np.take_along_axis(outs, order, 1)
    rev = keys % m * m + keys // m
    back = np.argsort(rev)
    if not (np.array_equal(rev[back], keys)
            and np.array_equal(prods[back], prods)):
        raise InvariantViolated("the commuting table is not symmetric")
    return keys, prods


class SubgroupFamily(Sequence):
    """Subgroups of one group in (order, member row) order, kept per order
    as arrays.

    blocks holds one (members, gens, coords) per order, ascending: the
    sorted member rows, ascending; each subgroup's generators, a row per
    subgroup, padded by -1; and its coordinate rows or None, where column
    c_1 + c_2 p + ... + c_r p^(r-1) holds b_1^c_1 b_2^c_2 ⋯ b_r^c_r for a
    basis b_1, ..., b_r of the subgroup (the generators, in some order).
    In elementary_abelian_subgroups's family the generators are each
    member's greedy-max basis, ascending, and b_i is generator i.
    Readers take the rows: member_csr, positions, distinct and take read
    the arrays, and take gives the sub-family at given positions.
    family[k], for 0 <= k < len(family), builds a fresh Subgroup of
    member k, gens unpadded, for a caller that needs one object; derived
    data is cached by key on the group and shared by every build of it.
    """

    def __init__(self, group, blocks):
        self.group = group
        self.blocks = [b for b in blocks if len(b[0])]
        self._starts = np.cumsum([0] + [len(b[0]) for b in self.blocks])

    def __len__(self):
        return int(self._starts[-1])

    def __getitem__(self, k):
        if not 0 <= k < len(self):
            raise IndexError("family index out of range")
        b = int(np.searchsorted(self._starts, k, side="right")) - 1
        members, gens, _ = self.blocks[b]
        j = k - self._starts[b]
        return Subgroup(self.group, members[j],
                        gens=gens[j][gens[j] >= 0].tolist())

    def take(self, ids):
        """The sub-family at the ascending, distinct positions ids."""
        ids = np.asarray(ids, dtype=np.int64)
        cut = np.searchsorted(ids, self._starts)
        blocks = [tuple(None if x is None else x[ids[lo:hi] - s] for x in b)
                  for b, s, lo, hi in zip(self.blocks, self._starts, cut,
                                          cut[1:])]
        return SubgroupFamily(self.group, blocks)

    def positions(self, ptr, entries):
        """Position in the family of each subgroup of a member CSR (ptr,
        entries; sorted member arrays), or -1 where it is not a member:
        one row_lookup per order block, of the subgroups of its order."""
        sizes = np.diff(ptr)
        out = np.full(sizes.size, -1, dtype=np.int64)
        for (members, _, _), start in zip(self.blocks, self._starts):
            q = np.flatnonzero(sizes == members.shape[1])
            pos = row_lookup(members, entries[ptr[q, None]
                                              + np.arange(members.shape[1])])
            out[q] = np.where(pos < 0, -1, start + pos)
        return out

    def distinct(self):
        """Whether the orders rise from block to block and the member rows
        rise strictly within each, so no subgroup is listed twice."""
        orders = [members.shape[1] for members, _, _ in self.blocks]
        if any(a >= b for a, b in zip(orders, orders[1:])):
            return False
        for members, _, _ in self.blocks:
            step = np.diff(members, axis=0)
            lead = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
            if (lead <= 0).any():
                return False
        return True


def elementary_abelian_subgroups(sub, p, cap=DEFAULT_ENUM_CAP):
    """All nontrivial elementary abelian p-subgroups, ascending rank.

    Returns a SubgroupFamily, ordered by (order, member tuple), with the
    coordinate rows of each subgroup in its generators, its greedy-max
    basis in ascending order: a_1 is its largest member and a_(k+1) the
    largest outside <a_1, ..., a_k>.  Each subgroup is built once, by
    canonical augmentation: a rank r+1 subgroup B with basis a_1, ...,
    a_(r+1) arises only as <A, z> for z = a_1 and A = <a_2, ..., a_(r+1)>,
    whose own basis that is, so extending every A by every commuting
    p-element z larger than A's members, and keeping <A, z> when its
    basis is z followed by A's, finds each B once.  That holds exactly
    when z is the largest member of <z> and z^e x < b for every e >= 1
    and nontrivial x in A, b being the generator of x's lowest
    coordinate.

    Each step works on a whole rank, in positions of the p-elements,
    which those of one power test (PermGroup.p_element_mask) list in
    ascending order, so positions order rows as element indices do.  Rank
    1 is one row per cyclic subgroup, generated by its largest member.
    One table holds every commuting pair of p-elements of different
    cyclic subgroups with its product (_commuting_products).  One mask
    of it keeps the steps, the pairs (a, z) the test allows for a
    generator a: z above a and the largest member of <z>, with z a < a.
    A rank's candidate pairs (A, z) are read off the steps of the
    generator of A with the fewest past A's largest member, and kept
    where every generator's steps have z.  B's coordinate row is A's
    followed by A's times z, z^2, ..., z^(p-1), each product read off
    the table by one searchsorted, but for the products of A's
    generators with z: the filter has found those already, so it hands
    them on.  The products confirm the rest of the test, a power of z at
    a time.  InvariantViolated if a product is missing, if B's members
    are not p·|A| distinct elements, or if a member row repeats.
    row_runs sorts each rank's rows, one lexsort of their packed words.
    """
    sub = as_subgroup(sub)
    p = _check_prime(p)
    ckey = ("elab", p)
    if ckey in sub._cache:
        out = sub._cache[ckey]
        if len(out) > cap:
            raise EnumerationCapExceeded(
                f"{len(out)} elementary abelian subgroups exceeds cap {cap}")
        return out
    G = sub.group
    pel = sub.midx[G.p_element_mask(p)[sub.midx]]
    if pel.size == 0:
        sub._cache[ckey] = SubgroupFamily(G, [])
        return sub._cache[ckey]

    # positions: 0 is the identity, j + 1 is pel[j]; powers[q, e] is the
    # position of the e-th power of position q
    ext = np.concatenate(([0], pel))
    m = ext.size
    powers = np.zeros((m, p), dtype=np.int64)
    cur = pel
    for e in range(1, p):
        powers[1:, e] = np.searchsorted(ext, cur)
        if e < p - 1:
            cur = G.lookup_rows(np.take_along_axis(
                G.perms[pel], G.perms[cur], axis=1))
    # top[q]: q is the largest member of <q>, the generator of its rank-1 row
    top = (powers[:, 2:] < np.arange(m)[:, None]).all(axis=1)
    top[0] = False
    gens = np.flatnonzero(top)[:, None]
    coords = powers[gens[:, 0]]
    members = np.sort(coords, axis=1)
    # two subgroups of order p meet trivially: their least members differ
    order = np.argsort(members[:, 1])
    members, gens, coords = members[order], gens[order], coords[order]
    if members.shape[0] > cap:
        raise EnumerationCapExceeded(
            f"{members.shape[0]} rank-1 subgroups exceeds cap {cap}")
    keys, prods = _commuting_products(sub, ext, powers)
    # the steps (a, z) a generator a may take: z above a and the largest
    # member of <z>, with z·a < a
    a, z = keys // m, keys % m
    step = (z > a) & top[z] & (prods < a)
    skeys, sprods = keys[step], prods[step]
    ptr = np.searchsorted(skeys, np.arange(m + 1) * m)
    levels = [(members, gens, coords)]
    total = members.shape[0]

    while True:
        n, r = gens.shape
        # z past A's largest member, taken from the steps of the generator
        # with the fewest and kept where every generator's steps have it;
        # zg[:, i] is the product of generator i with z
        start = np.searchsorted(skeys, (gens * m + members[:, -1:]).ravel(),
                                side="right").reshape(n, r)
        count = ptr[gens + 1] - start
        best = count.argmin(axis=1)
        start, count = start[np.arange(n), best], count[np.arange(n), best]
        pair_sub = np.repeat(np.arange(n), count)
        z = skeys[np.repeat(start - np.cumsum(count) + count, count)
                  + np.arange(count.sum())] % m
        zg = np.zeros((z.size, 0), dtype=np.int64)
        for g in gens.T:
            hit, pos = sorted_find(skeys, g[pair_sub] * m + z)
            pair_sub, z = pair_sub[hit], z[hit]
            zg = np.column_stack((zg[hit], sprods[pos[hit]]))
        C = coords[pair_sub]
        # column c of A's coordinates is x = b_1^c_1 ⋯ b_r^c_r: its
        # products with powers of z stay below the generator of the
        # lowest nonzero c_i
        low = np.arange(1, p ** r)
        low = (low[:, None] % p ** np.arange(1, r + 1) != 0).argmax(axis=1)
        # generator i is coordinate p^i, and the filter found its product
        # with z: A times z searches only the other coordinates
        ask = np.ones(p ** r - 1, dtype=bool)
        ask[p ** np.arange(r) - 1] = False
        blocks = []
        for e in range(1, p):
            ze = powers[z, e]
            cols = ask if e == 1 else slice(None)
            hit, pos = sorted_find(keys, C[:, 1:][:, cols] * m + ze[:, None])
            if not hit.all():
                raise InvariantViolated(_MISSING_PRODUCT)
            block = np.empty_like(C[:, 1:])
            block[:, cols] = prods[pos]
            if e == 1:
                block[:, ~ask] = zg
            keep = (block < gens[pair_sub][:, low]).all(axis=1)
            blocks = [x[keep] for x in blocks] + [ze[keep, None],
                                                  block[keep]]
            C, pair_sub, z, zg = C[keep], pair_sub[keep], z[keep], zg[keep]
        if pair_sub.size == 0:
            break
        new_coords = np.concatenate([C] + blocks, axis=1)
        new_members = np.sort(new_coords, axis=1)
        if (new_members[:, 1:] == new_members[:, :-1]).any():
            raise InvariantViolated(
                "a rank step did not multiply the order by p")
        order, head = row_runs(new_members)
        if not head.all():
            raise InvariantViolated("a rank step built a subgroup twice")
        members, coords = new_members[order], new_coords[order]
        gens = np.column_stack((gens[pair_sub], z))[order]
        total += members.shape[0]
        if total > cap:
            raise EnumerationCapExceeded(
                f"elementary abelian count exceeds cap {cap}")
        levels.append((members, gens, coords))

    sub._cache[ckey] = SubgroupFamily(
        G, [(ext[M], ext[g], ext[C]) for M, g, C in levels])
    return sub._cache[ckey]

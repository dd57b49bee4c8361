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

The hot set work runs in bulk rather than element by element in Python:
  * the one element index is a dict from a row's int16 bytes to its
    index; PermGroup.lookup_rows resolves a whole batch in one pass (a
    void view of the rows, one list of keys, one map over the dict) and
    raises NotAnElement for a row outside the group;
  * close_indices grows a subgroup a BFS level at a time, one
    lookup_rows per generator per level, from the identity or from a
    subgroup already known, whose right cosets it then adds whole;
  * Subgroup.contains_indices (binary search in the sorted member array)
    is the one membership test; membership asks it once for a whole
    family, over the member CSR a poset keeps, and intersections filter
    the smaller member array;
  * normalizer takes the candidates for the target's first generator t
    from t's class in the ambient, one coset of C(t) per conjugate of t
    inside the target, with no scan of the ambient; the class, its
    transversal and C(t) are cached on the ambient, keyed by t.  Later
    generators, and every element in centralizer, are tested against the
    survivors of the last; normalizes answers "is it normal" from
    generators alone;
  * elementary_abelian_subgroups steps a whole rank at a time, from the
    p-elements of one power test (PermGroup.p_element_mask) and one
    table of their commuting pairs with products, searched, not looked
    up, by the rank steps.  It returns a SubgroupFamily, arrays per
    order whose readers take its member rows, with no Subgroup built.

Components come from normal closures of class representatives: the
minimal normal subgroups are the minimal closures of the prime-order
classes, and simplicity and quasisimplicity are read off the closures
of the prime-order and the noncentral classes.  No production route
builds the lattice of normal subgroups; normal_subgroups is a library
function.

The cache rule: data derived from a subgroup (Sylow subgroups, p-cores,
classes, class closures, the class of an element under it with a
transversal and centralizer, components, a generating set, elementary
abelian subgroups and the posets built from them) lives in one table on
the parent group, keyed by Subgroup.key, so equal subgroups reached by
different routes share it.  Subgroup._cache is that table's entry,
created on first use.  Betti vectors are cached on the poset they
describe, not here.
"""

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import (
    ActorDoesNotNormalize,
    ComponentsUndetectable,
    EnumerationCapExceeded,
    InvariantViolated,
    NotAnElement,
    NotPrime,
    OrderCapExceeded,
    ParentMismatch,
    SubgroupNotContained,
)
from .posets import Poset, row_lookup, row_ptr, row_runs, sorted_find

DEFAULT_ORDER_CAP = 500_000


def _as_perm_rows(gen_rows, degree):
    rows = np.asarray(gen_rows, dtype=np.int16)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.size == 0:
        rows = np.arange(degree, dtype=np.int16).reshape(1, -1)
    return rows


class PermGroup:
    """A finite permutation group, fully enumerated.

    Built by generate, which hands over the index it grew: a dict from
    each row's bytes to its position in perms.
    """

    def __init__(self, perms, gen_indices, index, name=""):
        self.perms = np.ascontiguousarray(perms, dtype=np.int16)
        self.order, self.degree = self.perms.shape
        self.gens = tuple(int(g) for g in gen_indices)
        self.name = name
        self._index = index
        self._inv = None
        self._orders = None
        self._pmask = {}
        self._full = None
        # Subgroup.key -> derived data of that subgroup (Subgroup._cache)
        self._derived = {}

    @classmethod
    def generate(cls, gen_rows, degree, name="", order_cap=DEFAULT_ORDER_CAP):
        """Enumerate the group generated by the given permutation rows.

        BFS by whole levels: a level's products, generator by generator
        and row by row, are keyed together, and the new ones enter the
        index in that first-seen order, which fixes the element numbering.
        """
        rows = _as_perm_rows(gen_rows, degree)
        ident = np.arange(degree, dtype=np.int16)
        index = {ident.tobytes(): 0}
        # dedupe generators, keep their future indices
        gen_rows_u = []
        for r in rows:
            key = np.ascontiguousarray(r, dtype=np.int16).tobytes()
            if key not in index and all(key != g.tobytes() for g in gen_rows_u):
                gen_rows_u.append(np.ascontiguousarray(r, dtype=np.int16))
        gen_cols = np.array(gen_rows_u, dtype=np.int16).reshape(-1, degree)
        void = np.dtype((np.void, 2 * degree))
        levels = [ident.reshape(1, -1)]
        frontier = levels[0]
        while frontier.size and gen_rows_u:
            # rows f∘g, generator-major
            prods = frontier[:, gen_cols].swapaxes(0, 1).reshape(-1, degree)
            # products not yet indexed, once each, in first-seen order
            fresh = [k for k in dict.fromkeys(prods.view(void).ravel().tolist())
                     if k not in index]
            index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
            if len(index) > order_cap:
                raise OrderCapExceeded(f"group order exceeds cap {order_cap}")
            frontier = np.frombuffer(b"".join(fresh), dtype=np.int16).reshape(
                -1, degree)
            levels.append(frontier)
        gen_idx = [index[g.tobytes()] for g in gen_rows_u] or [0]
        return cls(np.concatenate(levels), gen_idx, index, name=name)

    def __repr__(self):
        nm = self.name or "PermGroup"
        return f"<{nm}: order {self.order}, degree {self.degree}>"

    # -- element table access ------------------------------------------------

    def _not_an_element(self, key):
        row = np.frombuffer(key, dtype=np.int16).tolist()
        return NotAnElement(f"{row} is not an element of {self!r}")

    def lookup_row(self, row):
        key = np.ascontiguousarray(row, dtype=np.int16).tobytes()
        try:
            return self._index[key]
        except KeyError:
            raise self._not_an_element(key) from None

    def lookup_rows(self, rows):
        """Indices of a batch of rows, shape (n, degree), in one pass."""
        rows = np.ascontiguousarray(rows, dtype=np.int16)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.degree:
            raise NotAnElement(
                f"rows of shape {rows.shape} are not elements of {self!r}")
        keys = rows.view(np.dtype((np.void, rows.itemsize * self.degree)))
        try:
            return np.fromiter(
                map(self._index.__getitem__, keys.ravel().tolist()),
                dtype=np.int64, count=rows.shape[0])
        except KeyError as e:
            raise self._not_an_element(e.args[0]) from None

    def compose(self, i, j):
        """Index of perms[i] ∘ perms[j]."""
        return self.lookup_row(self.perms[i][self.perms[j]])

    @property
    def inv(self):
        if self._inv is None:
            arg = np.argsort(self.perms, axis=1).astype(np.int16)
            self._inv = self.lookup_rows(arg)
        return self._inv

    def element_orders(self):
        if self._orders is None:
            ident = np.arange(self.degree, dtype=np.int16)
            orders = np.zeros(self.order, dtype=np.int64)
            orders[0] = 1
            cur = self.perms.copy()
            unresolved = np.nonzero(orders == 0)[0]
            k = 1
            while unresolved.size:
                done = np.all(cur[unresolved] == ident, axis=1)
                orders[unresolved[done]] = k
                unresolved = unresolved[~done]
                if unresolved.size:
                    cur[unresolved] = np.take_along_axis(
                        self.perms[unresolved], cur[unresolved], axis=1)
                    k += 1
            self._orders = orders
        return self._orders

    def p_element_mask(self, p):
        """Mask of the elements x != 1 with x^p = 1, the elements of order
        p for p prime: p - 1 compositions per element, with no orders."""
        if p not in self._pmask:
            cur = self.perms
            for _ in range(p - 1):
                cur = np.take_along_axis(self.perms, cur, axis=1)
            mask = np.all(cur == np.arange(self.degree, dtype=np.int16), axis=1)
            mask[0] = False
            self._pmask[p] = mask
        return self._pmask[p]

    # -- conjugation ----------------------------------------------------------

    def conj_batch(self, g, idx):
        """Indices of g x g^-1 for each x in idx."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return idx
        grow = self.perms[g]
        ginv = self.perms[self.inv[g]]
        rows = grow[self.perms[idx][:, ginv]]
        return self.lookup_rows(rows)

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
        idx = [self.lookup_row(r) for r in _as_perm_rows(gen_rows, self.degree)]
        return self.subgroup(idx)


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
    looked up in one batch per generator.  The products outside the
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
        for g in grows:
            new[group.lookup_rows(P[:, g])] = True
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
            self.midx = np.unique(np.append(self.midx, 0))
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
        """Small generating set (greedy over members), cached: each pick
        is the least member outside the closure of the picks before it,
        and each closure grows from the last."""
        if self.gens is not None:
            return self.gens
        if "gens" not in self._cache:
            gens = []
            known = Subgroup(self.group, np.zeros(1, dtype=np.int64))
            while known.order < self.order:
                outside = self.midx[~known.contains_indices(self.midx)]
                gens.append(int(outside[0]))
                # the last closure lies in the next: grow from it
                known = Subgroup(self.group, close_indices(
                    self.group, gens, start=known.midx))
            self._cache["gens"] = tuple(gens) if gens else (0,)
        return self._cache["gens"]

    def conjugate(self, g):
        """The subgroup g S g^-1."""
        new_idx = np.sort(self.group.conj_batch(g, self.midx))
        gens = None
        if self.gens is not None:
            gens = tuple(int(x) for x in self.group.conj_batch(g, np.array(self.gens)))
        return Subgroup(self.group, new_idx, gens=gens)

    def intersection(self, other):
        if other.group is not self.group:
            raise ParentMismatch("subgroups of different groups")
        small, big = sorted((self, other), key=lambda S: S.order)
        return Subgroup(self.group,
                        small.midx[big.contains_indices(small.midx)])

    def element_orders(self):
        return self.group.element_orders()[self.midx]

    def is_cyclic(self):
        return bool(np.max(self.element_orders()) == self.order)

    def is_abelian(self):
        if "abelian" not in self._cache:
            gens = self.generating_set()
            self._cache["abelian"] = gens_commute(self.group, gens, gens)
        return self._cache["abelian"]


def gens_commute(G, a_gens, b_gens):
    """Whether every element index in a_gens commutes with every one in
    b_gens, composed both ways."""
    return all(G.compose(a, b) == G.compose(b, a)
               for a in a_gens for b in b_gens)


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

    One element of target (a generator, or an index) at a time, the
    candidates shrink to those that commute with it, so later elements
    are tested against the survivors only.
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
        P = G.perms[cand]
        cand = cand[np.all(P[:, trow] == trow[P], axis=1)]
    return Subgroup(G, cand)


def _element_class(ambient, t):
    """t's class under conjugation by ambient, cached on ambient.

    Returns (orbit, transversal, cent): orbit the indices of the class,
    found by a BFS under ambient's generators; transversal[k] the row of
    an x with x t x^-1 = orbit[k], composed along the BFS with no lookup;
    cent the member array of C_ambient(t).  Orbit-stabilizer is checked:
    |orbit| * |cent| = |ambient|.
    """
    key = ("class", int(t))
    if key in ambient._cache:
        return ambient._cache[key]
    G = ambient.group
    seen = np.zeros(G.order, dtype=bool)
    seen[t] = True
    orbit = [np.array([t], dtype=np.int64)]
    trans = [np.arange(G.degree, dtype=np.int16).reshape(1, -1)]
    frontier, X = orbit[0], trans[0]
    agens = [(G.perms[a], G.perms[G.inv[a]]) for a in ambient.generating_set()]
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
    ambient._cache[key] = orbit, trans, cent
    return ambient._cache[key]


def normalizer(ambient, target):
    """N_ambient(target) as a Subgroup.

    For target's first generator t, the ambient elements conjugating t
    into target are the cosets x_s C(t), over the s of t's class that
    lie in target, with x_s t x_s^-1 = s (_element_class); only those
    are looked up.  Each later generator shrinks the candidates to those
    that conjugate it into target, so it conjugates and looks up only
    the survivors.
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
    X = trans[target.contains_indices(orbit)]
    cand = np.sort(G.lookup_rows(X[:, G.perms[cent]].reshape(-1, G.degree)))
    if np.any(cand[1:] == cand[:-1]):
        raise InvariantViolated(
            "cosets of the centralizer repeat a normalizer candidate")
    for t in rest:
        P = G.perms[cand]
        Pinv = G.perms[G.inv[cand]]
        conj = np.take_along_axis(P[:, G.perms[t]], Pinv, axis=1)  # g t g^-1
        cand = cand[target.contains_indices(G.lookup_rows(conj))]
    return Subgroup(G, cand)


def normalizes(actor, target):
    """Whether actor normalizes target: each generator of actor conjugates
    each generator of target into target."""
    G = target.group
    tgens = target.generating_set()
    return all(np.all(target.contains_indices(G.conj_batch(a, tgens)))
               for a in actor.generating_set())


def subgroup_product(a, b):
    """Subgroup generated by a ∪ b (equals the set product when one normalizes)."""
    if a.group is not b.group:
        raise ParentMismatch("product across different groups")
    return a.group.subgroup(tuple(a.generating_set()) + tuple(b.generating_set()))


def center(sub):
    sub = as_subgroup(sub)
    return centralizer(sub, sub)


def derived_subgroup(sub):
    """Commutator subgroup: normal closure in sub of generator commutators."""
    sub = as_subgroup(sub)
    G = sub.group
    gens = sub.generating_set()
    comms = set()
    for a in gens:
        for b in gens:
            ab = G.compose(a, b)
            ba = G.compose(b, a)
            comms.add(G.compose(G.inv[ba], ab))  # (ba)^-1 (ab) = [a,b] up to convention
    comms.discard(0)
    return normal_closure(sub, sorted(comms))


def _adjoin(K, bfs, elements):
    """<K, elements> for K = <bfs>: each element outside the current K
    joins bfs, and K grows from its members under bfs."""
    G = K.group
    for x in elements:
        if not K.contains_indices([x])[0]:
            bfs.append(x)
            K = Subgroup(G, close_indices(G, bfs, start=K.midx))
    return K


def normal_closure(ambient, seed_indices):
    """Smallest subgroup of ambient containing the seeds and normal in ambient.

    While some ambient generator conjugates K outside itself, the first
    three conjugates of K's members that fall outside join the returned
    generators.  K itself grows under a BFS generating set kept apart
    from those: an element joins it only if it lies outside K.  A
    generator g moves K = <bfs> iff it moves some element of bfs out of
    K, so only then are all of K's members conjugated.  Once |K| =
    |ambient|, K is the ambient (Lagrange) and the loop stops.
    """
    ambient = as_subgroup(ambient)
    G = ambient.group
    gens = list(dict.fromkeys(int(s) for s in seed_indices if s != 0))
    bfs = []
    K = _adjoin(Subgroup(G, np.zeros(1, dtype=np.int64)), bfs, gens)
    agens = ambient.generating_set()
    grew = True
    while grew and K.order < ambient.order:
        grew = False
        for g in agens:
            if K.contains_indices(G.conj_batch(g, bfs)).all():
                continue
            conj = G.conj_batch(g, K.midx)
            new = conj[~K.contains_indices(conj)][:3].tolist()
            gens.extend(new)
            K = _adjoin(K, bfs, new)
            grew = True
            if K.order == ambient.order:
                break
    return Subgroup(G, K.midx, gens=tuple(gens) if gens else (0,))


# -- conjugacy classes and normal subgroups -----------------------------------


def _conjugation_orbits(actor, target):
    """Orbits of conjugation by actor on target's members, in one sweep.

    Returns label with label[k] the smallest position in target.midx of
    the orbit of target.midx[k] (_orbit_labels): every actor generator
    gives a position map, a permutation of target.midx.
    """
    G = target.group
    midx = target.midx
    return _orbit_labels([np.searchsorted(midx, G.conj_batch(a, midx))
                          for a in actor.generating_set()], midx.size)


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
        sub._cache["classes"] = _orbit_arrays(
            sub.midx, _conjugation_orbits(sub, sub))
    return sub._cache["classes"]


def _class_closure(sub, x):
    """normal_closure(sub, [x]), cached on sub (so keyed by its identity).

    The one closure that minimal_normal_subgroups, is_simple and
    is_quasisimple share, for x a class representative of sub.
    """
    sub = as_subgroup(sub)
    key = ("closure", int(x))
    if key not in sub._cache:
        sub._cache[key] = normal_closure(sub, [int(x)])
    return sub._cache[key]


def _prime_order_reps(sub):
    """Representatives (smallest members) of sub's classes of prime order."""
    orders = sub.group.element_orders()
    return [int(c[0]) for c in conjugacy_classes(sub)
            if _prime_divisors(int(orders[c[0]])) == [int(orders[c[0]])]]


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
    found = {}
    triv = Subgroup(G, np.array([0], dtype=np.int64), gens=(0,))
    found[triv.key] = triv
    for cls in conjugacy_classes(sub)[1:]:
        N = _class_closure(sub, cls[0])
        found.setdefault(N.key, N)
    # close under join
    worklist = list(found.values())
    while worklist:
        A = worklist.pop()
        for B in list(found.values()):
            if A.is_subset_of(B) or B.is_subset_of(A):
                continue
            J = Subgroup(G, close_indices(G, B.generating_set(), start=A.midx),
                         gens=_gens_tuple(A.generating_set() + B.generating_set()))
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
    the prime-order class representatives.  Each M is returned as the
    closure of its smallest nontrivial member M.midx[1], the first class
    inside M, so its generators are those the lattice reaches it by.
    """
    sub = as_subgroup(sub)
    closures = {}
    for x in _prime_order_reps(sub):
        N = _class_closure(sub, x)
        closures.setdefault(N.key, N)
    normals = sorted(closures.values(), key=lambda s: (s.order, s.key))
    return [_class_closure(sub, N.midx[1]) for N in normals
            if not any(M.order < N.order and M.is_subset_of(N)
                       for M in normals)]


def is_simple(sub):
    """Every prime-order class closes to sub; stops at the first that does not.

    A proper nontrivial normal subgroup would hold an element of prime
    order whose closure stays inside it.
    """
    sub = as_subgroup(sub)
    return sub.order > 1 and all(_class_closure(sub, x).order == sub.order
                                 for x in _prime_order_reps(sub))


# -- Sylow subgroups and p-cores ------------------------------------------------


def _check_prime(p):
    p = int(p)
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise NotPrime(f"{p} is not prime")
    return p


def sylow_subgroup(sub, p):
    """A Sylow p-subgroup, grown inside successive normalizers.

    While the current p-subgroup P is not Sylow, its normalizer contains a
    p-element outside P (the image of P's normalizer mod P has order
    divisible by p), and adjoining one multiplies |P| by p.
    """
    sub = as_subgroup(sub)
    p = _check_prime(p)
    key = ("sylow", p)
    if key in sub._cache:
        return sub._cache[key]
    G = sub.group
    orders = G.element_orders()[sub.midx]
    target = sub.order
    while target % p == 0:
        target //= p
    # p-part of |sub| is sub.order // target
    P = Subgroup(G, np.array([0], dtype=np.int64), gens=(0,))
    gens = []
    while sub.order // P.order % p == 0 and P.order < sub.order // target:
        N = normalizer(sub, P) if P.order > 1 else sub
        n_orders = G.element_orders()[N.midx]
        # an order is a power of p exactly when it divides a large one
        big = p
        while big < n_orders.max():
            big *= p
        is_ppower = big % n_orders == 0
        cands = N.midx[is_ppower & ~P.contains_indices(N.midx)]
        y = int(cands[0])
        gens.append(y)
        P = G.subgroup(gens)
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
    orders = sub.element_orders()
    qprime = sub.midx[np.asarray(orders) % q != 0]
    K = sub.group.subgroup(
        [int(i) for i in qprime]) if qprime.size else sub.group.subgroup([])
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

        classes = _orbit_arrays(target.midx,
                                _conjugation_orbits(actor, target))
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
            G.perms[self.tracking][:, G.perms[G.inv[idx]]].swapaxes(0, 1),
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
        keys = np.unique(np.repeat(np.arange(n), np.diff(ptr)) * N
                         + self.project(elems)[inv])
        return row_ptr(keys // N, n), keys % N


def conjugation_action(actor, target):
    return ConjugationAction(actor, target)


# -- components ------------------------------------------------------------------


def is_quasisimple(sub):
    """Perfect, and every noncentral class closes to sub.

    That is simple modulo the center: a normal subgroup not inside Z(sub)
    holds a noncentral class.  Stops at the first proper closure.
    """
    sub = as_subgroup(sub)
    if sub.order == 1 or derived_subgroup(sub).order != sub.order:
        return False
    return all(_class_closure(sub, c[0]).order == sub.order
               for c in conjugacy_classes(sub) if c.size > 1)


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
        if is_simple(M):
            comps.append(M)
        else:
            for F in minimal_normal_subgroups(M):
                if not (is_simple(F) and not F.is_abelian()):
                    raise ComponentsUndetectable(
                        "nonabelian minimal normal subgroup does not split "
                        "into nonabelian simple factors")
                comps.append(F)

    # verify: F*(G) = F(G) * (product of components) is self-centralizing.
    # F(G) is the product of the O_p(G), and O_p(G) > 1 only for the primes
    # above: a minimal normal subgroup inside O_p(G) is an abelian p-group.
    fit_gens = []
    for p in sorted(primes):
        Op = p_core(sub, p)
        fit_gens.extend(Op.generating_set())
    for c in comps:
        fit_gens.extend(c.generating_set())
    fstar = G.subgroup([g for g in fit_gens if g != 0]) if fit_gens else G.subgroup([])
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


def _commuting_products(G, ext, powers, gens):
    """Every commuting pair of p-elements from two different cyclic
    subgroups, with its product, as one table (keys, prods).

    Elements are named by position in ext, the identity and then the
    p-elements ascending; m = ext.size, powers[q, e] is the position of
    the e-th power of q, and gens holds one generator of each cyclic
    subgroup.  keys holds i·m + j ascending, and prods[k] the position
    of the product of the pair keys[k], a p-element.

    Commuting is tested once per cyclic subgroup, on its generator x:
    x∘y and y∘x are compared at points 0 and 1 (a group with p-elements
    has degree >= 2) for a block of generators against every p-element
    at once, and in full only on the pairs that agree there.  The
    composed rows of a commuting pair are its product, looked up once; a
    pair of two generators is composed one way round only.  The rows of
    the other powers of x follow from x's by x^e y = x (x^(e-1) y), read
    off x's row (InvariantViolated if missing)."""
    m, p = powers.shape
    P = G.perms[ext]
    is_gen = np.zeros(m, dtype=bool)
    is_gen[gens] = True
    found, prods = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    step = max(1, (1 << 22) // m)
    for lo in range(0, gens.size, step):
        X = P[gens[lo:lo + step]]
        # y(x(a)) == x(y(a)), y over the p-elements
        agree = P[1:, X[:, 0]].T == X[:, P[1:, 0]]
        agree &= P[1:, X[:, 1]].T == X[:, P[1:, 1]]
        i, j = np.nonzero(agree)
        i, j = gens[lo + i], j + 1
        pick = ((j > i) | ~is_gen[j]) & ~(powers[i] == j[:, None]).any(axis=1)
        i, j = i[pick], j[pick]
        xy = np.take_along_axis(P[i], P[j], axis=1)
        ok = np.all(np.take_along_axis(P[j], P[i], axis=1) == xy, axis=1)
        found.append(i[ok] * m + j[ok])
        prods.append(np.searchsorted(ext, G.lookup_rows(xy[ok])))
    found, prods = np.concatenate(found), np.concatenate(prods)
    both = is_gen[found % m]
    keys = np.concatenate((found, found[both] % m * m + found[both] // m))
    prods = np.concatenate((prods, prods[both]))
    order = np.argsort(keys)
    keys, prods = keys[order], prods[order]
    x, y, xy = keys // m, keys % m, prods
    rows, cols, out = [x], [y], [xy]
    for e in range(2, p):
        hit, pos = sorted_find(keys, x * m + xy)
        if not hit.all():
            raise InvariantViolated(_MISSING_PRODUCT)
        xy = prods[pos]
        rows.append(powers[x, e])
        cols.append(y)
        out.append(xy)
    keys = np.concatenate(rows) * m + np.concatenate(cols)
    order = np.argsort(keys)
    return keys[order], np.concatenate(out)[order]


class SubgroupFamily(Sequence):
    """Subgroups of one group in (order, member row) order, kept per order
    as arrays.

    blocks holds one (members, gens, coords) per order, ascending: the
    sorted member rows, ascending; each subgroup's generators, a row per
    subgroup; and its coordinate rows, where column c_1 + c_2 p + ... +
    c_r p^(r-1) holds b_1^c_1 b_2^c_2 ⋯ b_r^c_r for a basis b_1, ..., b_r
    of the subgroup (the generators, in some order).  Readers take the
    rows: member_csr, positions, distinct and take read the arrays, and
    take gives the sub-family at given positions.  family[k], for
    0 <= k < len(family), builds a fresh Subgroup of member k, for a
    caller that needs one object; derived data is cached by key on the
    group, so every build of a member shares it.
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
        return Subgroup(self.group, members[j], gens=gens[j].tolist())

    def take(self, ids):
        """The sub-family at the ascending, distinct positions ids."""
        ids = np.asarray(ids, dtype=np.int64)
        cut = np.searchsorted(ids, self._starts)
        blocks = [tuple(x[ids[lo:hi] - s] for x in b)
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
    coordinate rows of each subgroup in its generators.  BFS by rank: a
    rank r+1 subgroup B arises as <A, z> where A is a hyperplane and z a
    commuting p-element larger than all of A's members, so extending
    every A by every such z and deduplicating member tuples finds
    everything.

    Each step works on a whole rank, in positions of the p-elements,
    which those of one power test (PermGroup.p_element_mask) list in
    ascending order, so positions order rows as element indices do.  Rank
    1 is one row per cyclic subgroup, its powers found by bulk lookups.
    One table holds every commuting pair of p-elements of different
    cyclic subgroups with its product (_commuting_products).  A rank's
    candidate pairs (A, z) are read off the table's row of A's first
    generator, past A's largest member, and kept where each further
    generator's row has z too: row-major order, so the first pair
    reaching each B, whose generators B keeps, is the same as in a
    row-by-row scan.  B's coordinate row is A's followed by A's times z,
    z^2, ..., z^(p-1), each product read off the table by one
    searchsorted; InvariantViolated if one is missing, or if B's members
    are not p·|A| distinct elements.
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
    # rank 1: one row per <x>, keyed by its sorted nontrivial members
    order, head = row_runs(np.sort(powers[1:, 1:], axis=1))
    gens = order[head].reshape(-1, 1) + 1
    coords = powers[gens[:, 0]]
    members = np.sort(coords, axis=1)
    if members.shape[0] > cap:
        raise EnumerationCapExceeded(
            f"{members.shape[0]} rank-1 subgroups exceeds cap {cap}")
    keys, prods = _commuting_products(G, ext, powers, gens[:, 0])
    ptr = np.searchsorted(keys, np.arange(m + 1) * m)
    levels = [(members, gens, coords)]
    total = members.shape[0]

    while True:
        # z past A's largest member in its first generator's row, kept
        # where every further generator commutes with it
        start = np.searchsorted(keys, gens[:, 0] * m + members[:, -1],
                                side="right")
        count = ptr[gens[:, 0] + 1] - start
        pair_sub = np.repeat(np.arange(len(gens)), count)
        z = keys[np.repeat(start - np.cumsum(count) + count, count)
                 + np.arange(count.sum())] % m
        for g in gens[:, 1:].T:
            hit = sorted_find(keys, g[pair_sub] * m + z)[0]
            pair_sub, z = pair_sub[hit], z[hit]
        if pair_sub.size == 0:
            break
        C = coords[pair_sub]
        blocks = [C]
        for e in range(1, p):
            ze = powers[z, e]
            hit, pos = sorted_find(keys, C[:, 1:] * m + ze[:, None])
            if not hit.all():
                raise InvariantViolated(_MISSING_PRODUCT)
            blocks += [ze[:, None], prods[pos]]
        new_coords = np.concatenate(blocks, axis=1)
        new_members = np.sort(new_coords, axis=1)
        if (new_members[:, 1:] == new_members[:, :-1]).any():
            raise InvariantViolated(
                "a rank step did not multiply the order by p")
        order, head = row_runs(new_members)
        first = order[head]
        members, coords = new_members[first], new_coords[first]
        gens = np.column_stack((gens[pair_sub[first]], z[first]))
        total += members.shape[0]
        if total > cap:
            raise EnumerationCapExceeded(
                f"elementary abelian count exceeds cap {cap}")
        levels.append((members, gens, coords))

    sub._cache[ckey] = SubgroupFamily(
        G, [(ext[M], ext[g], ext[C]) for M, g, C in levels])
    return sub._cache[ckey]

"""Posets of p-subgroups of a finite group and the maps that compare them.

Covers the poset of nontrivial elementary abelian p-subgroups, the poset
of nontrivial p-radical subgroups, posets of images under a conjugation
action, posets of purely outer p-subgroups, and, for a conjugation orbit
of components, the centralizer chain with its join-of-factors target
space and the projection maps into it.  The checker layer interrogates
the rational homology of these posets and maps.

Every inclusion poset of a subgroup family is built by
poset_from_subgroups, with no pairwise subset tests.  A SubgroupFamily,
with its coordinate rows, is declared closed under nontrivial subgroups:
A_p(G), the p-outer poset (a sub-family) and the image poset
(_image_family).  Its relations are read off its maximal members,
through fixed tables of the subspaces of F_p^r and of their
containments, and one row lookup per dimension.  The radical poset, a family with no coordinates,
has its relations read off one sorted array of membership keys, member
by element, searched once per generator.

The orbit maps ask whole families at once: groups.membership tests every
member against a subgroup in one call, project_family projects them in
one batch, and subgroup_ids finds targets by member row, one row lookup
per order, so no member is tested, projected or looked up on its own.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

import numpy as np

from .errors import (
    CenterHasPTorsion,
    ComponentsUndetectable,
    EmptyFactor,
    IndexOutOfRange,
    InvariantViolated,
    WrongArity,
)
from .groups import (
    DEFAULT_ENUM_CAP,
    ConjugationAction,
    Subgroup,
    SubgroupFamily,
    _check_prime,
    _orbit_arrays,
    _orbit_labels,
    _prime_divisors,
    _subgroup_class,
    as_subgroup,
    center,
    centralizer,
    conjugation_action,
    detect_components,
    elementary_abelian_subgroups,
    member_csr,
    membership,
    normal_core,
    normalizer,
    normalizes,
    rank_of_order,
    require_contained,
    subgroup_product,
    sylow_subgroup,
)
from .homology import (
    DEFAULT_WORK_CAP,
    betti_of_complex,
)
from .posets import (
    Poset,
    PosetMap,
    SimplicialComplex,
    join_posets,
    order_complex,
    row_lookup,
    row_ptr,
    row_runs,
    sorted_find,
    sorted_unique,
)


# -- inclusion posets of subgroup families ---------------------------------------


def poset_from_subgroups(family):
    """Inclusion poset of a SubgroupFamily of nontrivial subgroups, which
    are its elements as they are, in (order, member row) order, a linear
    extension of inclusion.  No Subgroup is built.

    A family with coordinates in every block is declared to consist of
    elementary abelian p-subgroups and to hold every nontrivial subgroup
    of each member: A_p(G), and the image and p-outer posets.  Its
    relations are read off the members' subspaces (_closed_family_order),
    and the declaration is checked there; IndexOutOfRange if it fails.

    Any other family (the radical poset) goes through one sorted array
    of membership keys m·|G| + x, one per nontrivial element x of member
    m.  A subgroup holding S_i's generators holds S_i, so the members
    above S_i are the holders of its first generator, read off one
    stable argsort of the keys' elements in ascending member order, kept
    where sorted_find finds each further generator in the keys, less i.
    """
    if all(coords is not None for _, _, coords in family.blocks):
        return Poset(family, *_closed_family_order(family))
    n = len(family)
    N = family.group.order
    _, ptr, entries = member_csr(family)
    keys = (entries + np.repeat(np.arange(n) * N, np.diff(ptr)))[entries != 0]
    wide = max(g.shape[1] for _, g, _ in family.blocks)
    gens = np.concatenate([np.pad(g, ((0, 0), (0, wide - g.shape[1])),
                                  constant_values=-1)
                           for _, g, _ in family.blocks])
    # intermediates are dropped once read: without the dels, the order of
    # sym8's 2-radical poset peaks 5.2 MiB above its start, not 3.3
    del ptr, entries
    # holders of each first generator: a run of the keys ranked by element
    by_elem = np.argsort(keys % N, kind="stable")
    ranked = keys[by_elem] % N
    start = np.searchsorted(ranked, gens[:, 0])
    count = np.searchsorted(ranked, gens[:, 0], side="right") - start
    del ranked
    row = np.repeat(np.arange(n), count)
    pos = np.arange(len(row)) + np.repeat(start - np.cumsum(count) + count,
                                          count)
    above = keys[by_elem[pos]] // N
    del by_elem, pos
    for g in gens[:, 1:].T:
        g = g[row]
        hit = sorted_find(keys, above * N + g)[0]
        hit |= g < 0
        row, above = row[hit], above[hit]
    keep = above != row
    return Poset(family, row_ptr(row[keep], n), above[keep])


_NOT_CLOSED = "family is not closed under nontrivial subgroups"


def _closed_family_order(family):
    """(ptr, ids) of the inclusion order of a SubgroupFamily, declared
    closed under nontrivial subgroups, every member elementary abelian of
    order p^r.

    The order is read off the maximal members, those no higher member
    holds, from the top rank down.  A rank's maximal members are the
    ones no maximal member above it listed: each maximal coordinate row
    of rank r > k is gathered through the table of k-dimensional
    subspaces of F_p^r (subspace_table), listing its subgroups of order
    p^k, and one row_lookup per rank k finds them among the rank-k
    member rows.  Every member lies in a maximal one, so the strict
    order is the union, over the maximal members, of the strict
    containments among their subspaces, a fixed table per rank
    (subspace_order) read through the positions found; one sort of the
    keys lo·n + hi drops the pairs two maximal members share and gives
    the CSR.

    Raises IndexOutOfRange if a member's order is not a power of p, a
    nontrivial member element fails the power test x^p = 1, a row's
    sorted coordinates are not the row, or a subspace of a maximal
    member is not a member.  The last proves closure, and also that
    each member is abelian: two basis elements that do not commute span
    a coordinate plane that is not a subgroup.  Checking the maximal
    members covers the rest: every other member is a subspace of one,
    listed by its members, so its subgroups, and any two of its
    elements, lie in that maximal member too.
    """
    if not family.blocks:
        return [0], []
    p = _prime_divisors(family.blocks[0][0].shape[1])[0]
    pmask = family.group.p_element_mask(p)
    ranks = {}  # rank -> (first id, sorted member rows, coordinate rows)
    n = 0
    for rows, _, coords in family.blocks:
        r = rank_of_order(rows.shape[1], p)
        if p ** r != rows.shape[1] or not pmask[rows[:, 1:]].all() \
                or not np.array_equal(np.sort(coords, axis=1), rows):
            raise IndexOutOfRange(_NOT_CLOSED)
        ranks[r] = (n, rows, coords)
        n += len(rows)
    top = max(ranks)
    # rank -> coordinate rows of its maximal members, and their ids per
    # subspace of F_p^r, by dimension k = 1, ..., r (the member itself)
    maximal = {top: ranks[top][2]}
    ids = {top: {top: ranks[top][0] + np.arange(len(ranks[top][1]))}}
    for k in range(top - 1, 0, -1):
        first, table, coords = ranks.get(k, (0, np.empty((0, p ** k),
                                                          np.int64), None))
        subs = [np.sort(C[:, subspace_table(p, r, k)], axis=2)
                for r, C in maximal.items()]
        pos = row_lookup(table, np.concatenate(
            [x.reshape(-1, p ** k) for x in subs]))
        if (pos < 0).any():
            raise IndexOutOfRange(_NOT_CLOSED)
        for r, part in zip(maximal, np.split(pos, np.cumsum(
                [x.shape[0] * x.shape[1] for x in subs])[:-1])):
            ids[r][k] = first + part.reshape(len(maximal[r]), -1)
        held = np.zeros(len(table), dtype=bool)
        held[pos] = True
        if not held.all():
            maximal[k] = coords[~held]
            ids[k] = {k: first + np.flatnonzero(~held)}
    keys = [np.empty(0, np.int64)]
    for r, at in ids.items():
        lo, hi = subspace_order(p, r)
        table = np.column_stack([at[k] for k in range(1, r + 1)])
        keys.append((table[:, lo] * n + table[:, hi]).ravel())
    keys = sorted_unique(np.concatenate(keys))
    return row_ptr(keys // n, n), keys % n


@cache
def subspace_order(p, r):
    """(lo, hi): the strict containments among the nontrivial subspaces
    of F_p^r, F_p^r included, one pair each.  The subspaces are numbered
    by dimension, those of one dimension as subspace_table lists them,
    F_p^r last; a subspace lies in another when its sorted coordinate
    positions all do."""
    spaces = [subspace_table(p, r, k) for k in range(1, r)]
    spaces.append(np.arange(p ** r, dtype=np.int64)[None])
    start = np.cumsum([0] + [len(x) for x in spaces])
    lo, hi = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for j, B in enumerate(spaces):
        holds = np.zeros((len(B), p ** r), dtype=bool)
        holds[np.arange(len(B))[:, None], B] = True
        for i, A in enumerate(spaces[:j]):
            b, a = np.nonzero(holds[:, A].all(axis=2))
            lo.append(start[i] + a)
            hi.append(start[j] + b)
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    lo.flags.writeable = hi.flags.writeable = False  # shared by every caller
    return lo, hi


@cache
def subspace_table(p, r, k):
    """The k-dimensional subspaces of F_p^r, one row each, as the sorted
    coordinate positions c_1 + c_2 p + ... + c_r p^(r-1) of their p^k
    vectors: one row per reduced echelon basis, [r, k]_p rows."""
    weights = p ** np.arange(r)
    combos = np.array(list(product(range(p), repeat=k)), dtype=np.int64)
    out = []
    for pivots in combinations(range(r), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, r)
                if j not in pivots]
        for values in product(range(p), repeat=len(free)):
            basis = np.zeros((k, r), dtype=np.int64)
            basis[np.arange(k), pivots] = 1
            for (i, j), v in zip(free, values):
                basis[i, j] = v
            out.append(np.sort(combos @ basis % p @ weights))
    table = np.array(out, dtype=np.int64).reshape(-1, p ** k)
    table.flags.writeable = False  # shared by every caller
    return table


def ap_poset(sub, p, cap=DEFAULT_ENUM_CAP):
    """Poset of nontrivial elementary abelian p-subgroups, cached per
    subgroup identity.

    The enumeration checks cap on a cache hit too, so a cached poset
    larger than cap raises, as a fresh enumeration would.
    """
    sub = as_subgroup(sub)
    p = _check_prime(p)
    elab = elementary_abelian_subgroups(sub, p, cap=cap)
    key = ("ap-poset", p)
    if key not in sub._cache:
        sub._cache[key] = poset_from_subgroups(elab)
    return sub._cache[key]


def subgroup_ids(P, ptr, entries):
    """Ids in P, a poset of a SubgroupFamily, of the subgroups given as a
    member CSR (ptr, entries), found by their member rows
    (SubgroupFamily.positions).  IndexOutOfRange if one is not in P."""
    ids = P.elements.positions(ptr, entries)
    if (ids < 0).any():
        raise IndexOutOfRange("a target subgroup is not in the target poset")
    return ids


def subgroup_orbits(ambient, family):
    """Orbits of a conjugation-stable family of subgroups (member_csr)
    under ambient, read off its conjugation tables: each a sorted list of
    positions in the family, ordered by their least."""
    n = len(member_csr(family)[1]) - 1
    label = _orbit_labels(conj_action_tables(family, ambient), n)
    return [orb.tolist() for orb in _orbit_arrays(np.arange(n), label)
            if orb.size]


def conj_action_tables(family, S):
    """Permutation tables, one per generator g of S, of S conjugating a
    family of subgroups (member_csr): tab[k] is the position of g E_k g^-1.
    Each g conjugates every member entry in one batch; each conjugate,
    sorted within its member, is found by the bytes of its member array.
    Raises if some conjugate leaves the family."""
    S = as_subgroup(S)
    _, ptr, entries = member_csr(family)
    spans = list(zip(ptr[:-1], ptr[1:]))
    # a member's sorted int64 entries, as bytes, are its Subgroup.key
    position = {entries[a:b].tobytes(): k for k, (a, b) in enumerate(spans)}
    row = np.repeat(np.arange(len(spans)), np.diff(ptr))
    tables = []
    for g in S.generating_set():
        conj = S.group.conj_batch(g, entries)
        conj = conj[np.lexsort((conj, row))]
        tab = [position.get(conj[a:b].tobytes()) for a, b in spans]
        if None in tab:
            raise IndexOutOfRange(
                "conjugation does not preserve the subgroup family")
        tables.append(np.array(tab, dtype=np.int64))
    return tables


# -- radical p-subgroups ----------------------------------------------------------


def _index_p_extension(mul, S, x, p):
    """T = S ∪ xS ∪ ... ∪ x^(p-1)S, sorted, for x normalizing S outside
    it with x^p in S, read off a local multiplication table.  Raises
    unless T has exactly p·|S| distinct members."""
    cosets, y = [S], x
    for _ in range(p - 1):
        cosets.append(mul[y, S])
        y = mul[y, x]
    T = sorted_unique(np.concatenate(cosets))
    if T.size != p * S.size:
        raise InvariantViolated(
            f"index-{p} extension of a subgroup of order {S.size} has "
            f"{T.size} members, not {p * S.size}")
    return T


def _p_subgroup_class_reps(P):
    """Subgroups of a p-group P up to P-conjugacy, including 1 and P, in
    ascending order.

    Every nontrivial subgroup T of a p-group has a normal subgroup S of
    index p, and T = S ∪ xS ∪ ... ∪ x^(p-1)S for any x in T outside S.
    So each representative S is extended only by the x in N_P(S)
    outside S with x^p in S, one x per extension (every element of T
    outside S gives the same T), with no closure (_index_p_extension).
    A new subgroup's whole P-class is marked seen at once, so each class
    is extended once, and each class is reached from the class of one
    of its members' normal subgroups of index p.

    Extensions and conjugates are read off P's own multiplication table,
    built with one lookup of |P|^2 rows, on local indices (positions in
    P.midx).  P.midx is sorted, so local order is global order.  Each
    representative carries as gens its parent's plus the x it was
    extended by.
    """
    G = P.group
    k = P.order
    if k == 1:
        return [P]
    p = _prime_divisors(k)[0]
    rows = G.perms[P.midx]
    # mul[a, b]: local index of rows[a] o rows[b]; rows[:, rows][a, b] is
    # rows[a] indexed by rows[b]
    mul = np.searchsorted(P.midx, G.lookup_rows(
        rows[:, rows].reshape(-1, G.degree))).reshape(k, k)
    inv = np.argmax(mul == 0, axis=1)
    conj = [mul[mul[g], inv[g]]
            for g in np.searchsorted(P.midx, P.generating_set())]
    power = np.arange(k)  # power[x]: local index of x^p
    for _ in range(p - 1):
        power = mul[power, np.arange(k)]

    trivial = (np.zeros(1, dtype=np.int64), ())
    reps = [trivial]
    seen = {trivial[0].tobytes()}
    frontier = [trivial]
    while frontier:
        fresh = []
        for S, sgens in frontier:
            inS = np.zeros(k, dtype=bool)
            inS[S] = True
            # x S x^-1 for every x, one row per x
            normal = inS[mul[mul[:, S], inv[:, None]]].all(axis=1)
            done = inS.copy()
            for x in np.flatnonzero(normal & ~inS & inS[power]).tolist():
                if done[x]:
                    continue
                T = _index_p_extension(mul, S, x, p)
                done[T] = True
                if T.tobytes() in seen:
                    continue
                seen.add(T.tobytes())
                queue = [T]
                while queue:
                    U = queue.pop()
                    for c in conj:
                        V = np.sort(c[U])
                        if V.tobytes() not in seen:
                            seen.add(V.tobytes())
                            queue.append(V)
                fresh.append((T, tuple(sorted(sgens + (x,)))))
        reps.extend(fresh)
        frontier = fresh
    return [Subgroup(G, P.midx[T],
                     gens=tuple(P.midx[list(gens)].tolist()) or (0,))
            for T, gens in reps]


def _is_radical(sub, S, P, p):
    """Whether S <= P is radical in sub, for S fully normalized in P;
    None when it is not.

    S is fully normalized when T = N ∩ P is a Sylow p-subgroup of N =
    N_sub(S), that is when |N : T| is prime to p.  Then O_p(N) is the
    core of T in N, and S is radical when that core is S, at once when
    T = S.  S is normal in N, so the core contains S; this is checked.
    """
    N = normalizer(sub, S)
    T = N.intersection(P)
    if N.order // T.order % p == 0:
        return None
    if T.key == S.key:
        return True
    core = normal_core(N, T)
    if not S.is_subset_of(core):
        raise InvariantViolated(
            f"the core of N ∩ P, of order {core.order}, does not contain "
            f"the subgroup of order {S.order} it normalizes")
    return core.key == S.key


def bouc_poset(sub, p):
    """Poset of nontrivial p-radical subgroups of sub.

    A p-subgroup R is radical when R is the p-core of its normalizer.
    Candidates are the representatives of the P-classes of subgroups of
    a Sylow p-subgroup P (_p_subgroup_class_reps).  Every class of
    p-subgroups under sub has a member fully normalized in P, and
    P-conjugates of a fully normalized subgroup are fully normalized, so
    only fully normalized candidates are tested, by _is_radical, which
    reads O_p(N_sub(S)) off N_sub(S) ∩ P with no Sylow subgroup grown.
    Its classes, grown as rows, make one family with no coordinates, and
    those of order p^k carry k gens each (_p_subgroup_class_reps).
    """
    sub = as_subgroup(sub)
    p = _check_prime(p)
    key = ("bouc", p)
    if key in sub._cache:
        return sub._cache[key]
    found, classes = set(), {}
    P = sylow_subgroup(sub, p)
    for S in _p_subgroup_class_reps(P)[1:]:
        if S.key not in found and _is_radical(sub, S, P, p):
            members, gens = _subgroup_class(sub, S, found)
            classes.setdefault(S.order, []).append((members, gens))
    blocks = []
    for order in sorted(classes):
        members, gens = (np.concatenate(x) for x in zip(*classes[order]))
        rank = np.lexsort(members.T[::-1])
        members, gens = members[rank], gens[rank]
        blocks.append((members, gens, None))
    # the blocks hold every row: the classes go before the relations
    del found, classes
    sub._cache[key] = poset_from_subgroups(SubgroupFamily(sub.group, blocks))
    return sub._cache[key]


# -- image posets under a conjugation action ---------------------------------------


@dataclass
class ImagePoset:
    """Image of the p-subgroup poset of a normalizer under its action on L.

    poset has the nontrivial projections pi(E) as labels (Subgroups of
    action.image); embedded is the isomorphic copy of source = the
    p-subgroup poset of L, well defined because Z(L) has no p-torsion.
    """
    poset: Poset
    action: ConjugationAction
    host: Subgroup
    source: Poset
    embedded: PosetMap


def _check_embedded_copy(source, poset, t):
    """The id table t, order-preserving from source into poset, keeps
    orders, is injective, and its images carry no more relations than the
    source."""
    orders = [np.diff(member_csr(P)[1]) for P in (source, poset)]
    if (orders[1][t] != orders[0]).any():
        raise InvariantViolated(
            "projection is not faithful on p-subgroups of L")
    if sorted_unique(t).size != source.n:
        raise InvariantViolated("embedded copy is not injective")
    if poset.induced(t)[0].ids.size != source.ids.size:
        raise InvariantViolated("embedded copy is not an induced subposet")


def _image_family(act, elab):
    """The distinct nontrivial images of the members of elab, a
    SubgroupFamily of the actor, as a SubgroupFamily of act.image.

    The image of E is that of a complement of E ∩ kernel in E, a member
    of the image's order, so before E in (order, row) order, on which
    the projection is injective.  So only the members meeting the kernel
    trivially are projected, gens and coordinate rows, in one act.project
    of their distinct elements.  Sorted, a projected coordinate row is
    its image's member row; row_runs keeps each block's first member
    reaching a row, with its projected gens, sorted, and coordinates.
    """
    elab = elab.take(np.flatnonzero(
        membership(elab, act.kernel).meet_orders() == 1))
    rows = [x for _, g, C in elab.blocks for x in (g, C)]
    elems, inv = np.unique(np.concatenate(
        [np.empty(0, dtype=np.int64)] + [x.ravel() for x in rows]),
        return_inverse=True)
    img = iter(np.split(act.project(elems)[inv],
                        np.cumsum([x.size for x in rows])[:-1]))
    blocks = []
    for _, g, C in elab.blocks:
        g, C = next(img).reshape(g.shape), next(img).reshape(C.shape)
        order, head = row_runs(np.sort(C, axis=1))
        first = order[head]
        blocks.append((np.sort(C[first], axis=1), np.sort(g[first], axis=1),
                       C[first]))
    return SubgroupFamily(act.image, blocks)


def image_poset_from_action(act, p, cap=DEFAULT_ENUM_CAP):
    """Image poset of an existing conjugation action (actor normalizes L)."""
    p = _check_prime(p)
    Z = center(act.target)
    if Z.order % p == 0:  # Cauchy: Z has an element of order p
        raise CenterHasPTorsion(
            f"center of the target (order {Z.order}) has {p}-torsion")
    images = _image_family(act, elementary_abelian_subgroups(act.actor, p,
                                                             cap=cap))
    poset = poset_from_subgroups(images)
    source = ap_poset(act.target, p, cap=cap)
    embedded = PosetMap(source, poset,
                        subgroup_ids(poset, *act.project_family(source)))
    _check_embedded_copy(source, poset, embedded.table)
    return ImagePoset(poset=poset, action=act, host=act.actor,
                      source=source, embedded=embedded)


def image_poset(ambient, L, p, cap=DEFAULT_ENUM_CAP):
    """Poset of images of elementary abelian p-subgroups of N_ambient(L)
    in the automorphisms of L induced by conjugation.

    Requires Z(L) to have no p-torsion (CenterHasPTorsion otherwise).
    """
    ambient = as_subgroup(ambient)
    L = as_subgroup(L)
    require_contained(ambient, L)
    host = normalizer(ambient, L)
    act = conjugation_action(host, L)
    return image_poset_from_action(act, p, cap=cap)


def outers_in_image(ip):
    """Ids of members of an image poset meeting the inner automorphisms
    trivially, plus the inner-automorphism subgroup itself, closed from
    the target's projected generators."""
    act = ip.action
    inn = act.image.subgroup(act.project(act.target.generating_set()))
    ids = np.flatnonzero(membership(ip.poset, inn).meet_orders() == 1)
    return ids.tolist(), inn


# -- purely outer p-subgroups -------------------------------------------------------


@dataclass
class OuterPoset:
    """Elementary abelian p-subgroups of N_ambient(L) meeting L * C_ambient(L)
    only in the identity."""
    poset: Poset
    host: Subgroup
    product: Subgroup
    cyclic_only: bool


def p_outer_poset(ambient, L, p, cap=DEFAULT_ENUM_CAP):
    ambient = as_subgroup(ambient)
    L = as_subgroup(L)
    require_contained(ambient, L)
    host = normalizer(ambient, L)
    LC = subgroup_product(L, centralizer(ambient, L))
    elab = elementary_abelian_subgroups(host, p, cap=cap)
    outer = elab.take(np.flatnonzero(membership(elab, LC).meet_orders() == 1))
    poset = poset_from_subgroups(outer)
    cyclic_only = [M.shape[1] for M, _, _ in outer.blocks] == [p]
    return OuterPoset(poset=poset, host=host, product=LC,
                      cyclic_only=cyclic_only)


# -- orbit contexts -----------------------------------------------------------------


@dataclass
class JoinData:
    """The join X of the chain factors, with its prefix joins W[i]; factor
    j fills the ids blocks[j] = (start, end) of X, from its base vertex,
    and of every W[i] with i >= j, a prefix of X."""
    X: Poset
    W: list
    active: list
    factor_posets: dict
    factor_of: np.ndarray
    blocks: dict


@dataclass
class JoinComplexes:
    """Order complex of X with the two distinguished subcomplexes: K0 has
    the chains that miss at least one nonempty factor, K0hat the chains
    lying in the star of some fixed factor vertex."""
    KX: SimplicialComplex
    K0: SimplicialComplex
    K0hat: SimplicialComplex
    k0hat_betti: object


class OrbitContext:
    """One conjugation orbit of components with its centralizer chain.

    Given an ambient group, a prime p, and an orbit {L_1, ..., L_t} of
    components under conjugation, fixes an order on the orbit, computes
    H (the intersection of the normalizers of the L_i), N = L_1 ... L_t,
    and the chain C_0 <= ... <= C_t = H where C_i centralizes the later
    components in H, and materializes on demand the p-subgroup posets of
    the chain, the image-poset factors, their join, and the projection
    maps between them.  Chain identities (components sit inside their
    chain member, action kernels march down the chain, H and N and C_G(N)
    are normal) are verified at construction time.  The maps it builds
    (_map) keep their induced-map reports in its results, so equal maps
    built here, such as psi and a transfer map between equal posets,
    share one.
    """

    def __init__(self, group, p, components=None, orbit_index=0, order=None,
                 cap=DEFAULT_ENUM_CAP, work_cap=DEFAULT_WORK_CAP):
        self.G = as_subgroup(group)
        self.p = _check_prime(p)
        self.cap = cap
        self.work_cap = work_cap
        comps, _ = detect_components(self.G, declared=components)
        if not comps:
            raise ComponentsUndetectable("group has no components")
        self.components = comps
        orbit_ids = subgroup_orbits(self.G, comps)
        orbits = [[comps[k] for k in orb] for orb in orbit_ids]
        for orb in orbits:
            orb.sort(key=lambda L: int(L.midx[1]))
        orbits.sort(key=lambda orb: int(orb[0].midx[1]))
        if not 0 <= orbit_index < len(orbits):
            raise IndexOutOfRange(
                f"orbit index {orbit_index} out of range ({len(orbits)} orbits)")
        orb = list(orbits[orbit_index])
        if order is not None:
            order = [int(k) for k in order]
            if sorted(order) != list(range(len(orb))):
                raise WrongArity(
                    f"component order must be a permutation of 0..{len(orb) - 1}")
            orb = [orb[k] for k in order]
        self.orbit = orb
        self.t = len(orb)

        H = self.G
        for L in orb:
            H = H.intersection(normalizer(self.G, L))
        self.H = H
        N = orb[0]
        for L in orb[1:]:
            N = subgroup_product(N, L)
        self.N = N

        C = [None] * (self.t + 1)
        C[self.t] = H
        for i in range(self.t - 1, -1, -1):
            C[i] = centralizer(C[i + 1], orb[i])
        self.C = C
        if centralizer(self.G, N).key != C[0].key:
            raise ComponentsUndetectable(
                "centralizer chain does not bottom out at C_G(N); the "
                "components are not a full conjugation orbit")
        for i in range(1, self.t + 1):
            if not orb[i - 1].is_subset_of(C[i]):
                raise ComponentsUndetectable(
                    "a component does not centralize the later components")
        for S in (self.H, self.N, C[0]):
            if not normalizes(self.G, S):
                raise ComponentsUndetectable(
                    "H, N or C_G(N) is not normal; orbit is incomplete")

        self.actions = [None]
        for i in range(1, self.t + 1):
            act = conjugation_action(C[i], orb[i - 1])
            if act.kernel.key != C[i - 1].key:
                raise ComponentsUndetectable(
                    "kernel of the chain action is not the chain predecessor")
            self.actions.append(act)
        self.cent = [None] + [centralizer(H, L) for L in orb]

        self.p_divides_component = orb[0].order % self.p == 0
        self._cache = {}
        # induced-map reports of the maps built here (_map)
        self.results = {}

    def _map(self, source, target, table):
        """A PosetMap built by this context: its induced-map reports go
        in the context's results, so equal maps built here share one."""
        f = PosetMap(source, target, table)
        f.results = self.results
        return f

    # -- posets --------------------------------------------------------------

    def ap_G(self):
        return ap_poset(self.G, self.p, cap=self.cap)

    def ap_H(self):
        return ap_poset(self.H, self.p, cap=self.cap)

    def ap_C(self, i):
        return ap_poset(self.C[i], self.p, cap=self.cap)

    def factor(self, i):
        """Image poset A_i of the chain action of C_i on L_i (1-based)."""
        if not 1 <= i <= self.t:
            raise IndexOutOfRange(f"factor index {i} out of 1..{self.t}")
        key = ("factor", i)
        if key not in self._cache:
            self._cache[key] = image_poset_from_action(
                self.actions[i], self.p, cap=self.cap)
        return self._cache[key]

    # -- the join and its subcomplexes ----------------------------------------

    def join(self):
        if "join" not in self._cache:
            factors = {}
            apc0 = self.ap_C(0)
            if apc0.n:
                factors[0] = apc0
            for i in range(1, self.t + 1):
                fp = self.factor(i).poset
                if fp.n == 0:
                    raise EmptyFactor(
                        f"factor {i} is empty; p does not divide the "
                        f"component order")
                factors[i] = fp
            active = sorted(factors)
            W = [join_posets([factors[j] for j in active if j <= i])
                 for i in range(self.t + 1)]
            sizes = [factors[j].n for j in active]
            ends = np.cumsum(sizes).tolist()
            self._cache["join"] = JoinData(
                X=W[self.t], W=W, active=active, factor_posets=factors,
                factor_of=np.repeat(np.array(active, dtype=np.int64), sizes),
                blocks={j: (e - n, e) for j, n, e in zip(active, sizes, ends)})
        return self._cache["join"]

    def complexes(self):
        """Order complex of X with the K0 and K0hat subcomplexes.

        K0hat (union of stars of one vertex per factor) is verified
        acyclic and to contain K0.  Both are row masks on K(X)'s arrays,
        so their rows stay in the lexicographic order that
        SimplicialComplex.index searches."""
        if "complexes" not in self._cache:
            jd = self.join()
            KX = order_complex(jd.X)
            X = jd.X
            # stars[r, v]: v is, or is comparable to, the r-th base vertex
            stars = np.zeros((len(jd.active), X.n), dtype=bool)
            lo, hi = X.pairs()
            for r, j in enumerate(jd.active):
                b = jd.blocks[j][0]
                stars[r, np.concatenate(([b], hi[lo == b], lo[hi == b]))] = True
            k0_dims, hat_dims = [], []
            for simps in KX.dims:
                f = jd.factor_of[simps]
                touched = np.array([(f == j).any(axis=1) for j in jd.active])
                k0_dims.append(simps[~touched.all(axis=0)])
                hat_dims.append(simps[stars[:, simps].all(axis=2).any(axis=0)])
            K0 = SimplicialComplex(k0_dims)
            K0hat = SimplicialComplex(hat_dims)
            if not K0.is_subcomplex_of(K0hat):
                raise InvariantViolated("K0 is not inside the union of stars")
            bhat = betti_of_complex(K0hat, work_cap=self.work_cap)
            if not bhat.is_zero():
                raise InvariantViolated("union of factor stars is not acyclic")
            self._cache["complexes"] = JoinComplexes(
                KX=KX, K0=K0, K0hat=K0hat, k0hat_betti=bhat)
        return self._cache["complexes"]

    # -- projections -----------------------------------------------------------

    def psi(self, i=None):
        """The projection of the p-subgroup poset of C_i onto W[i].

        E goes to its image in factor k, the largest k <= i with E not
        centralizing L_k, or stays as itself when k = 0.  The equivalent
        description (smallest k with E inside C_k) is checked as an
        array, and the PosetMap constructor checks that the map is
        order-preserving.
        """
        if i is None:
            i = self.t
        key = ("psi", i)
        if key in self._cache:
            return self._cache[key]
        source = self.ap_C(i)
        target = self.join().W[i]
        k = np.zeros(source.n, dtype=np.int64)
        kk = np.full(source.n, i, dtype=np.int64)
        for j in range(1, i + 1):
            k[~membership(source, self.cent[j]).inside()] = j
        for j in range(i - 1, -1, -1):
            kk[membership(source, self.C[j]).inside()] = j
        if not np.array_equal(k, kk):
            raise InvariantViolated("the two descriptions of the "
                                    "projection index disagree")
        table = np.empty(source.n, dtype=np.int64)
        blocks = self.join().blocks
        for j in range(i + 1):
            ids = np.flatnonzero(k == j)
            if not ids.size:
                continue
            members = source.elements.take(ids)
            if j:
                pos = subgroup_ids(self.factor(j).poset,
                                   *self.actions[j].project_family(members))
            else:
                pos = subgroup_ids(self.ap_C(0), *member_csr(members)[1:])
            table[ids] = blocks[j][0] + pos
        self._cache[key] = self._map(source, target, table)
        return self._cache[key]

    # -- transfer maps between mixed joins ---------------------------------------

    def mixed_join(self, i, j):
        """T(i, j): the p-subgroup poset of C_i joined with factors i+1..j.

        T(0, j) is W[j] itself."""
        if i == 0:
            return self.join().W[j]
        if not 1 <= i <= j <= self.t:
            raise IndexOutOfRange(f"mixed join indices ({i}, {j}) invalid")
        key = ("T", i, j)
        if key not in self._cache:
            jd = self.join()
            self._cache[key] = join_posets(
                [self.ap_C(i)]
                + [jd.factor_posets[k] for k in range(i + 1, j + 1)])
        return self._cache[key]

    def phi_step(self, i, j=None):
        """Transfer map T(i, j) -> T(i-1, j): the ambient part either stays
        (inside C_{i-1}, the target's first block) or projects into factor
        i; factor blocks are kept.  Factors i+1..j are the tail of both
        joins, and factor i sits just before the target's tail."""
        if j is None:
            j = i
        if not 1 <= i <= j <= self.t:
            raise IndexOutOfRange(f"transfer map indices ({i}, {j}) invalid")
        key = ("phi", i, j)
        if key in self._cache:
            return self._cache[key]
        source = self.mixed_join(i, j)
        target = self.mixed_join(i - 1, j)
        amb = self.ap_C(i)  # the first block of source, in its order
        factor = self.factor(i).poset
        tail = source.n - amb.n
        stays = membership(amb, self.C[i - 1]).inside()
        up, out = np.flatnonzero(stays), np.flatnonzero(~stays)
        table = np.empty(source.n, dtype=np.int64)
        table[up] = subgroup_ids(self.ap_C(i - 1),
                                 *member_csr(amb.elements.take(up))[1:])
        table[out] = target.n - tail - factor.n + subgroup_ids(
            factor, *self.actions[i].project_family(amb.elements.take(out)))
        table[amb.n:] = target.n - tail + np.arange(tail)
        self._cache[key] = self._map(source, target, table)
        return self._cache[key]


# -- the decomposition along H -------------------------------------------------------


@dataclass
class Decomposition:
    """B = Y u Z: Y the members of the ambient p-subgroup poset meeting H,
    Z those not inside H, Y0 their intersection, V0 the poset of meets
    E n H over Y0, inside the p-subgroup poset AH of H."""
    B: Poset
    Y: Poset
    Z: Poset
    Y0: Poset
    V0: Poset
    AH: Poset
    ids_Y: np.ndarray
    ids_Z: np.ndarray
    ids_Y0: np.ndarray
    ids_V0: np.ndarray
    a: PosetMap
    r: PosetMap
    r0: PosetMap
    b: PosetMap
    trivial: bool
    v0_in_diagonal: bool


def decomposition(ctx):
    if "decomp" in ctx._cache:
        return ctx._cache["decomp"]
    B = ctx.ap_G()
    m = membership(B, ctx.H)
    sizes = m.meet_orders()
    Y, ids_Y = B.induced(np.flatnonzero(sizes > 1))
    Z, ids_Z = B.induced(np.flatnonzero(~m.inside()))
    ids_Y0 = ids_Y[sorted_find(ids_Z, ids_Y)[0]]
    Y0, _ = B.induced(ids_Y0)
    AH = ctx.ap_H()
    # E n H, member by member over Y, are the masked entries
    inY = np.repeat(sizes > 1, np.diff(m.ptr))
    rtab = subgroup_ids(AH, np.concatenate(([0], np.cumsum(sizes[ids_Y]))),
                        m.entries[m.mask & inY])
    r = ctx._map(Y, AH, rtab)
    y0_in_Y = np.searchsorted(ids_Y, ids_Y0)
    ids_V0 = sorted_unique(rtab[y0_in_Y])
    V0, _ = AH.induced(ids_V0)
    a = ctx._map(Y0, Y, y0_in_Y)
    r0 = ctx._map(Y0, V0, np.searchsorted(ids_V0, rtab[y0_in_Y]))
    b = ctx._map(V0, AH, ids_V0)
    trivial = ids_Z.size == 0
    if ctx.t >= 2:
        v0_in_diagonal = bool(np.isin(ids_V0, diagonal_poset(ctx)[2]).all())
    else:
        v0_in_diagonal = ids_V0.size == 0
    ctx._cache["decomp"] = Decomposition(
        B=B, Y=Y, Z=Z, Y0=Y0, V0=V0, AH=AH,
        ids_Y=ids_Y, ids_Z=ids_Z, ids_Y0=ids_Y0, ids_V0=ids_V0,
        a=a, r=r, r0=r0, b=b, trivial=trivial,
        v0_in_diagonal=v0_in_diagonal)
    return ctx._cache["decomp"]


def diagonal_poset(ctx):
    """Members A of the p-subgroup poset of H whose meets with the
    component centralizers coincide for at least two components.

    Returns (poset, inclusion map into the poset of H, ids)."""
    if "diagonal" not in ctx._cache:
        AH = ctx.ap_H()
        masks = [membership(AH, ctx.cent[j]) for j in range(1, ctx.t + 1)]
        # two meets A n C_H(L_j) agree where their masks agree on A
        dup = np.zeros(AH.n, dtype=bool)
        for a, b in combinations(masks, 2):
            dup |= np.logical_and.reduceat(a.mask == b.mask, a.ptr[:-1])
        D, inc = AH.induced(np.flatnonzero(dup))
        dmap = ctx._map(D, AH, inc)
        ctx._cache["diagonal"] = (D, dmap, inc)
    return ctx._cache["diagonal"]


def off_component_subposet(ctx):
    """Members of the p-subgroup poset of H lying inside no single component.

    Returns (poset, inclusion map into the poset of H, ids).  Not the same
    subposet as diagonal_poset: for two components this one is strictly
    larger (it keeps subgroups whose centralizer meets are distinct),
    while for three or more it misses the members of a single component,
    which satisfy the equal-centralizer condition through the other two."""
    if "off-component" not in ctx._cache:
        AH = ctx.ap_H()
        inside = np.any([membership(AH, L).inside() for L in ctx.orbit],
                        axis=0)
        Dc, inc = AH.induced(np.flatnonzero(~inside))
        cmap = ctx._map(Dc, AH, inc)
        ctx._cache["off-component"] = (Dc, cmap, inc)
    return ctx._cache["off-component"]


# the diagonal models of thm410 and `qg diagonal`, by variant name
DIAGONALS = {"formal": diagonal_poset, "off-component": off_component_subposet}

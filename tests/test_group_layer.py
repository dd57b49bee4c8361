"""Differential tests for the bulk group-layer routines.

Each routine is compared with a plain reference kept here: a one-element-
at-a-time BFS for closures and for enumerating a group, the P-classes
that parent-level closures and conjugates reach for the Sylow class
representatives, the definition O_p(N_G(S)) = S with pairwise subset
tests for the radical poset (pinned digests where that is too slow), a
full scan of the ambient for normalizers and centralizers, from-scratch
class closures and joins for normal subgroups, the lattice of normal
subgroups (with a from-scratch derived subgroup) for the component
layer, whose subgroups' gens are closed from scratch too,
np.intersect1d for the decomposition, and a one-element-at-a-time
conjugation BFS for conjugacy classes, and is_subset_of and intersection member by member
for the membership of a whole family.  Conjugation actions are checked
against the group theory they must satisfy: a small tracking set
whatever generators the target carries, faithfulness modulo the kernel
on every elementary abelian subgroup, a homomorphic projection, and
projected images equal to fresh closures of the projected generators.
The work of the radical poset and of component detection is bounded by
a count of rows looked up (and of lookup calls, and Subgroup builds for
sym8's radical poset), and a normalizer's class entry is shared by
equal ambients and looks up no class row when reused.  A class read off a cached conjugate's
entry is compared with a BFS grown from the element itself, and the
normalizers are checked again on a class cache warmed in another order.
The power test x^e = 1, the prime-order class representatives and
is_cyclic are checked against element orders from conftest.perm_order, and
the references take inverses as the argsort of a row, so they share no
table with the group layer.
"""

import hashlib
import sys
from functools import cache

import numpy as np
import pytest

from quillen import groups
from quillen.errors import ActorDoesNotNormalize, CenterHasPTorsion, \
    ComponentsUndetectable, NotAnElement, ParentMismatch, QuillenError
from quillen.groups import PermGroup, Subgroup, _class_closure, \
    _subgroup_class, center, centralizer, close_indices, conjugacy_classes, \
    conjugation_action, detect_components, elementary_abelian_subgroups, \
    hyperelementary_check, is_quasisimple, is_simple, member_csr, \
    minimal_normal_subgroups, normal_subgroups, normalizer, normalizes, \
    p_core, subgroup_product, sylow_subgroup
from quillen.gspec import BUNDLED, load_group
from quillen.perms import parse_cycles
from quillen.pposets import OrbitContext, _is_radical, \
    _p_subgroup_class_reps, ap_poset, bouc_poset, decomposition, \
    image_poset, image_poset_from_action

from conftest import assert_index_size, bundled, element_orders, \
    lookup_row
from relation_oracle import make_poset


def _naive_closure(G, gens):
    seen = {0}
    queue = [0]
    while queue:
        i = queue.pop()
        for g in gens:
            j = lookup_row(G, G.perms[i][G.perms[g]])
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return sorted(seen)


@pytest.mark.parametrize("name", ["sym5", "l34", "a5xa5-e"])
def test_close_indices_matches_naive_bfs(name):
    G = bundled(name).group
    rng = np.random.default_rng(11)
    for _ in range(6):
        gens = rng.integers(0, G.order, size=int(rng.integers(1, 4))).tolist()
        got = close_indices(G, gens)
        assert got.tolist() == _naive_closure(G, [g for g in gens if g])
    assert close_indices(G, [0]).tolist() == [0]
    assert close_indices(G, []).tolist() == [0]


@pytest.mark.parametrize("name", ["sym5", "alt6"])
def test_close_indices_from_a_start(name):
    # start * <gens> as a set, a union of right cosets of the subgroup
    # start, for random start generators (one, then two) and generators
    G = bundled(name).group
    rng = np.random.default_rng(12)
    for k in (1, 1, 1, 1, 2, 2):
        start = close_indices(G, rng.integers(1, G.order, size=k).tolist())
        gens = rng.integers(1, G.order, size=2).tolist()
        # every product a * b, a in start, b in <gens>
        prods = G.perms[start][:, G.perms[_naive_closure(G, gens)]]
        want = np.unique(G.lookup_rows(prods.reshape(-1, G.degree)))
        assert close_indices(G, gens, start=start).tolist() == want.tolist()


def _reference_generate(gen_rows, degree):
    # one product at a time, generator by generator within each level
    ident = np.arange(degree, dtype=np.int16)
    index = {ident.tobytes(): 0}
    gens = []
    for r in np.asarray(gen_rows, dtype=np.int16):
        if r.tobytes() not in index and all(r.tobytes() != g.tobytes()
                                            for g in gens):
            gens.append(r)
    table, frontier = [ident], [0]
    while frontier:
        new = []
        for g in gens:
            for i in frontier:
                r = table[i][g]
                if r.tobytes() not in index:
                    index[r.tobytes()] = len(table)
                    table.append(r)
                    new.append(len(table) - 1)
        frontier = new
    return np.stack(table), tuple(index[g.tobytes()] for g in gens) or (0,)


@pytest.mark.parametrize("name", ["sym5", "l34", "alt8", "a5xa5-exr"])
def test_generate_matches_per_row_loop(name):
    G = bundled(name).group
    rows = G.perms[list(G.gens)]
    # a repeated generator and the identity are dropped, as before
    rows = np.concatenate([rows, rows[:1], G.perms[:1]])
    perms, gens = _reference_generate(rows, G.degree)
    got = PermGroup.generate(rows, G.degree)
    assert got.perms.tobytes() == perms.tobytes()
    assert got.gens == gens
    # the index numbers every row by its position
    assert_index_size(got)
    assert got.lookup_rows(got.perms).tolist() == list(range(got.order))


def test_lookup_rows_batches(sym5):
    G = sym5.group
    for empty in ([], np.empty((0, G.degree), dtype=np.int16)):
        out = G.lookup_rows(empty)
        assert out.dtype == np.int64 and out.size == 0
    # strided and column-major inputs give the same indices
    assert G.lookup_rows(G.perms[::-3]).tolist() == \
        list(range(G.order))[::-3]
    block = np.asfortranarray(G.perms[7:40].astype(np.int64))
    assert G.lookup_rows(block).tolist() == list(range(7, 40))


def test_lookup_of_non_member_is_typed(alt5):
    G = alt5.group
    transposition = np.array([1, 0, 2, 3, 4])
    for call in (lambda: lookup_row(G, transposition),
                 lambda: G.lookup_rows(np.stack([G.perms[3], transposition])),
                 lambda: G.lookup_rows(G.perms[:, :4])):
        with pytest.raises(NotAnElement) as err:
            call()
        assert isinstance(err.value, QuillenError)
    with pytest.raises(NotAnElement, match=r"\[1, 0, 2, 3, 4\]"):
        G.lookup_rows(transposition.reshape(1, -1))


@pytest.mark.parametrize("name", ["sym8", "l34"])
def test_lookup_rows_is_exact(name):
    # sym8 keys a row as one int64 word, l34 (degree 21) as two.  Packing
    # is injective only on entries in [0, degree): an element r with
    # 1 <= r[0] <= n - 2 has rows beside it, with an entry past n or
    # below 0, that pack to r's key, and each is refused, not aliased
    G = bundled(name).group
    n = G.degree
    i = np.flatnonzero((G.perms[:, 0] >= 1) & (G.perms[:, 0] <= n - 2))[0]
    r = G.perms[i]
    above, below = r.copy(), r.copy()
    above[:2] += (-1, n)
    below[:2] += (1, -n)
    for row in (above, below):
        assert (row @ G._words == r @ G._words).all()
    # an entry the cast to int16 would wrap round to r's
    wrapped = r.astype(np.int64)
    wrapped[1] += 1 << 16
    not_a_perm = np.arange(n)
    not_a_perm[1] = 0
    refused = [above, below, wrapped, not_a_perm]
    if name == "l34":
        # a permutation outside the group (sym8 holds every one)
        swap = np.arange(n)
        swap[:2] = (1, 0)
        refused.append(swap)
    for row in refused:
        for batch in ([row], [r, row]):
            with pytest.raises(NotAnElement, match=str(row.tolist())[1:-1]):
                G.lookup_rows(batch)
    assert G.lookup_rows([r, r]).tolist() == [i, i]


def _reference_class_reps(P):
    # the parent-level computation: closures and conjugates in P.group
    G = P.group
    trivial = Subgroup(G, np.array([0], dtype=np.int64), gens=(0,))
    reps, seen, frontier = [trivial], {trivial.key}, [trivial]
    while frontier:
        fresh = []
        for S in frontier:
            if S.order == P.order:
                continue
            smem = set(S.midx.tolist())
            for x in P.midx.tolist():
                if x in smem:
                    continue
                T = G.subgroup(S.generating_set() + (x,))
                if T.key in seen:
                    continue
                seen.add(T.key)
                queue = [T]
                while queue:
                    U = queue.pop()
                    for g in P.generating_set():
                        V = U.conjugate(g)
                        if V.key not in seen:
                            seen.add(V.key)
                            queue.append(V)
                fresh.append(T)
        reps.extend(fresh)
        frontier = fresh
    return reps


def _p_class(P, S):
    """Keys of the P-class of S, by a parent-level conjugation BFS."""
    seen, queue = {S.key}, [S]
    while queue:
        U = queue.pop()
        for g in P.generating_set():
            V = U.conjugate(g)
            if V.key not in seen:
                seen.add(V.key)
                queue.append(V)
    return seen


@pytest.mark.parametrize("name, p", [
    pytest.param(name, 2, id=name)
    for name in ("sym4", "sym6", "d10", "l34", "alt8")] + [
    pytest.param(name, 3, id=f"{name}-p3") for name in ("sym6", "l34")])
def test_class_reps_match_parent_level(name, p):
    # index-p extension picks other representatives than the reference's
    # closures, so the P-classes are compared, not the representatives
    P = sylow_subgroup(bundled(name), p)
    got = _p_subgroup_class_reps(P)
    want = _reference_class_reps(P)
    classes = [_p_class(P, S) for S in got]
    assert sum(map(len, classes)) == len(set().union(*classes))
    assert set().union(*classes) == set().union(
        *(_p_class(P, S) for S in want))
    assert len(got) == len(want)
    for S in got:
        assert P.group.subgroup(S.gens).key == S.key
    assert [S.order for S in got] == sorted(S.order for S in got)


def _oracle_bouc(G, p):
    """The radical poset by its definition: every P-class representative
    S with O_p(N_G(S)) = S, expanded one conjugate at a time, sorted by
    (order, member list), with each member's up-set by pairwise subset
    tests of member sets (relation_oracle.make_poset)."""
    radicals = {}
    for S in _reference_class_reps(sylow_subgroup(G, p)):
        if S.order == 1 or S.key in radicals or \
                p_core(normalizer(G, S), p).key != S.key:
            continue
        radicals[S.key] = S
        queue = [S]
        while queue:
            U = queue.pop()
            for g in G.generating_set():
                V = U.conjugate(g)
                if V.key not in radicals:
                    radicals[V.key] = V
                    queue.append(V)
    elems = sorted(radicals.values(), key=lambda S: (S.order, S.midx.tolist()))
    sets = [set(S.midx.tolist()) for S in elems]
    return make_poset(elems, [[j for j, B in enumerate(sets) if A < B]
                              for A in sets])


@pytest.mark.parametrize("name, p", [
    (name, p) for name in ("sym4", "sym5", "sym6", "alt6", "l34", "a5xa5-e")
    for p in (2, 3)] + [("aut-alt6", 2), ("d10", 5)])
def test_bouc_matches_definition(name, p):
    G = load_group(name).group.full()
    want = _oracle_bouc(G, p)
    got = bouc_poset(G, p)
    assert [S.key for S in got.elements] == [S.key for S in want.elements]
    assert got.ptr.tolist() == want.ptr.tolist()
    assert got.ids.tolist() == want.ids.tolist()
    # the test read off N ∩ P agrees with the p-core of the normalizer on
    # every fully normalized candidate; each candidate it skips is
    # G-conjugate to one it tests
    P = sylow_subgroup(G, p)
    tested, skipped = set(), []
    for S in _p_subgroup_class_reps(P)[1:]:
        radical = _is_radical(G, S, P, p)
        if radical is None:
            skipped.append(S)
        else:
            tested.add(S.key)
            assert radical == (p_core(normalizer(G, S), p).key == S.key)
    assert tested
    for S in skipped:
        members, _ = _subgroup_class(G, S, set())
        assert tested & {M.tobytes() for M in members}


def _reference_sylow(sub, p):
    """sylow_subgroup's growth with the p-power test one element at a time."""
    G = sub.group
    P = G.subgroup([])
    gens = []
    while (sub.order // P.order) % p == 0:
        N = normalizer(sub, P) if P.order > 1 else sub
        for x in N.midx:
            o = int(element_orders(G)[x])
            while o % p == 0:
                o //= p
            if o == 1 and not P.contains_indices(np.array([x]))[0]:
                gens.append(int(x))
                break
        P = G.subgroup(gens)
    return P


@pytest.mark.parametrize("name", ["sym5", "sym6", "aut-alt6", "l34", "alt8",
                                  "a5xa5-e"])
def test_sylow_matches_loop_reference(name):
    G = bundled(name)
    ref = load_group(name).group.full()
    for p in (2, 3, 5, 7):
        if G.order % p == 0:
            got, want = sylow_subgroup(G, p), _reference_sylow(ref, p)
            assert (got.key, got.gens) == (want.key, want.gens), p


def test_sylow_scan_past_its_first_block():
    # l34's least element of order 5 lies past the first block of
    # members sylow_subgroup power tests, so the scan reaches a later one
    G = load_group("l34").group.full()
    fives = np.flatnonzero(element_orders(G.group) == 5)
    assert fives[0] >= groups._SYLOW_BLOCK
    got, want = sylow_subgroup(G, 5), _reference_sylow(G, 5)
    assert (got.key, got.gens) == (want.key, want.gens)
    assert got.gens == (int(fives[0]),)


def _q_prime_parts(n):
    """n with every power of one prime q dividing it removed, per q."""
    parts = []
    for q in (2, 3, 5, 7):
        if n % q == 0:
            m = n
            while m % q == 0:
                m //= q
            parts.append(m)
    return parts


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, n))


@pytest.mark.parametrize("name", ["sym5", "aut-alt6", "l34", "a5xa5-exr"])
def test_power_test_matches_element_orders(name):
    # x^e = 1 exactly when the order of x divides e
    G = bundled(name).group
    orders = element_orders(G)
    for e in [1, 2, 3, 4, 5, 8, 9, G.order] + _q_prime_parts(G.order):
        assert np.array_equal(groups._power_is_identity(G.perms, e),
                              e % orders == 0), e


@pytest.mark.parametrize("name", ["sym5", "aut-alt6", "l34", "a5xa5-exr"])
def test_prime_order_reps_match_element_orders(name):
    G = bundled(name)
    orders = element_orders(G.group)
    assert [int(c[0]) for c in groups._prime_order_classes(G)] == [
        int(c[0]) for c in conjugacy_classes(G) if _is_prime(orders[c[0]])]


def test_is_cyclic():
    def generated(cycles, degree):
        return PermGroup.generate([parse_cycles(c, degree) for c in cycles],
                                  degree).full()

    assert generated(["(1 2)(3 4 5)"], 5).is_cyclic()  # C6
    assert generated([], 3).is_cyclic()
    assert not generated(["(1 2)", "(3 4)"], 4).is_cyclic()  # C2 x C2
    # S3 has exponent 6, its order, and no element of order 6
    S3 = generated(["(1 2)", "(1 2 3)"], 3)
    assert S3.order == 6 and not S3.is_cyclic()
    # Sylow subgroups and centers, against their largest element order
    for name in ("sym5", "aut-alt6", "l34"):
        G = bundled(name)
        orders = element_orders(G.group)
        subs = [center(G)] + [sylow_subgroup(G, p) for p in (2, 3, 5, 7)
                              if G.order % p == 0]
        for S in subs:
            assert S.is_cyclic() == (orders[S.midx].max() == S.order)


def _full_scan_centralizer(ambient, target):
    # every ambient element against every generator of target, a
    # Subgroup, or every element index in target
    G = ambient.group
    P = G.perms[ambient.midx]
    mask = np.ones(ambient.order, dtype=bool)
    tgens = target.generating_set() if isinstance(target, Subgroup) \
        else target
    for t in tgens:
        trow = G.perms[t]
        mask &= np.all(P[:, trow] == trow[P], axis=1)
    return ambient.midx[mask]


def _full_scan_normalizer(ambient, target):
    # every ambient element conjugates every generator of target
    G = ambient.group
    P = G.perms[ambient.midx]
    Pinv = np.argsort(P, axis=1)
    mask = np.ones(ambient.order, dtype=bool)
    for t in target.generating_set():
        conj = np.take_along_axis(P[:, G.perms[t]], Pinv, axis=1)
        mask &= target.contains_indices(G.lookup_rows(conj))
    return ambient.midx[mask]


def _check_normalizers_by_full_scan(name, warm):
    G = load_group(name).group.full()
    A6 = derived_subgroup(G)
    assert A6.order == 360
    P = sylow_subgroup(G, 2)
    reps = _p_subgroup_class_reps(P)
    outside = [S for S in reps if not S.is_subset_of(A6)]
    assert outside  # targets not inside the ambient A6
    trivial = Subgroup(G.group, np.zeros(1, dtype=np.int64), gens=(0,))
    cases = [(amb, S) for amb in (G, A6, P) for S in reps]
    cases += [(amb, T) for amb in (G, A6, P) for T in (trivial, amb)]
    # a first generator central in the ambient: its class is itself
    Z = center(P)
    assert groups._element_class(P, Z.generating_set()[0])[0].size == 1
    cases.append((P, Z))
    # a target meeting its first generator's class in that generator
    # alone: an involution of order 2
    t = next(int(x) for x in P.midx if element_orders(G.group)[x] == 2)
    two = G.group.subgroup([t])
    orbit = groups._element_class(G, t)[0]
    assert orbit.size > 1
    assert orbit[two.contains_indices(orbit)].tolist() == [t]
    cases.append((G, two))
    # every conjugate of two targets: their first generators' classes are
    # derived from the class entry of the first one reached
    four = next(S for S in reps if S.order == 4 and not S.is_cyclic())
    cases += [(G, Subgroup(G.group, M, gens=g)) for S in (two, four)
              for M, g in zip(*_subgroup_class(G, S, set()))]
    if warm:
        # every class entry the cases need is cached before the first
        # check, reached in the opposite order
        for amb, T in cases[::-1]:
            normalizer(amb, T)
    for amb, T in cases:
        got = normalizer(amb, T)
        assert got.gens is None
        assert got.midx.tolist() == _full_scan_normalizer(amb, T).tolist()
        assert centralizer(amb, T).midx.tolist() == \
            _full_scan_centralizer(amb, T).tolist()
        assert normalizes(amb, T) == (got.order == amb.order)
    assert normalizer(A6, trivial).key == A6.key
    assert normalizer(P, P).key == P.key


def test_centralizer_of_indices_matches_full_scan():
    # a proper ambient, and index targets holding the identity, which
    # passes the one-point test x(t(0)) = t(x(0)) for every x, and
    # elements t fixing point 0, for which that test asks that t fix
    # x(0), one inside the ambient and one outside it
    G = load_group("sym6").group.full()
    A6 = derived_subgroup(G)
    assert A6.order == 360
    perms = G.group.perms
    fix0 = np.flatnonzero(perms[:, 0] == 0)[1:]
    inside = A6.contains_indices(fix0)
    t, u = int(fix0[inside][0]), int(fix0[~inside][0])
    v = int(np.flatnonzero(perms[:, 0] != 0)[0])
    for target in ([0], [0, t], [u, 0], [t, v], [0, u, v]):
        got = centralizer(A6, target).midx.tolist()
        assert got == _full_scan_centralizer(A6, target).tolist(), target
        assert 0 < len(got) < A6.order or target == [0]


@pytest.mark.parametrize("name", ["sym6", "aut-alt6"])
def test_normalizer_matches_full_scan(name):
    _check_normalizers_by_full_scan(name, warm=False)


@pytest.mark.parametrize("name", ["sym6", "aut-alt6"])
def test_normalizer_matches_full_scan_on_a_warm_class_cache(name):
    _check_normalizers_by_full_scan(name, warm=True)


@pytest.mark.parametrize("name", ["sym6", "aut-alt6", "l34"])
def test_derived_element_class_matches_a_fresh_bfs(name):
    # each class is grown once from its first member and once from its
    # last; every other member's class is derived from those entries and
    # compared with a BFS grown from the member itself, whose centralizer
    # is centralizer(ambient, [t])
    fresh = load_group(name).group.full()
    G = fresh.group
    for cls in [c for c in conjugacy_classes(fresh)[1:] if c.size <= 400][:3]:
        roots = (int(cls[0]), int(cls[-1]))
        ambients = [load_group(name).group.full() for _ in roots]
        for amb, root in zip(ambients, roots):
            groups._element_class(amb, root)
        for t in cls.tolist():
            fresh._cache.pop("element classes", None)
            want_orbit, _, want_cent = groups._element_class(fresh, t)
            for amb in ambients:
                orbit, trans, cent = groups._element_class(amb, t)
                assert np.sort(orbit).tolist() == np.sort(want_orbit).tolist()
                # x t x^-1 = orbit[k] for the transversal row x of k
                conj = np.take_along_axis(
                    trans, G.perms[t][np.argsort(trans, axis=1)], axis=1)
                assert np.array_equal(conj, G.perms[orbit])
                assert cent.tolist() == want_cent.tolist()
        for amb, root in zip(ambients, roots):
            assert list(amb._cache["element classes"]) == [root]


def test_normalizer_matches_full_scan_on_alt8():
    G = bundled("alt8")
    reps = _p_subgroup_class_reps(sylow_subgroup(G, 2))
    for S in reps[1::5]:
        got = normalizer(G, S)
        assert got.midx.tolist() == _full_scan_normalizer(G, S).tolist()


def _counting_lookups(monkeypatch):
    """Wrap PermGroup.lookup_rows; the list it returns collects each
    batch's row count."""
    rows = []
    lookup = PermGroup.lookup_rows

    def counting(self, batch):
        out = lookup(self, batch)
        rows.append(out.size)
        return out

    monkeypatch.setattr(PermGroup, "lookup_rows", counting)
    return rows


def test_class_entry_is_shared_and_reused(monkeypatch):
    G = load_group("sym6").group.full()
    A6 = derived_subgroup(G)
    # the same subgroup reached by a second route: a fresh Subgroup
    # closed from a generating set
    again = G.group.subgroup(A6.generating_set())
    assert again is not A6 and again.key == A6.key
    P = sylow_subgroup(G, 2)
    t = next(int(x) for x in P.midx
             if element_orders(G.group)[x] == 4
             and A6.contains_indices([x])[0])
    T = G.group.subgroup([t])
    first = normalizer(A6, T)
    assert again._cache["element classes"][t] is \
        A6._cache["element classes"][t]
    # a second call with the same first generator looks up its candidates
    # only, |T ∩ t^A6| * |C_A6(t)| of them, which for a cyclic target
    # are the normalizer's members; no class row is looked up again
    rows = _counting_lookups(monkeypatch)
    second = normalizer(again, T)
    assert second.key == first.key
    assert rows == [first.order]


def test_action_needs_a_normalizing_actor(sym5):
    # a Sylow 2-subgroup of S5 is its own normalizer
    with pytest.raises(ActorDoesNotNormalize, match="normalizer has order 8"):
        conjugation_action(sym5, sylow_subgroup(sym5, 2))


def _generated(G, gens):
    # <gens> from the identity: <gens[:2]>, grown under all of gens
    # (close_indices from a start is checked above)
    start = close_indices(G, gens[:2])
    return Subgroup(G, close_indices(G, gens, start=start))


@cache
def _scratch_closure(sub, x):
    # the closure of x's class in sub from scratch: the class by a
    # one-element-at-a-time conjugation BFS, its members adjoined in
    # ascending order, each one outside K joining the recorded generators
    # and K re-closed from the identity under all of them
    G = sub.group
    gens = []
    K = _generated(G, gens)
    members = set(K.midx.tolist())
    for y in _naive_class(sub, x):
        if y not in members:
            gens.append(y)
            K = _generated(G, gens)
            members = set(K.midx.tolist())
    return Subgroup(G, K.midx, gens=tuple(gens) or (0,))


def derived_subgroup(sub):
    # the commutator subgroup from scratch: the closure of the generators'
    # commutators (ba)^-1 ab, grown by the least conjugate g k g^-1 of one
    # of its generators k under one of sub's g that lies outside it, while
    # there is one
    G = sub.group
    P = G.perms
    sgens = sub.generating_set()
    K = G.subgroup({lookup_row(G, np.argsort(P[b][P[a]])[P[a][P[b]]])
                    for a in sgens for b in sgens})
    while True:
        conj = {lookup_row(G, P[g][P[k]][np.argsort(P[g])])
                for g in sgens for k in K.gens}
        outside = sorted(conj - set(K.midx.tolist()))
        if not outside:
            return K
        K = G.subgroup(K.gens + (outside[0],))


def _reference_normal_subgroups(sub):
    # class closures re-closed from scratch, then every pair joined from
    # scratch; a pair where one contains the other joins to the larger
    found = {}
    for cls in conjugacy_classes(sub):
        K = _scratch_closure(sub, cls[0])
        found.setdefault(K.key, K)
    worklist = list(found.values())
    while worklist:
        A = worklist.pop()
        for B in list(found.values()):
            if A.is_subset_of(B) or B.is_subset_of(A):
                continue
            J = subgroup_product(A, B)
            if J.key not in found:
                found[J.key] = J
                worklist.append(J)
    return sorted(found.values(), key=lambda s: (s.order, s.key))


def _s4_s3_c2():
    # S4 x S3 x C2 on 4 + 3 + 2 points: a lattice of normal subgroups with
    # many pairs neither of which contains the other
    rows = [[1, 0, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 0, 4, 5, 6, 7, 8],
            [0, 1, 2, 3, 5, 4, 6, 7, 8], [0, 1, 2, 3, 5, 6, 4, 7, 8],
            [0, 1, 2, 3, 4, 5, 6, 8, 7]]
    return PermGroup.generate(rows, 9).full()


def _perm_group(rows, degree):
    return PermGroup.generate(rows, degree).full()


def _sl25():
    # SL(2,5) on the 24 nonzero vectors of F_5^2: quasisimple, not simple
    vecs = [(a, b) for a in range(5) for b in range(5) if a or b]
    pos = {v: k for k, v in enumerate(vecs)}

    def act(m):
        return [pos[((m[0] * a + m[1] * b) % 5, (m[2] * a + m[3] * b) % 5)]
                for a, b in vecs]
    return _perm_group([act((1, 1, 0, 1)), act((0, 4, 1, 0))], 24)


def _a5_rows(shift, degree):
    # (0 1 2) and (0 1 2 3 4) on the points shift .. shift + 4
    rows = []
    for cycle in ([0, 1, 2], [0, 1, 2, 3, 4]):
        row = list(range(degree))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            row[shift + a] = shift + b
        rows.append(row)
    return rows


BUILT = {
    "s4xs3xc2": _s4_s3_c2,
    "sl25": _sl25,
    # perfect, not quasisimple
    "a5xa5": lambda: _perm_group(_a5_rows(0, 10) + _a5_rows(5, 10), 10),
    # not perfect
    "a5xc2": lambda: _perm_group(
        _a5_rows(0, 7) + [[0, 1, 2, 3, 4, 6, 5]], 7),
    # a transposition closes to a subgroup of index 3, not normal
    "sym3": lambda: _perm_group([[1, 0, 2], [1, 2, 0]], 3),
    # simple, and its smallest nontrivial member (0 1 2 3)(4 5) has
    # order 4, so the first prime-order class is not the first class
    "a6": lambda: _perm_group([[1, 2, 3, 0, 5, 4], [1, 2, 3, 4, 0, 5]], 6),
    # Q8, regular on 1, i, j, k, -1, -i, -j, -k as the points 0..7, by
    # left multiplication by i and j: nonabelian and not perfect, with
    # derived subgroup {1, -1}, its center
    "q8": lambda: _perm_group([[1, 4, 3, 6, 5, 0, 7, 2],
                               [2, 7, 4, 1, 6, 3, 0, 5]], 8),
}


@cache
def _reference(name):
    # one object per permutation group, apart from the routes' objects,
    # so the lattice shares no cache with them; a8-in-s8 is sym8
    if name == "a8-in-s8":
        ref = _reference("sym8")
        assert load_group(name).group.perms.tobytes() == \
            ref.group.perms.tobytes()
        return ref
    return BUILT[name]() if name in BUILT else load_group(name).group.full()


@pytest.mark.parametrize("name", ["sym5", "aut-alt6", "a5xa5-exr", "s4xs3xc2"])
def test_normal_subgroups_match_scratch_joins(name):
    sub = _reference(name)
    got = normal_subgroups(sub)
    want = _reference_normal_subgroups(sub)
    assert [(N.key, N.gens) for N in got] == [(N.key, N.gens) for N in want]


def _lattice_minimal_normals(sub):
    normals = [N for N in normal_subgroups(sub) if N.order > 1]
    return [N for N in normals
            if not any(M.order < N.order and M.is_subset_of(N)
                       for M in normals)]


def _lattice_is_simple(sub):
    return sub.order > 1 and len(normal_subgroups(sub)) == 2


def _lattice_is_quasisimple(sub):
    if sub.order == 1 or derived_subgroup(sub).order != sub.order:
        return False
    Z = center(sub)
    return all(N.order == sub.order or N.is_subset_of(Z)
               for N in normal_subgroups(sub))


def _lattice_components(sub):
    comps = []
    for M in _lattice_minimal_normals(sub):
        if M.is_abelian():
            continue
        comps.extend([M] if _lattice_is_simple(M)
                     else _lattice_minimal_normals(M))
    return sorted(comps, key=lambda c: (c.order, c.key))


def _keys(subs):
    return [S.key for S in subs]


def _generated_by_gens(S):
    # S's gens close, from scratch, to exactly S's members
    return _naive_closure(S.group, [g for g in S.gens if g]) == S.midx.tolist()


@pytest.mark.parametrize("name", BUNDLED + sorted(BUILT))
def test_component_layer_matches_the_lattice(name):
    got = BUILT[name]() if name in BUILT else bundled(name)
    want = _reference(name)
    minimals = minimal_normal_subgroups(got)
    assert _keys(minimals) == _keys(_lattice_minimal_normals(want))
    assert all(map(_generated_by_gens, minimals))
    if name == "sl25":
        # its one component is the whole group, which lies over its center
        # {1, -1}, the one minimal normal subgroup: detection cannot see it
        with pytest.raises(ComponentsUndetectable):
            detect_components(got)
        assert detect_components(got, declared=[got])[0] == [got]
        comps = []
    else:
        comps = detect_components(got)[0]
        assert _keys(comps) == _keys(_lattice_components(want))
        assert all(map(_generated_by_gens, comps))
    # the group, its minimal normal subgroups and its components
    refs = {T.key: T for T in [want] + _lattice_minimal_normals(want)
            + _lattice_components(want)}
    for S in [got] + minimals + comps:
        T = refs[S.key]
        assert is_simple(S) == _lattice_is_simple(T)
        assert is_quasisimple(S) == _lattice_is_quasisimple(T)
    if name in ("sym4", "d10"):
        with pytest.raises(ComponentsUndetectable, match="no components"):
            OrbitContext(got, 2)


def test_component_layer_cases():
    # the built groups fall on the intended sides of each route
    groups = {name: build() for name, build in BUILT.items()}
    verdicts = {name: (is_simple(G), is_quasisimple(G))
                for name, G in groups.items()}
    assert verdicts == {"s4xs3xc2": (False, False), "sl25": (False, True),
                        "a5xa5": (False, False), "a5xc2": (False, False),
                        "sym3": (False, False), "a6": (True, True),
                        "q8": (False, False)}
    assert groups["a6"].order == 360
    assert element_orders(groups["a6"].group)[1] == 4
    assert derived_subgroup(groups["a5xa5"]).order == 3600
    assert derived_subgroup(groups["a5xc2"]).order == 60
    # Q8 is nonabelian with G' = Z(G) of order 2: not perfect, which its
    # noncentral classes show, each closing to a cyclic subgroup of order 4
    Q8 = groups["q8"]
    assert Q8.order == 8 and not Q8.is_abelian()
    assert derived_subgroup(Q8).key == center(Q8).key
    assert center(Q8).order == 2
    assert {_class_closure(Q8, c).order for c in conjugacy_classes(Q8)
            if c.size > 1} == {4}


def test_image_poset_refuses_a_center_with_p_torsion():
    # Z(SL(2,5)) = {1, -1}: images in Aut(L) describe L's p-subgroups only
    # when p does not divide |Z(L)|
    L = _reference("sl25")
    assert center(L).order == 2
    with pytest.raises(CenterHasPTorsion, match="2-torsion"):
        image_poset(L, L, 2)
    # its six Sylow 5-subgroups map to the six of Inn(L) = A5
    ip = image_poset(L, L, 5)
    assert (ip.source.n, ip.poset.n) == (6, 6)


def test_trivial_conjugation_action_has_image_of_order_one(sym5):
    # N(<(1 2)>) centralizes it: the tracking set is empty, so the image
    # is generated on no points
    L = sym5.group.subgroup_from_rows([parse_cycles("(1 2)", 5)])
    act = conjugation_action(normalizer(sym5, L), L)
    assert act.tracking.size == 0
    assert (act.image.order, act.image.degree) == (1, 0)
    assert act.kernel.order == 12


def test_image_poset_of_a_trivially_acted_p_group_is_refused(sym5):
    # <(1 2)> is its own center, of order 2: a typed refusal, not a
    # failure to build the order-one image
    L = sym5.group.subgroup_from_rows([parse_cycles("(1 2)", 5)])
    with pytest.raises(CenterHasPTorsion, match="2-torsion"):
        image_poset(sym5, L, 2)


# a8-in-s8 has the permutation group of sym8 (see _reference)
@pytest.mark.parametrize(
    "name", [n for n in BUNDLED if n != "a8-in-s8"] + sorted(BUILT))
def test_normal_closure_matches_scratch(name):
    sub = _reference(name)
    for cls in conjugacy_classes(sub):
        got = _class_closure(sub, cls)
        want = _scratch_closure(sub, cls[0])
        assert (got.key, got.gens) == (want.key, want.gens)


def test_component_detection_row_count(monkeypatch):
    # a count of rows looked up, so it does not depend on the host's load;
    # closing every class and joining the closures looked up 5 580 000,
    # the closures of every prime-order class of G and of M = A5 x A5,
    # with all of G's and M's elements labelled into classes, 270 380;
    # prime-order elements labelled alone, and M split from the closure
    # of its smallest class and that factor's conjugates, 106 081
    G = load_group("a5xa5-exr").group.full()
    rows = _counting_lookups(monkeypatch)
    detect_components(G)
    assert sum(rows) <= 150_000
    # lookup calls: closing each prime-order class by normal_closure's
    # conjugation loop, and re-closing each minimal normal subgroup and
    # factor by its smallest member, made 1 366; each class closed by
    # adjoining its own members, and the factors read off their class's
    # rows, 1 100
    assert len(rows) <= 1_200


def test_radical_poset_row_count(monkeypatch):
    # a count of rows looked up, so it does not depend on the host's load;
    # a full scan of the ambient per target generator looked up 6 194 659,
    # a Sylow subgroup regrown for each candidate's p-core 279 527, the
    # p-cores read off N ∩ P of fully normalized candidates 247 851, and
    # normalizers that look up only their members 190 627, then 170 467
    # after later changes to the group layer; conjugates dropped by
    # their images of the points 0 and 1 before the lookup, with each
    # radical class's conjugates looked up once, 121 409
    G = load_group("l34").group.full()
    rows = _counting_lookups(monkeypatch)
    bouc_poset(G, 2)
    assert sum(rows) <= 130_000


def test_radical_poset_row_count_alt8(monkeypatch):
    # a scan of the whole ambient for each normalizer's first target
    # generator looked up 2 487 911 rows; cosets of that generator's
    # centralizer, one per conjugate in the target, look up 485 233, the
    # p-cores read off N ∩ P of fully normalized candidates 371 854, and
    # normalizers that look up only their members 327 808, then 307 648
    # after later changes to the group layer; conjugates dropped by
    # their images of the points 0 and 1 before the lookup, with each
    # radical class's conjugates looked up once, 141 702
    G = load_group("alt8").group.full()
    rows = _counting_lookups(monkeypatch)
    bouc_poset(G, 2)
    assert sum(rows) <= 155_000


def test_radical_poset_row_count_sym8(monkeypatch):
    # normalizers that look up every conjugate of a later target
    # generator, and radical classes grown by looking up every member
    # row's conjugates, looked up 533 269 rows; conjugates dropped by
    # their images of the points 0 and 1 first, and each element's
    # conjugate looked up once per class, 312 521
    G = load_group("sym8").group.full()
    rows = _counting_lookups(monkeypatch)
    bouc_poset(G, 2)
    assert sum(rows) <= 330_000


def test_radical_poset_lookup_calls_sym8(monkeypatch):
    # closing each class representative, regrowing a Sylow subgroup per
    # candidate and conjugating each radical member on its own made
    # 16 281 calls; index-p extensions, p-cores read off N ∩ P and one
    # batch per level of each radical class make 3 558, then 2 717
    # after later changes to the group layer; the Sylow subgroup grown
    # from its own members, 2 648
    G = load_group("sym8").group.full()
    rows = _counting_lookups(monkeypatch)
    bouc_poset(G, 2)
    assert len(rows) <= 2_780


def test_hyperelementary_lookup_calls_alt8(monkeypatch):
    # O^q closed with every q'-element of Alt(8) as a generator made
    # 43 197 calls over 290 283 840 rows; grown from the identity by
    # adjoining only the q'-elements outside it, 158 calls
    G = load_group("alt8").group.full()
    rows = _counting_lookups(monkeypatch)
    cyclic, ev = hyperelementary_check(G, 7)
    assert (cyclic, ev["oq_order"], ev["index"]) == (False, 20160, 1)
    assert len(rows) <= 250


def test_normal_subgroups_lookup_calls_aut_alt6(monkeypatch):
    # each join AB of two normal subgroups grown from A's members under
    # both groups' generators made 865 calls; under B's alone, 793
    G = load_group("aut-alt6").group.full()
    rows = _counting_lookups(monkeypatch)
    assert len(normal_subgroups(G)) == 6
    assert len(rows) <= 833


def test_radical_poset_subgroup_builds_sym8(monkeypatch):
    # a count of Subgroup builds, by the function that builds each; with
    # one Subgroup per radical member, 2 153 in all, 926 of them in the
    # class growth; the classes grown as rows build none there
    G = load_group("sym8").group.full()
    callers = []
    init = Subgroup.__init__

    def spy(self, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Subgroup, "__init__", spy)
    bouc_poset(G, 2)
    assert callers.count("_subgroup_class") == 0
    assert len(callers) <= 1_300


# sha256 of the member CSR (ptr, entries), the order's (ptr, ids) and
# each order block's gens rows, as int64 bytes, of the bundled radical
# posets _oracle_bouc does not reach, computed before normalizers dropped
# conjugates by two points and classes looked each conjugate up once
RADICAL_DIGESTS = {
    "sym8": "4561a085d9291e8011979312466a64c60fe6714d5c0ecf572047aa21429df0c0",
    "alt8": "9868bd226c15762013b6fa105ca83abe98585714d274a2eb9af86365cf9282e9",
    "a5xa5-exr":
        "2aa7736f55be43d3c2179c68b996b271fa05835d6810f8107340b12e4f7f21c4",
}


@pytest.mark.parametrize("name", sorted(RADICAL_DIGESTS))
def test_radical_poset_digest(name):
    P = bouc_poset(bundled(name), 2)
    digest = hashlib.sha256()
    for a in (*member_csr(P)[1:], P.ptr, P.ids,
              *(gens for _, gens, _ in P.elements.blocks)):
        digest.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    assert digest.hexdigest() == RADICAL_DIGESTS[name]


def test_decomposition_matches_intersect1d(worked_ctx):
    ctx = worked_ctx
    dec = decomposition(ctx)
    H = ctx.H
    inY, inZ, meets = [], [], {}
    for idx, E in enumerate(dec.B.elements):
        m = np.intersect1d(E.midx, H.midx, assume_unique=True)
        if m.size > 1:
            inY.append(idx)
            meets[idx] = m
        if m.size < E.order:
            inZ.append(idx)
    assert dec.ids_Y.tolist() == inY
    assert dec.ids_Z.tolist() == inZ
    assert dec.ids_Y0.tolist() == np.intersect1d(inY, inZ).tolist()
    index = {E.key: i for i, E in enumerate(dec.AH.elements)}
    rtab = [index[meets[o].tobytes()] for o in inY]
    assert dec.r.table.tolist() == rtab


def _naive_class(sub, x):
    # x's class under sub, ascending, one conjugate looked up at a time
    G = sub.group
    # each generator's row with its inverse, the row's argsort
    gens = [(G.perms[g], np.argsort(G.perms[g]))
            for g in sub.generating_set()]
    orbit = {int(x)}
    queue = [int(x)]
    while queue:
        y = queue.pop()
        for g, ginv in gens:
            z = lookup_row(G, g[G.perms[y]][ginv])  # g y g^-1
            if z not in orbit:
                orbit.add(z)
                queue.append(z)
    return sorted(orbit)


def _naive_classes(sub):
    seen = set()
    classes = []
    for x in sub.midx.tolist():
        if x not in seen:
            classes.append(_naive_class(sub, x))
            seen.update(classes[-1])
    return classes


@pytest.mark.parametrize("name", ["sym5", "aut-alt6", "l34", "a5xa5-exr"])
def test_conjugacy_classes_match_naive_bfs(name):
    sub = bundled(name)
    assert [c.tolist() for c in conjugacy_classes(sub)] == _naive_classes(sub)


def _even_permutations(G):
    P = G.perms.astype(np.int64)
    inversions = sum((P[:, i] > P[:, j]).astype(np.int64)
                     for i in range(G.degree) for j in range(i + 1, G.degree))
    return Subgroup(G, np.flatnonzero(inversions % 2 == 0))


def test_tracking_set_does_not_depend_on_target_generators():
    # A8 carrying no generators, and A8 as a8-in-s8 declares it
    S8 = bundled("sym8")
    bundle = load_group("a8-in-s8")
    for G, A8 in [(S8, _even_permutations(S8.group)),
                  (bundle.group.full(), bundle.components[0])]:
        assert A8.order == 20160
        act = conjugation_action(G, A8)
        assert act.tracking.size <= 112
        assert act.image.order == 40320
        assert act.kernel.order == 1


def _chain_actions():
    for name in ["sym5", "aut-alt6", "a5xa5-exr"]:
        ctx = OrbitContext(bundled(name), 2)
        yield from ((name, i, act) for i, act in enumerate(ctx.actions)
                    if act is not None)


def test_chain_actions_are_faithful_modulo_the_kernel():
    steps = set()
    for name, i, act in _chain_actions():
        steps.add((name, i))
        elab = elementary_abelian_subgroups(act.actor, 2)
        ptr, _ = act.project_family(elab)
        for E, size in zip(elab, np.diff(ptr)):
            assert size * E.intersection(act.kernel).order == E.order
    assert ("a5xa5-exr", 1) in steps and ("a5xa5-exr", 2) in steps


def test_projected_images_match_a_fresh_closure(monkeypatch):
    # psi, phi_step and image_poset_from_action project their members in
    # batches; each image, the set of its members' images, is the one a
    # fresh closure of the projected generators gives
    calls = []
    project_family = groups.ConjugationAction.project_family

    def spy(act, family):
        calls.append((act, family, project_family(act, family)))
        return calls[-1][2]

    monkeypatch.setattr(groups.ConjugationAction, "project_family", spy)
    ctx = OrbitContext(bundled("a5xa5-exr"), 2)
    for i in range(ctx.t + 1):
        ctx.psi(i)
    for i in range(1, ctx.t + 1):
        ctx.phi_step(i)
    for act in ctx.actions:
        if act is not None:
            image_poset_from_action(act, 2)
    assert {id(act) for act, _, _ in calls} == {id(a) for a in ctx.actions[1:]}
    checked = set()
    for act, family, (ptr, entries) in calls:
        assert len(ptr) == len(groups.member_csr(family)[1])
        members = getattr(family, "elements", family)
        for E, a, b in zip(members, ptr[:-1], ptr[1:]):
            if (id(act), E.key) in checked:
                continue
            checked.add((id(act), E.key))
            fresh = act.image.subgroup(act.project(E.generating_set()))
            assert entries[a:b].tobytes() == fresh.key
    assert len(checked) > 2000


def test_projection_is_a_homomorphism():
    rng = np.random.default_rng(5)
    for _, _, act in _chain_actions():
        G, img = act.actor.group, act.image
        a, b = rng.choice(act.actor.midx, size=(2, 50))
        ab = G.lookup_rows(np.take_along_axis(G.perms[a], G.perms[b], axis=1))
        pa, pb = act.project(a), act.project(b)
        assert act.project(ab).tolist() == img.lookup_rows(np.take_along_axis(
            img.perms[pa], img.perms[pb], axis=1)).tolist()


@pytest.mark.parametrize("name,p,poset", [
    ("sym5", 2, ap_poset), ("alt6", 2, ap_poset), ("alt6", 3, ap_poset),
    ("a5xa5-exr", 2, ap_poset), ("sym6", 2, bouc_poset)],
    ids=["A2-sym5", "A2-alt6", "A3-alt6", "A2-a5xa5-exr", "radical2-sym6"])
def test_membership_matches_subset_and_intersection(name, p, poset):
    G = bundled(name)
    P = poset(G, p)
    ctx = OrbitContext(G, p)
    rng = np.random.default_rng(22)
    Ks = [ctx.H, *ctx.C, *ctx.orbit]
    Ks += [G.group.subgroup(rng.choice(G.midx, size=k).tolist())
           for k in (1, 1, 2, 2)]
    for K in Ks:
        m = groups.membership(P, K)
        inside, orders = m.inside(), m.meet_orders()
        meets = np.split(m.entries[m.mask], np.cumsum(orders)[:-1])
        for i, E in enumerate(P.elements):
            meet = E.intersection(K)
            assert bool(inside[i]) == E.is_subset_of(K)
            assert orders[i] == meet.order
            assert meets[i].tolist() == meet.midx.tolist()
    # the member CSR is built once per poset
    assert groups.membership(P, Ks[0]).ptr is m.ptr


def test_membership_rejects_another_group(sym5, alt6):
    P = ap_poset(sym5, 2)
    with pytest.raises(ParentMismatch):
        groups.membership(P, alt6)
    with pytest.raises(ParentMismatch):
        groups.membership([P.elements[0], ap_poset(alt6, 2).elements[0]],
                          sym5)

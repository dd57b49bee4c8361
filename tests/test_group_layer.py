"""Differential tests for the bulk group-layer routines.

Each routine is compared with a plain reference kept here: a one-element-
at-a-time BFS for closures, parent-level closures and conjugates for the
Sylow class representatives, np.intersect1d for the decomposition, and a
one-element-at-a-time conjugation BFS for conjugacy classes.  Conjugation
actions are checked against the group theory they must satisfy: a small
tracking set whatever generators the target carries, faithfulness modulo
the kernel on every elementary abelian subgroup, and a homomorphic
projection.
"""

import numpy as np
import pytest

from quillen.errors import NotAnElement, QuillenError
from quillen.groups import Subgroup, close_indices, conjugacy_classes, \
    conjugation_action, elementary_abelian_subgroups, sylow_subgroup
from quillen.gspec import load_group
from quillen.pposets import OrbitContext, _p_subgroup_class_reps, \
    decomposition

from conftest import bundled


def _naive_closure(G, gens):
    seen = {0}
    queue = [0]
    while queue:
        i = queue.pop()
        for g in gens:
            j = G.lookup_row(G.perms[i][G.perms[g]])
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
    for call in (lambda: G.lookup_row(transposition),
                 lambda: G.lookup_rows(np.stack([G.perms[3], transposition])),
                 lambda: G.lookup_rows(G.perms[:, :4])):
        with pytest.raises(NotAnElement) as err:
            call()
        assert isinstance(err.value, QuillenError)
    with pytest.raises(NotAnElement, match=r"\[1, 0, 2, 3, 4\]"):
        G.lookup_rows(transposition.reshape(1, -1))


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


@pytest.mark.parametrize("name", ["sym4", "sym6", "d10"])
def test_class_reps_match_parent_level(name):
    P = sylow_subgroup(bundled(name), 2)
    got = _p_subgroup_class_reps(P)
    want = _reference_class_reps(P)
    assert {S.key for S in got} == {S.key for S in want}
    assert [(S.key, S.gens) for S in got] == [(S.key, S.gens) for S in want]


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
    rtab = [dec.AH.index[Subgroup(ctx.G.group, meets[o])] for o in inY]
    assert dec.r.table.tolist() == rtab


def _naive_classes(sub):
    G = sub.group
    gens = sub.generating_set()
    seen = set()
    classes = []
    for x in sub.midx.tolist():
        if x in seen:
            continue
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g in gens:
                z = G.compose(G.compose(g, y), int(G.inv[g]))
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        seen |= orbit
        classes.append(sorted(orbit))
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
        for E in elementary_abelian_subgroups(act.actor, 2):
            assert (act.project_subgroup(E).order
                    * E.intersection(act.kernel).order == E.order)
    assert ("a5xa5-exr", 1) in steps and ("a5xa5-exr", 2) in steps


def test_projection_is_a_homomorphism():
    rng = np.random.default_rng(5)
    for _, _, act in _chain_actions():
        G = act.actor.group
        for _ in range(50):
            a, b = rng.choice(act.actor.midx, size=2).tolist()
            assert act.project_index(G.compose(a, b)) == act.image.compose(
                act.project_index(a), act.project_index(b))

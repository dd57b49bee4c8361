import hashlib
import itertools
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quillen import homology
from quillen.checkers import _cor51_component_map
from quillen.errors import InvariantViolated, MatrixCapExceeded
from quillen.groups import member_csr
from quillen.gspec import load_group
from quillen.homology import RawComplex, _core, _morse_pairs, \
    _rank_profile, _replay_pairs, _residue, betti_of_complex, \
    betti_of_poset, betti_of_raw, chain_map_from_poset_map, \
    cone_rank_profile, induced_map, kunneth_check, mapping_cone, \
    sparse_rank
from quillen.posets import Poset, PosetMap, SimplicialComplex, \
    beat_point_core, join_posets, order_complex
from quillen.pposets import OrbitContext, ap_poset, bouc_poset, \
    diagonal_poset, off_component_subposet, subgroup_ids

from conftest import bundled
from mv_oracle import NotACover, mv_rank_audit
from rank_oracle import csr, dense_rank, induced_ranks
from simplex_oracle import dict_boundary, dict_chain_map, \
    tuple_chains, tuple_dims


def antichain(n):
    return Poset(list(range(n)), [0] * (n + 1), [])


def test_betti_ap_small():
    # the four standing small cases
    assert betti_of_poset(ap_poset(bundled("sym4"), 2)).is_zero()
    bv = betti_of_poset(ap_poset(bundled("alt5"), 2))
    assert (bv.get(0), bv.get(1)) == (4, 0)
    bv = betti_of_poset(ap_poset(bundled("sym5"), 2))
    assert (bv.get(0), bv.get(1)) == (0, 16)
    bv = betti_of_poset(ap_poset(bundled("d10"), 2))
    assert bv.get(0) == 4


def test_betti_bouc_small():
    B = bouc_poset(bundled("sym4"), 2)
    assert B.n == 4
    assert betti_of_poset(B).is_zero()
    B = bouc_poset(bundled("sym5"), 2)
    assert B.n == 30
    bv = betti_of_poset(B)
    assert (bv.get(0), bv.get(1)) == (0, 16)
    B = bouc_poset(bundled("sym5"), 3)
    assert B.reduced_euler() == 9
    assert betti_of_poset(B).get(0) == 9


def test_spheres_by_joins():
    # n-fold join of two-point antichains is an (n-1)-sphere
    s0 = antichain(2)
    assert betti_of_poset(s0).get(0) == 1
    s1 = join_posets([s0, antichain(2)])
    bv = betti_of_poset(s1)
    assert (bv.get(0), bv.get(1)) == (0, 1)
    s2 = join_posets([s1, antichain(2)])
    bv = betti_of_poset(s2)
    assert (bv.get(0), bv.get(1), bv.get(2)) == (0, 0, 1)


def test_empty_poset():
    E = antichain(0)
    bv = betti_of_poset(E)
    assert bv.minus1 == 1
    assert bv.chi == -1
    assert bv.top_degree() == -1


def test_zero_vector_top_degree():
    bv = betti_of_poset(ap_poset(bundled("sym4"), 2))
    assert bv.top_degree() is None


def test_kunneth_including_empty():
    rep = kunneth_check(antichain(3), antichain(2))
    assert rep.ok
    rep = kunneth_check(antichain(0), antichain(2))
    assert rep.ok
    rep = kunneth_check(ap_poset(bundled("sym4"), 2),
                        ap_poset(bundled("alt5"), 2))
    assert rep.ok


def test_induced_identity(ap2_sym5):
    f = PosetMap(ap2_sym5, ap2_sym5, np.arange(ap2_sym5.n, dtype=np.int64))
    rep = induced_map(f)
    assert rep.ranks == induced_ranks(f)
    assert rep.rank(1) == 16
    assert rep.mono_through(1) and rep.epi_through(1)
    assert not rep.is_zero()


def test_induced_zero_inclusion(sym5, ap2_sym5):
    from quillen.groups import detect_components
    comps, _ = detect_components(sym5)
    apA = ap_poset(comps[0], 2)
    f = PosetMap(apA, ap2_sym5,
                 subgroup_ids(ap2_sym5, *member_csr(apA)[1:]))
    rep = induced_map(f)
    assert rep.ranks == induced_ranks(f)
    assert rep.is_zero()
    assert rep.source_betti.get(0) == 4
    assert rep.target_betti.get(1) == 16


def test_induced_collapse_to_point():
    P = antichain(3)
    Q = antichain(1)
    f = PosetMap(P, Q, np.zeros(P.n, dtype=np.int64))
    rep = induced_map(f)
    assert rep.ranks == induced_ranks(f)
    assert rep.is_zero()


_hosts = {}


def host_poset(name):
    if name not in _hosts:
        if name == "join":
            _hosts[name] = join_posets([antichain(2), antichain(3),
                                        antichain(2)])
        else:
            _hosts[name] = ap_poset(bundled(name), 2)
    return _hosts[name]


@st.composite
def subposet_inclusions(draw):
    """Inclusion S -> T of random induced subposets S within T of a host."""
    P = host_poset(draw(st.sampled_from(("sym4", "sym5", "d10", "join"))))
    tids = draw(st.lists(st.integers(0, P.n - 1), unique=True,
                         max_size=min(P.n, 24)))
    sids = draw(st.lists(st.sampled_from(tids), unique=True)) if tids else []
    T, incT = P.induced(tids)
    S, incS = P.induced(sids)
    pos = {int(o): k for k, o in enumerate(incT)}
    return PosetMap(S, T, [pos[int(o)] for o in incS])


@settings(max_examples=60, deadline=None)
@given(subposet_inclusions())
def test_induced_matches_oracle_on_inclusions(f):
    assert induced_map(f).ranks == induced_ranks(f)


@st.composite
def non_injective_maps(draw):
    """(kind, f) on a random induced subposet S of a host: "retract" is
    i∘r : S -> S, the retraction onto S's beat-point core followed by the
    inclusion; "constant" sends S to a one-point poset."""
    P = host_poset(draw(st.sampled_from(("sym4", "sym5", "d10", "join"))))
    ids = draw(st.lists(st.integers(0, P.n - 1), unique=True,
                        max_size=min(P.n, 24)))
    S, _ = P.induced(ids)
    if draw(st.booleans()):
        _, inc, ret = beat_point_core(S)
        return "retract", PosetMap(S, S, inc[ret])
    return "constant", PosetMap(S, antichain(1), np.zeros(S.n, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(non_injective_maps())
def test_induced_matches_oracle_on_non_injective_maps(case):
    kind, f = case
    rep = induced_map(f)
    assert rep.ranks == induced_ranks(f)
    if kind == "retract":
        # i∘r is homotopic to the identity: an isomorphism in every degree
        assert all(r == rep.source_betti.get(k) == rep.target_betti.get(k)
                   for k, r in rep.ranks.items())
    else:
        assert rep.is_zero()


def full_complex_map(f):
    """(ranks, source Betti, target Betti) of f on the full order
    complexes, with no beat-point core: the reference for induced_map."""
    KS, KT = order_complex(f.source), order_complex(f.target)
    rawS = RawComplex.from_simplicial(KS)
    rawT = RawComplex.from_simplicial(KT)
    bS, bT = betti_of_raw(rawS), betti_of_raw(rawT)
    ranks = cone_rank_profile(rawS, rawT,
                              chain_map_from_poset_map(f.table, KS, KT),
                              bS, bT)
    return ranks, bS, bT


def checker_maps(ctx):
    """The maps the criteria take homology of: psi_i, phi_i, the two
    diagonal inclusions and cor51's aut-H maps."""
    maps = {f"psi{i}": ctx.psi(i) for i in range(ctx.t + 1)}
    maps.update({f"phi{i}": ctx.phi_step(i) for i in range(1, ctx.t + 1)})
    maps["thm410-formal"] = diagonal_poset(ctx)[1]
    maps["thm410-off-component"] = off_component_subposet(ctx)[1]
    maps.update({f"aut-H{i}": _cor51_component_map(ctx, i, "aut-H")[0]
                 for i in range(1, ctx.t + 1)})
    return maps


@pytest.mark.parametrize("name", ["sym6", "aut-alt6", "a5xa5-e"])
def test_core_route_matches_full_complexes(name):
    for label, f in checker_maps(OrbitContext(bundled(name), 2)).items():
        rep = induced_map(f)
        ranks, bS, bT = full_complex_map(f)
        assert rep.ranks == ranks, label
        top = max(len(bS.tilde), len(bT.tilde))
        for b, ref in ((rep.source_betti, bS), (rep.target_betti, bT)):
            assert [b.get(k) for k in range(-1, top)] == \
                [ref.get(k) for k in range(-1, top)], label


def test_ranks_padded_to_the_poset_height(sym4):
    # the degree-4 symmetric group's poset has height 1 and a point as core
    P = ap_poset(sym4, 2)
    assert _core(P)[0].n == 1 and P.height() == 1
    rep = induced_map(PosetMap(P, P, np.arange(P.n)))
    assert rep.ranks == {-1: 0, 0: 0, 1: 0}


def test_induced_map_builds_core_complexes_only(monkeypatch):
    ctx = OrbitContext(bundled("sym6"), 2)
    psi = ctx.psi()
    cores = {_core(psi.source)[0].n, _core(psi.target)[0].n}
    assert psi.source.n not in cores
    built = []

    def spy(P, *args, **kwargs):
        built.append(P.n)
        return order_complex(P, *args, **kwargs)

    monkeypatch.setattr(homology, "order_complex", spy)
    induced_map(psi)
    assert built and set(built) <= cores


def test_dd_zero_and_euler(ap2_sym5):
    K = order_complex(ap2_sym5)
    raw = RawComplex.from_simplicial(K)
    raw.verify_dd_zero()
    assert raw.euler() == K.reduced_euler()


def test_dd_zero_is_checked_on_every_column():
    # two vertices and 4 001 edges v0 - v1, but edge 1 is v0 + v1: a check
    # sampling every other column passes it
    edges = [[(0, 1), (1, -1)]] * 4001
    edges[1] = [(0, 1), (1, 1)]
    raw = RawComplex({-1: 1, 0: 2, 1: 4001},
                     {0: csr([[(0, 1)], [(0, 1)]]), 1: csr(edges)})
    with pytest.raises(InvariantViolated, match="boundary composite nonzero "
                       "at degree 1, column 1$"):
        raw.verify_dd_zero()


def test_shape_is_checked_on_construction():
    # the second vertex's row 3 is past the one empty cell
    with pytest.raises(InvariantViolated,
                       match="degree-0 row falls outside the 1 cells below"):
        RawComplex({-1: 1, 0: 2}, {0: csr([[(0, 1)], [(3, 1)]])})
    # one column for two vertices
    with pytest.raises(InvariantViolated,
                       match="degree 0 has 1 columns for 2 cells"):
        RawComplex({-1: 1, 0: 2}, {0: csr([[(0, 1)]])})


def test_sparse_rank_small():
    # rank of [[1,2],[2,4]] is 1, exactly
    cols = csr([[(0, 1), (1, 2)], [(0, 2), (1, 4)]])
    assert sparse_rank(cols)[0] == 1
    cols = csr([[(0, 1)], [(1, 1)]])
    rank, rows = sparse_rank(cols)
    assert rank == 2 and sorted(rows) == [0, 1]


def dense_columns(m):
    return csr([[(i, v) for i, v in enumerate(col)] for col in zip(*m)])


@pytest.mark.parametrize("m, rank", [
    ([[2, 4], [6, 8]], 2),
    ([[2, 4], [4, 8]], 1),
    ([[2, 0, 4], [0, 6, 6], [4, 6, 14]], 2),
    ([[3, 6, 9], [6, 3, 0], [9, 0, 3]], 3),
])
def test_sparse_rank_without_unit_pivots(m, rank):
    # no entry is a unit, so the elimination starts on a non-unit pivot:
    # col <- a*col - b*pcol with a = |pval|/g
    assert sparse_rank(dense_columns(m))[0] == rank


def test_sparse_rank_block_diagonal_updates_only_its_block():
    # 200 copies of [[2, 4], [6, 8]] on the diagonal: each pivot updates
    # the one other column of its block, so the work is linear in blocks
    cols = []
    for b in range(200):
        cols += [[(2 * b, 2), (2 * b + 1, 6)], [(2 * b, 4), (2 * b + 1, 8)]]
    rank, pivots = sparse_rank(csr(cols), work_cap=2_000)
    assert rank == 400 and sorted(pivots) == list(range(400))
    with pytest.raises(MatrixCapExceeded):
        sparse_rank(csr(cols), work_cap=10)


def test_sparse_rank_dense_without_units_matches_oracle():
    # hundreds of scaled updates and content divisions on one seeded matrix;
    # the hypothesis cases below stop at 8 x 8.  The last five columns are
    # 2a + 4b of earlier columns a, b, so the rank is 35, not 40
    rng = np.random.default_rng(10)
    m = rng.choice([2, -2, 3, -3, 4, -4, 5, -7], size=(40, 40))
    m[:, 35:] = 2 * m[:, :5] + 4 * m[:, 5:10]
    m = m.tolist()
    rank, pivots = sparse_rank(dense_columns(m))
    assert rank == dense_rank(list(zip(*m)), len(m)) == 35
    assert len(set(pivots)) == len(pivots) == rank
    minor = [m[i] for i in pivots]
    assert dense_rank(list(zip(*minor)), len(minor)) == rank


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    min_size=1, max_size=8)), st.sampled_from((1, 2, 3, 6)))
def test_sparse_rank_matches_dense_fractions(rows, scale):
    m = [[scale * v for v in row] for row in rows]
    rank, pivots = sparse_rank(dense_columns(m))
    assert rank == dense_rank(list(zip(*m)), len(m))
    # the pivot rows R of any elimination index a nonsingular minor: the
    # rows R alone have rank |R| = rank
    assert len(set(pivots)) == len(pivots) == rank
    minor = [m[i] for i in pivots]
    assert dense_rank(list(zip(*minor)), len(minor)) == rank


def dense_boundary(raw, k):
    """The columns of ∂_k of a raw complex as dense vectors."""
    out = []
    for col in raw.columns(k):
        v = [0] * raw.count(k - 1)
        for i, x in col:
            v[i] += x
        out.append(v)
    return out


def oracle_profile(raw, lo, hi):
    """Per-degree boundary ranks of a raw complex, from dense Fractions."""
    return {k: dense_rank(dense_boundary(raw, k), raw.count(k - 1))
            for k in range(lo, hi + 1)}


@st.composite
def small_complexes(draw):
    """The simplicial complex generated by a few random facets, beside up
    to two hollow simplices on fresh vertices (every proper face of 3, 4
    or 5 vertices).  Every cell of a hollow simplex has two cofaces or
    none, so unless it holds the seed vertex the pair search leaves it
    whole, with residue boundaries in adjacent degrees."""
    n = draw(st.integers(0, 7))
    facets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1,
                                   max_size=4), max_size=8)) if n else []
    for size in draw(st.lists(st.integers(3, 5), max_size=2)):
        facets += itertools.combinations(range(n, n + size), size - 1)
        n += size
    faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for r in range(1, len(f) + 1):
            faces.update(itertools.combinations(f, r))
    top = max(map(len, faces), default=0)
    return SimplicialComplex([sorted(s for s in faces if len(s) == d + 1)
                              for d in range(top)])


@settings(max_examples=150, deadline=None)
@given(small_complexes())
def test_boundary_matches_dict_lookup(K):
    assert {k: list(B) for k, B in RawComplex.from_simplicial(K).cols.items()
            } == dict_boundary(tuple_dims(K))


def test_missing_face_raises():
    # the edge (0, 2) has no vertex 2
    K = SimplicialComplex([[(0,), (1,)], [(0, 2)]])
    with pytest.raises(InvariantViolated, match="face is missing"):
        RawComplex.from_simplicial(K)


def octahedron_complex():
    return order_complex(join_posets([Poset([0, 1], [0, 0, 0], [])] * 3))


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_face_position_one_off_raises(k, shift):
    # every face of every degree is checked, whichever way it is off
    m, width = octahedron_complex().faces[k].shape
    for i, t in itertools.product(range(m), range(width)):
        K = octahedron_complex()
        K.faces[k][i, t] += shift
        with pytest.raises(InvariantViolated,
                           match=f"degree-{k} face (is missing|position)"):
            RawComplex.from_simplicial(K)


def test_swapped_faces_that_cancel_are_refused():
    # an edge with its two faces swapped has boundary a - b for b - a:
    # d∘d is still zero, but the face rows are wrong
    K = SimplicialComplex([[(0,), (1,)], [(0, 1)]])
    K.faces[1] = K.faces[1][:, ::-1].copy()
    with pytest.raises(InvariantViolated, match="names another row"):
        RawComplex.from_simplicial(K)
    swapped = RawComplex({-1: 1, 0: 2, 1: 1}, {
        0: csr([[(0, 1)], [(0, 1)]]), 1: csr([[(0, 1), (1, -1)]])})
    swapped.verify_dd_zero()


def test_rows_that_do_not_rise_are_refused():
    K = SimplicialComplex([[(0,), (1,), (2,)], [(1, 2), (0, 1)]])
    with pytest.raises(InvariantViolated, match="degree-1 rows do not rise"):
        RawComplex.from_simplicial(K)


def test_the_core_complex_searches_no_face(monkeypatch):
    # order_complex grows the face table: the Betti vector of a fresh
    # A_2(Sym(8)) searches no row of its core's complex (222 530 before)
    searched, built = [], []
    index = SimplicialComplex.index

    def spy_index(K, d, rows):
        searched.append(len(rows))
        return index(K, d, rows)

    def spy_complex(P):
        built.append(P.n)
        return order_complex(P)

    monkeypatch.setattr(SimplicialComplex, "index", spy_index)
    monkeypatch.setattr(homology, "order_complex", spy_complex)
    bv = betti_of_poset(ap_poset(load_group("sym8").group.full(), 2))
    assert bv.tilde == (0, 0, 512, 0)
    assert built and sum(searched) == 0


EDGE = SimplicialComplex([[(0,), (1,)], [(0, 1)]])


def test_image_missing_from_the_target_raises():
    # the target has an edge, but not the image (0, 1)
    KT = SimplicialComplex([[(0,), (1,), (2,)], [(0, 2)]])
    with pytest.raises(InvariantViolated, match="not in the target"):
        chain_map_from_poset_map([0, 1], EDGE, KT)


def test_image_above_the_target_dimension_raises():
    # the target has no edges at all; a degenerate image still maps to 0
    KT = SimplicialComplex([[(0,), (1,)]])
    with pytest.raises(InvariantViolated, match="not in the target"):
        chain_map_from_poset_map([0, 1], EDGE, KT)
    assert list(chain_map_from_poset_map([1, 1], EDGE, KT)[1]) == [[]]


@settings(max_examples=60, deadline=None)
@given(subposet_inclusions())
def test_chain_map_matches_dict_lookup(f):
    KS, KT = order_complex(f.source), order_complex(f.target)
    colmaps = chain_map_from_poset_map(f.table, KS, KT)
    assert {k: list(B) for k, B in colmaps.items()} == dict_chain_map(
        f.table, tuple_chains(f.source), tuple_chains(f.target))


# a hollow tetrahedron beside a point: the point takes the pair with the
# empty cell, so the sphere keeps every cell, ∂_2 of rank 3 above ∂_1's
# six edges
SPHERE_BESIDE_A_POINT = SimplicialComplex(
    [[(v,) for v in range(5)]] + [list(itertools.combinations(range(1, 5), r))
                                  for r in (2, 3)])


@settings(max_examples=150, deadline=None)
@given(small_complexes())
@example(SPHERE_BESIDE_A_POINT)
def test_rank_profile_matches_oracle_on_complexes(K):
    raw = RawComplex.from_simplicial(K)
    for k in range(raw.top + 1):
        rank, pivots = sparse_rank(raw.columns(k))
        assert len(set(pivots)) == len(pivots) == rank
        minor = [[col[i] for i in pivots] for col in dense_boundary(raw, k)]
        assert dense_rank(minor, rank) == rank
    with pytest.MonkeyPatch.context() as mp:
        ranks, calls, whole = ranked_matrices(
            mp, raw, lambda: _rank_profile(raw, 10 ** 6))
    assert ranks == oracle_profile(raw, raw.bottom + 1, raw.top)
    # each residue boundary is ranked once, on all its columns
    assert sorted(calls) == sorted(whole)


def cone_of(f):
    """The mapping cone of f's chain map on the full order complexes."""
    KS, KT = order_complex(f.source), order_complex(f.target)
    return mapping_cone(RawComplex.from_simplicial(KS),
                        RawComplex.from_simplicial(KT),
                        chain_map_from_poset_map(f.table, KS, KT))


@settings(max_examples=60, deadline=None)
@given(subposet_inclusions())
def test_rank_profile_matches_oracle_on_cones(f):
    cone = cone_of(f)
    assert _rank_profile(cone, 10 ** 6) == oracle_profile(
        cone, cone.bottom + 1, cone.top)


def matched(raw):
    """(pairs, residue, pairs per degree of b) of raw, replay-checked."""
    pairs, live = _morse_pairs(raw, 10 ** 6)
    _replay_pairs(raw, pairs, live)
    return pairs, _residue(raw, live), Counter((pairs[:, 0] + 1).tolist())


def ranked_matrices(monkeypatch, raw, profile):
    """(profile(), the columns handed to each sparse_rank call while it
    runs, the columns of every residue boundary of raw)."""
    calls = []
    exact = homology.sparse_rank

    def spy(columns, work_cap=homology.DEFAULT_WORK_CAP):
        calls.append(list(columns))
        return exact(columns, work_cap)

    monkeypatch.setattr(homology, "sparse_rank", spy)
    out = profile()
    monkeypatch.setattr(homology, "sparse_rank", exact)
    _, residue, _ = matched(raw)
    degrees = range(raw.bottom + 1, raw.top + 1)
    assert all(len(residue.columns(k)) == residue.count(k) for k in degrees)
    return out, calls, [list(residue.columns(k)) for k in degrees]


def check_rank_identity(raw):
    """rank ∂_k(raw) = rank ∂_k(residue) + #pairs in degrees (k-1, k),
    against dense Fractions; and a residue with zero boundary is the
    homology, cell for cell."""
    _, residue, per = matched(raw)
    lo, hi = raw.bottom + 1, raw.top + 1
    ranks = oracle_profile(raw, lo, hi)
    assert ranks == {k: r + per[k] for k, r in
                     oracle_profile(residue, lo, hi).items()}
    if not any(any(c) for c in residue.cols.values()):
        for k in range(raw.bottom, raw.top + 1):
            assert raw.count(k) - ranks.get(k, 0) - ranks.get(k + 1, 0) \
                == residue.count(k)


@settings(max_examples=150, deadline=None)
@given(small_complexes())
def test_pairs_keep_the_ranks_of_complexes(K):
    check_rank_identity(RawComplex.from_simplicial(K))


@settings(max_examples=60, deadline=None)
@given(subposet_inclusions())
def test_pairs_keep_the_ranks_of_cones(f):
    check_rank_identity(cone_of(f))


def test_each_residue_boundary_is_ranked_whole(worked_ctx, monkeypatch):
    # K0's residue keeps ∂_1 of rank 44 above 49 vertices, and its cone
    # into K(X) ∂_2 of rank 44 above 49 edges: every call gets all the
    # residue columns of its degree, the 44 the pivot rows index included
    cx = worked_ctx.complexes()
    rawS = RawComplex.from_simplicial(cx.K0)
    rawT = RawComplex.from_simplicial(cx.KX)
    inc = chain_map_from_poset_map(range(worked_ctx.join().X.n), cx.K0, cx.KX)
    bS, bT = betti_of_raw(rawS), betti_of_raw(rawT)
    cone = mapping_cone(rawS, rawT, inc)
    for raw, profile in (
            (rawS, lambda: betti_of_raw(rawS)),
            (cone, lambda: cone_rank_profile(rawS, rawT, inc, bS, bT))):
        _, calls, whole = ranked_matrices(monkeypatch, raw, profile)
        assert sorted(calls) == sorted(whole)


@pytest.mark.parametrize("name", ["alt6", "sym6", "aut-alt6", "a5xa5-e"])
def test_core_residues_are_the_betti_numbers(name):
    P = ap_poset(bundled(name), 2)
    _, residue, _ = matched(RawComplex.from_simplicial(
        order_complex(_core(P)[0])))
    assert not any(any(c) for c in residue.cols.values())
    bv = betti_of_poset(P)
    assert [residue.count(k) for k in range(-1, len(bv.tilde))] == \
        [bv.get(k) for k in range(-1, len(bv.tilde))]


def test_pair_order_is_fixed_by_the_complex():
    P = ap_poset(bundled("sym5"), 2)
    runs = [_morse_pairs(RawComplex.from_simplicial(
        order_complex(Poset(P.elements, P.ptr, P.ids))), 10 ** 6)
        for _ in range(2)]
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
    assert runs[0][0][0, :2].tolist() == [-1, 0]  # a vertex, the empty cell


@pytest.mark.parametrize("name, count, digest", [
    ("sym6", 285,
     "3ae676466ba92e93dedc629c0daaa8a46c5664b92cc2df563ffee79f451045fa"),
    ("aut-alt6", 546,
     "53e29424257dc18c5132a960098b738c74b59a7332bad7407f159d12c8ce7bfc"),
], ids=["sym6", "aut-alt6"])
def test_pair_order_is_pinned(name, count, digest):
    # the pairs of the cores' order complexes, round after round, with
    # each round's pairs in candidate order: stacking the boundaries must
    # keep every column's entries in order
    raw = RawComplex.from_simplicial(order_complex(_core(ap_poset(
        bundled(name), 2))[0]))
    pairs = _morse_pairs(raw, 10 ** 6)[0]
    assert len(pairs) == count
    assert hashlib.sha256(pairs.tobytes()).hexdigest() == digest


def path_complex(n):
    """A path of n edges, vertex i joined to vertex i + 1."""
    return SimplicialComplex([np.arange(n + 1)[:, None], np.column_stack(
        (np.arange(n), np.arange(1, n + 1)))])


def cylinder_complex(m, n):
    """A circle of m vertices times a path of n edges, triangulated: ring
    i holds the vertices i*m .. i*m + m - 1, each square of the strip
    between rings i and i + 1 cut into two triangles."""
    tris = np.sort([t for i in range(n) for j in range(m) for t in (
        (i * m + j, i * m + (j + 1) % m, (i + 1) * m + j),
        (i * m + (j + 1) % m, (i + 1) * m + j, (i + 1) * m + (j + 1) % m))],
        axis=1)
    tris = np.unique(tris, axis=0)
    edges = np.unique(np.concatenate(
        [tris[:, [0, 1]], tris[:, [0, 2]], tris[:, [1, 2]]]), axis=0)
    return SimplicialComplex([np.arange(m * (n + 1))[:, None], edges, tris])


@pytest.mark.parametrize("K, rounds, residue", [
    (path_complex(2000), 2001, {-1: 0, 0: 0, 1: 0}),
    (cylinder_complex(6, 300), 3 * 300 + 1, {-1: 0, 0: 0, 1: 1, 2: 0}),
], ids=["path", "cylinder"])
def test_round_search_on_long_thin_complexes(K, rounds, residue):
    # a path frees one pair per round, the worst case of the round
    # search, and a cylinder one ring in three rounds.  Each round reads
    # only the cells the last one touched, so a cap linear in the
    # entries holds; a cap below the entries read in the first round
    # does not
    raw = RawComplex.from_simplicial(K)
    entries = sum(len(B.rows) for B in raw.cols.values())
    found = list(homology._morse_rounds(raw, 12 * entries))
    assert len(found) <= rounds
    pairs, residue_raw, _ = matched(raw)
    assert len(pairs) == sum(len(a) for a, _ in found)
    assert residue_raw.counts == residue
    with pytest.raises(MatrixCapExceeded):
        _morse_pairs(raw, raw.count(0))


def test_replay_rejects_corrupted_matchings():
    raw = RawComplex.from_simplicial(order_complex(ap_poset(bundled("sym5"),
                                                            2)))
    pairs, live = _morse_pairs(raw, 10 ** 6)
    _replay_pairs(raw, pairs, live)
    # the first pair swapped for an edge and one of its vertices, which
    # lies in more edges: at time 0 neither is the other's only partner
    edge = raw.columns(1)[0]
    v = edge[0][0]
    assert sum(any(i == v for i, _ in c) for c in raw.columns(1)) > 1
    swapped = pairs.copy()
    swapped[0] = (0, v, 0)
    with pytest.raises(InvariantViolated, match="pair 0, .* not elementary"):
        _replay_pairs(raw, swapped, live)
    # a pair repeated
    with pytest.raises(InvariantViolated, match="pair 6, .* twice"):
        _replay_pairs(raw, np.insert(pairs, 6, pairs[2], axis=0), live)
    # a pair whose b, a cell the search leaves, does not have a as a face
    p = max(p for p, k in enumerate(pairs[:, 0].tolist()) if any(live[k + 1]))
    k, a, _ = pairs[p].tolist()
    b = next(j for j, x in enumerate(live[k + 1])
             if x and all(i != a for i, _ in raw.columns(k + 1)[j]))
    swapped = pairs.copy()
    swapped[p] = (k, a, b)
    with pytest.raises(InvariantViolated, match=f"pair {p}, .* not elem"):
        _replay_pairs(raw, swapped, live)
    # a residue that is not what the pairs leave
    wrong = dict(live)
    wrong[0] = bytearray(live[0])
    wrong[0][0] ^= 1
    with pytest.raises(InvariantViolated, match="residue differs"):
        _replay_pairs(raw, pairs, wrong)


def test_pair_search_honours_the_work_cap():
    # alt6's core leaves nothing for the elimination, so the cap is met in
    # the pair search
    raw = RawComplex.from_simplicial(order_complex(_core(ap_poset(
        bundled("alt6"), 2))[0]))
    assert not any(any(c) for c in matched(raw)[1].cols.values())
    with pytest.raises(MatrixCapExceeded):
        _morse_pairs(raw, 10)
    with pytest.raises(MatrixCapExceeded):
        betti_of_raw(raw, work_cap=10)


def test_work_cap():
    P = ap_poset(bundled("sym5"), 2)
    with pytest.raises(MatrixCapExceeded):
        betti_of_complex(order_complex(P), work_cap=1)


def test_mv_rank_audit(sym4):
    # cover the degree-4 poset by the members meeting the normal Klein
    # subgroup and the members not inside it
    U = ap_poset(sym4, 2)
    V = sym4.group.subgroup_from_rows([[1, 0, 3, 2], [2, 3, 0, 1]])
    ids_Y = np.array([i for i, E in enumerate(U.elements)
                      if np.intersect1d(E.midx, V.midx).size > 1],
                     dtype=np.int64)
    ids_Z = np.array([i for i, E in enumerate(U.elements)
                      if not E.is_subset_of(V)], dtype=np.int64)
    audit = mv_rank_audit(U, ids_Y, ids_Z)
    assert audit.ok
    assert audit.chi_additive


def test_betti_cache_honours_work_cap(sym5):
    P = ap_poset(sym5, 2)
    bv = betti_of_poset(P)
    assert (bv.get(0), bv.get(1)) == (0, 16)
    with pytest.raises(MatrixCapExceeded):
        betti_of_poset(P, work_cap=1)


def test_induced_map_cache_honours_work_cap(ap2_sym5, monkeypatch):
    f = PosetMap(ap2_sym5, ap2_sym5, np.arange(ap2_sym5.n))
    rep = induced_map(f)
    assert induced_map(f) is rep
    # an equal map shares the report; another cap ranks the cone afresh,
    # though the Betti vectors at that cap are already known
    caps = []
    cone = homology.cone_rank_profile

    def spy(*args):
        caps.append(args[-1])
        return cone(*args)

    monkeypatch.setattr(homology, "cone_rank_profile", spy)
    g = PosetMap(ap2_sym5, ap2_sym5, np.arange(ap2_sym5.n))
    g.results = f.results
    assert induced_map(g) is rep
    cap = homology.DEFAULT_WORK_CAP + 1
    betti_of_poset(ap2_sym5, work_cap=cap)
    assert induced_map(f, work_cap=cap).ranks == rep.ranks
    assert caps == [cap]
    with pytest.raises(MatrixCapExceeded):
        induced_map(f, work_cap=1)


def test_results_are_shared_by_equal_contents_only(monkeypatch):
    # every key made the same: the arrays kept with a result, not the
    # crc32 in its key, decide whether another poset shares it
    monkeypatch.setattr(homology, "_fingerprint", lambda *arrays: ())
    P = ap_poset(load_group("sym4").group.full(), 2)
    Q = ap_poset(load_group("alt5").group.full(), 2)
    Q.results = P.results
    assert betti_of_poset(P).is_zero()
    assert betti_of_poset(Q).tilde == (4,)
    assert betti_of_poset(P).is_zero()


def test_mv_not_a_cover(sym4):
    U = ap_poset(sym4, 2)
    with pytest.raises(NotACover):
        mv_rank_audit(U, np.arange(3), np.arange(2, 5))


def test_mv_cover_rejects_a_mixed_chain(sym4):
    # ids 0-8 are the involutions, 9-12 the Klein four-groups: Y keeps the
    # involutions and one four-group, Z the four-groups, and an involution
    # private to Y lies below a four-group private to Z
    U = ap_poset(sym4, 2)
    with pytest.raises(NotACover, match="mixes elements private to each"):
        mv_rank_audit(U, np.arange(10), np.arange(9, 13))


def test_self_checks_survive_python_O():
    code = textwrap.dedent("""
        import re
        import sys
        import numpy as np
        from quillen.errors import InvariantViolated
        from quillen.homology import (BettiVector, RawComplex,
                                      cone_rank_profile)
        from rank_oracle import csr
        assert False, "asserts must be stripped"
        def expect(error, message, accepted, fn, *args):
            # fn(*args) must raise error from the check whose message
            # matches, not pass and not trip another check
            try:
                fn(*args)
            except error as e:
                if not re.search(message, str(e)):
                    sys.exit(f"{accepted}: {e} is another check")
            else:
                sys.exit(accepted)
        # one edge with boundary 2v, so d0 d1 = 2, not 0
        bad = RawComplex({-1: 1, 0: 1, 1: 1},
                         {0: csr([[(0, 1)]]), 1: csr([[(0, 1), (0, 1)]])})
        expect(InvariantViolated, "boundary composite nonzero",
               "verify_dd_zero missed d o d != 0", bad.verify_dd_zero)
        # a vertex whose boundary row is past the one empty cell
        expect(InvariantViolated, "row falls outside the 1 cells below",
               "RawComplex accepted a row outside the degree below",
               RawComplex, {-1: 1, 0: 2}, {0: csr([[(0, 1)], [(3, 1)]])})
        # identity on two points with a source Betti vector that is too small
        two = RawComplex({-1: 1, 0: 2}, {0: csr([[(0, 1)], [(0, 1)]])})
        ident = {-1: csr([[(0, 1)]]), 0: csr([[(0, 1)], [(1, 1)]])}
        right = BettiVector(tilde=(1,), minus1=0, chi=1)
        small = BettiVector(tilde=(0,), minus1=0, chi=1)
        cone_rank_profile(two, two, ident, right, right)
        expect(InvariantViolated, "cone rank recursion out of range",
               "cone_rank_profile accepted a rank above the source",
               cone_rank_profile, two, two, ident, small, right)
        # every member sent to the first member of its order: orders are
        # kept, so the copy fails as not injective
        from quillen.gspec import load_group
        from quillen.pposets import _check_embedded_copy, ap_poset, \\
            poset_from_subgroups
        P = ap_poset(load_group("sym4").group.full(), 2)
        first = {}
        for j, E in enumerate(P.elements):
            first.setdefault(E.order, j)
        expect(InvariantViolated, "embedded copy is not injective",
               "_check_embedded_copy accepted a non-injective map",
               _check_embedded_copy, P, P,
               np.array([first[E.order] for E in P.elements]))
        # every involution of Sym(4) lies in a Klein four-group, so the
        # family without one of them is not closed under subgroups
        from quillen.errors import IndexOutOfRange
        expect(IndexOutOfRange, "not closed under nontrivial subgroups",
               "the closure check accepted a family missing a member",
               poset_from_subgroups, P.elements.take(np.arange(1, P.n)))
        # A_2(Sym(4))'s family with its first four-group listed twice
        from quillen import groups
        from quillen.errors import NotAntisymmetric
        M, g, C = P.elements.blocks[1]
        twice = groups.SubgroupFamily(P.elements.group, P.elements.blocks[:1]
                                      + [(M[[0, 0]], g[[0, 0]], C[[0, 0]])])
        expect(NotAntisymmetric, "family rows do not rise strictly",
               "poset_from_subgroups accepted a family with a repeated row",
               poset_from_subgroups, twice)
        # a lookup table out of order: row_lookup searches a table as it
        # was built, so it must refuse one whose rows do not rise
        from quillen.posets import row_lookup
        expect(InvariantViolated, "rows do not rise strictly",
               "row_lookup accepted a table out of order",
               row_lookup, np.array([[0, 2], [0, 1]]), np.array([[0, 1]]))
        # a face position one off: from_simplicial checks every face row
        from quillen.posets import order_complex
        K = order_complex(P)
        K.faces[1][0, 0] -= 1
        expect(InvariantViolated, "degree-1 face position names another row",
               "from_simplicial accepted a wrong face position",
               RawComplex.from_simplicial, K)
        # the commuting table kept one way round only, i < j: Alt(6)'s
        # rank-2 step at p = 3 asks for x * z^2 with x above z^2
        exact_table = groups._commuting_products
        def one_way(sub, ext, powers):
            keys, prods = exact_table(sub, ext, powers)
            kept = keys // ext.size < keys % ext.size
            return keys[kept], prods[kept]
        groups._commuting_products = one_way
        expect(InvariantViolated, "missing from the commuting table",
               "elementary_abelian_subgroups accepted a product outside "
               "the commuting table", groups.elementary_abelian_subgroups,
               load_group("alt6").group.full(), 3)
        groups._commuting_products = exact_table
        # position maps that permute the p-elements but are no
        # conjugation: the rows they move break the table's symmetry
        exact_maps = groups._position_maps
        def shifted(actor, elements):
            return [np.roll(mp, 1) for mp in exact_maps(actor, elements)]
        groups._position_maps = shifted
        expect(InvariantViolated, "the commuting table is not symmetric",
               "_commuting_products accepted rows moved by wrong maps",
               groups.elementary_abelian_subgroups,
               load_group("sym5").group.full(), 2)
        groups._position_maps = exact_maps
        # a rank routine that miscounts must trip a check.  Reduction pairs
        # leave the cores' order complexes a zero boundary, so the stand-ins
        # run where a residue keeps one: the worked example's condition (E)
        # complex K0, the chains missing a factor (60 edges of rank 44 are
        # left), and its cone into K(X)
        import quillen.homology as hom
        from quillen.pposets import OrbitContext
        ctx = OrbitContext(load_group("a5xa5-exr").group.full(), 2)
        cx = ctx.complexes()
        rawS = hom.RawComplex.from_simplicial(cx.K0)
        rawT = hom.RawComplex.from_simplicial(cx.KX)
        inc = hom.chain_map_from_poset_map(range(ctx.join().X.n), cx.K0,
                                           cx.KX)
        bS, bT = hom.betti_of_raw(rawS), hom.betti_of_raw(rawT)
        pivot_check = "pivot rows are not"
        # here its pivot rows outnumber the rank it claims
        exact_rank = hom.sparse_rank
        def low(columns, work_cap=hom.DEFAULT_WORK_CAP):
            r, rows = exact_rank(columns, work_cap)
            return (r - 3, rows) if len(columns) > 50 else (r, rows)
        hom.sparse_rank = low
        expect(InvariantViolated, pivot_check,
               "betti_of_raw accepted ranks 3 too small", hom.betti_of_raw,
               rawS)
        # and here its pivot rows agree with a rank above the columns.  Two
        # 1-cells, each with all three 0-cells as faces, have independent
        # boundaries; no cell has one face or one coface, so no pair forms
        # and the residue ∂_1 keeps more rows than columns, at full rank
        def above_columns(columns, work_cap=hom.DEFAULT_WORK_CAP):
            r, rows = exact_rank(columns, work_cap)
            if not columns or r < len(columns):
                return r, rows
            spare = next(i for i in range(len(rows) + 1) if i not in rows)
            return r + 1, rows + [spare]
        hom.sparse_rank = above_columns
        injective = RawComplex({0: 3, 1: 2}, {1: csr([
            [(0, 1), (1, 1), (2, 1)], [(0, 1), (1, -1), (2, 2)]])})
        expect(InvariantViolated, "degree-1 rank 3 exceeds its 2 columns",
               "betti_of_raw accepted a rank above the columns",
               hom.betti_of_raw, injective)
        # a repeated pivot row must raise
        def repeated_row(columns, work_cap=hom.DEFAULT_WORK_CAP):
            r, rows = exact_rank(columns, work_cap)
            return (r, rows[:-1] + rows[:1]) if r > 1 else (r, rows)
        hom.sparse_rank = repeated_row
        expect(InvariantViolated, pivot_check,
               "cone_rank_profile accepted a repeated pivot row",
               hom.cone_rank_profile, rawS, rawT, inc, bS, bT)
        hom.sparse_rank = exact_rank
        # the pair search is trusted only through its replay: a repeated
        # pair, and a first pair swapped for an edge and one of its
        # vertices, which lies in other edges, must raise
        exact_pairs = hom._morse_pairs
        v = rawT.columns(1)[0][0][0]
        if sum(any(i == v for i, _ in c) for c in rawT.columns(1)) < 2:
            sys.exit("the swapped pair would be a collapse")
        for corrupt, message in (
                (lambda pairs: np.concatenate((pairs, pairs[-1:])),
                 "removes a cell twice"),
                (lambda pairs: np.concatenate(([(0, v, 0)], pairs[1:])),
                 "pair 0, .* is not elementary")):
            def corrupted(raw, work_cap, corrupt=corrupt):
                pairs, live = exact_pairs(raw, work_cap)
                return corrupt(pairs), live
            hom._morse_pairs = corrupted
            expect(InvariantViolated, message,
                   "betti_of_raw accepted a corrupted matching",
                   hom.betti_of_raw, rawT)
        hom._morse_pairs = exact_pairs
        # the orbit maps: psi with a component centralizer taken as all of
        # H, so its two descriptions of the projection index differ; a
        # constant map in place of psi_1, which check_thm41's tower check
        # meets, and then of Phi_{1,2}, which check_propEM's factorization
        # meets; and a copy that sends a member to one of another order
        from quillen.checkers import check_propEM, check_thm41
        from quillen.posets import PosetMap
        cent, ctx.cent[2] = ctx.cent[2], ctx.H
        expect(InvariantViolated, "two descriptions of the projection "
               "index disagree", "psi accepted a wrong projection index",
               ctx.psi, 2)
        ctx.cent[2] = cent
        for key, source, target, check, message in (
                (("psi", 1), ctx.ap_C(1), ctx.join().W[1], check_thm41,
                 "does not commute with inclusion"),
                (("phi", 1, 2), ctx.mixed_join(1, 2), ctx.mixed_join(0, 2),
                 lambda ctx: check_propEM(ctx, 2),
                 "do not compose to the projection")):
            ctx._cache[key] = PosetMap(source, target, [0] * source.n)
            expect(InvariantViolated, message,
                   f"a constant {key} map passed", check, ctx)
            del ctx._cache[key]
        # a target dropped from factor 1's family: psi_1 finds its images
        # by row lookup, and one of them is gone
        from dataclasses import replace
        factor = ctx.factor(1)
        hit = ctx.psi(1).table.max() - ctx.join().blocks[1][0]
        if hit < 0:
            sys.exit("psi_1 sends nothing into factor 1")
        ctx._cache[("factor", 1)] = replace(factor, poset=factor.poset.induced(
            np.delete(np.arange(factor.poset.n), hit))[0])
        del ctx._cache[("psi", 1)]
        expect(IndexOutOfRange, "not in the target poset",
               "psi accepted a target missing from its factor", ctx.psi, 1)
        ctx._cache[("factor", 1)] = factor
        expect(InvariantViolated, "not faithful on p-subgroups",
               "_check_embedded_copy accepted a change of order",
               _check_embedded_copy, P, P, np.arange(P.n)[::-1])
        # an image built from too few generators fails |image||kernel| = |actor|
        sym5 = load_group("sym5").group.full()
        A5 = groups.detect_components(sym5)[0][0]
        build = groups.PermGroup.generate
        groups.PermGroup.generate = staticmethod(
            lambda rows, degree, name="": build(rows[:1], degree, name=name))
        expect(InvariantViolated, "is not the actor",
               "conjugation_action accepted an image of the wrong order",
               groups.conjugation_action, sym5, A5)
        groups.PermGroup.generate = build
        # a class entry for the normalizer's first target generator: one
        # built from a centralizer too small for orbit-stabilizer, and one
        # whose transversal repeats a coset.  Sym(4)'s double
        # transpositions all lie in its Klein four-group
        sym4 = load_group("sym4").group.full()
        V = groups.p_core(sym4, 2)
        t = V.generating_set()[0]
        exact_centralizer = groups.centralizer
        groups.centralizer = lambda ambient, target: ambient.intersection(V)
        expect(InvariantViolated, "is not the ambient order",
               "_element_class accepted |class| |centralizer| != |ambient|",
               groups.normalizer, sym4, V)
        groups.centralizer = exact_centralizer
        orbit, trans, cent = groups._element_class(sym4, t)
        classes = sym4._cache["element classes"]
        classes[t] = orbit, trans[[0] * orbit.size], cent
        expect(InvariantViolated, "repeat a normalizer candidate",
               "normalizer accepted a repeated candidate",
               groups.normalizer, sym4, V)
        # a class derived from a cached one whose transversal row for y
        # is t's own: y t y^-1 is t, not the conjugate asked for
        wrong = trans.copy()
        wrong[1] = trans[0]
        classes[t] = orbit, wrong, cent
        expect(InvariantViolated, "does not conjugate",
               "_element_class derived a class from a wrong transversal row",
               groups.normalizer, sym4, sym4.group.subgroup([orbit[1]]))
        # t's own row sending t to another class member: for <t> the one
        # coset taken is wrong, and no candidate repeats
        wrong = trans.copy()
        wrong[0] = trans[1]
        classes[t] = orbit, wrong, cent
        expect(InvariantViolated, "candidate: a transversal row",
               "normalizer accepted a transversal row for another member",
               groups.normalizer, sym4, sym4.group.subgroup([t]))
        # declared components that are not quasisimple: one not perfect,
        # and one perfect but with a proper noncentral normal subgroup
        from quillen.errors import ComponentsUndetectable
        a5a5 = load_group("a5xa5-e").group.full()
        base = groups.subgroup_product(*groups.detect_components(a5a5)[0])
        for G, declared in [(sym5, sym5), (a5a5, base)]:
            expect(ComponentsUndetectable, "is not quasisimple",
                   f"declared order {declared.order} passed as quasisimple",
                   groups.detect_components, G, [declared])
        # a simple factor's conjugates with one dropped: A5 x A5 split
        # from one factor whose class is read as that factor's row
        # alone fails |T|^k = |M|
        subgroup_class = groups._subgroup_class
        groups._subgroup_class = lambda sub, S, found: (
            S.midx[None, :], np.array(S.generating_set())[None, :])
        expect(ComponentsUndetectable, "1 conjugates of a simple factor of "
               "order 60 do not make up .* of order 3600",
               "detect_components accepted a dropped conjugate factor",
               groups.detect_components, load_group("a5xa5-exr").group.full())
        groups._subgroup_class = subgroup_class
        # an index-p extension by an element of S itself repeats S's
        # members: Z/4 as its own table, S = {0, 2} and x = 2
        import quillen.pposets as pp
        z4 = np.add.outer(np.arange(4), np.arange(4)) % 4
        expect(InvariantViolated, "extension .* has 2 members, not 4",
               "_index_p_extension accepted an element of S",
               pp._index_p_extension, z4, np.array([0, 2]), 2, 2)
        # every normalizer taken as all of Sym(4): the core of N ∩ P is
        # then O_2(Sym(4)), which holds no transposition
        exact_normalizer = pp.normalizer
        pp.normalizer = lambda ambient, target: ambient
        expect(InvariantViolated, "does not contain the subgroup",
               "bouc_poset accepted a core without its candidate",
               pp.bouc_poset, load_group("sym4").group.full(), 2)
        pp.normalizer = exact_normalizer
        print("ok", sys.flags.optimize)
    """)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(root / "src"), str(root / "tests"))))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.split() == ["ok", "1"]

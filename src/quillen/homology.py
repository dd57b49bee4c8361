"""Exact rational homology of simplicial complexes, and induced maps.

All homology here is reduced and over Q, computed from integer boundary
matrices with exact arithmetic (no floating point anywhere).

Every rank profile, of a complex or of a mapping cone, runs in one
function, _rank_profile, in two stages.  First reduction pairs, over all
degrees at once (Kaczyński, Mrozek and Ślusarek, "Homology computation
by reduction of chain complexes", 1998; Mrozek and Batko, "Coreduction
homology algorithm", 2009): a coreduction pairs b with its only live
face a, a collapse pairs a with its only live coface b.  Such a pair has
no fill, so what is left, the residue, is raw's boundary restricted to
the live cells, with raw's homology, and
    rank ∂_k(raw) = rank ∂_k(residue) + #pairs in degrees (k-1, k).
The matching is an exact certificate: a replay that shares no code with
the search checks every pair was elementary when it was removed.  On
most cores' order complexes the residue is the Betti numbers alone, with
a zero boundary.  The search stops where every live cell has at least
two live faces and two live cofaces, as on a component with cycles that
the one seed, a vertex with the empty cell, never reaches.

Then the residue's ranks: each residue boundary ∂_k, on all its
columns, goes once to one sparse integer elimination.  The pair search
drains its collapses, so no residue cell keeps exactly one live coface,
and the elimination has no coreduction of its own: it takes the
shortest column, pivots on its first unit in row-length order (its
smallest entry if it has none) and updates only the columns meeting the
pivot row, each by an invertible integer column operation.  It returns
its pivot rows too, and they are checked.

A poset's homology, Betti vector and induced maps alike, runs on its
beat-point core, one per poset (_core).  Induced maps are known by their
ranks only, read off the long exact sequence of the mapping cone of the
chain map.  Zero, injective and surjective are all decided by those
ranks.  The test suite checks them against a dense Fraction reference
on small maps and against the full order complexes.

Self-checks raise InvariantViolated, so they also run under
``python -O``: d∘d = 0, the replayed matching, pivot rows distinct, in
range and one per unit of rank, ranks no more than the columns,
boundary ranks within their matrix shape, nonnegative Betti numbers
(b̃_{-1} = 1 exactly for the empty complex), the Euler characteristic
across the core collapse and the cone-rank range.  The replay proves
the ranks the pairs account for; the residue's own ranks are proved
only when its boundary is zero.  An undercount there that keeps every
number in range passes.
"""

import heapq
import math
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvariantViolated, MatrixCapExceeded, NotACover
from .posets import PosetMap, beat_point_core, join_posets, order_complex

DEFAULT_WORK_CAP = 400_000_000


# -- raw chain complexes ---------------------------------------------------------


class RawComplex:
    """Integer chain complex given by cell counts and boundary columns.

    counts maps degree -> number of cells, cols maps degree k -> list of
    columns of the boundary C_k -> C_{k-1}, each column a list of
    (row, value).  Augmented simplicial complexes store the empty simplex
    in degree -1.
    """

    def __init__(self, counts, cols):
        self.counts = dict(counts)
        self.cols = dict(cols)

    @classmethod
    def from_simplicial(cls, K):
        counts = {-1: 1}
        cols = {}
        for d, simps in enumerate(K.dims):
            counts[d] = len(simps)
        if K.dims:
            cols[0] = [[(0, 1)] for _ in K.dims[0]]
        idx_maps = K.index_maps()
        for k in range(1, len(K.dims)):
            idx = idx_maps[k - 1]
            level = []
            for s in K.dims[k]:
                col = []
                sign = 1
                for t in range(len(s)):
                    face = s[:t] + s[t + 1:]
                    col.append((idx[face], sign))
                    sign = -sign
                level.append(col)
            cols[k] = level
        return cls(counts, cols)

    def count(self, k):
        return self.counts.get(k, 0)

    def columns(self, k):
        return self.cols.get(k, [])

    @property
    def top(self):
        live = [k for k, c in self.counts.items() if c]
        return max(live) if live else -2

    @property
    def bottom(self):
        live = [k for k, c in self.counts.items() if c]
        return min(live) if live else -1

    def euler(self):
        """Alternating sum of cell counts over every stored degree."""
        return sum(c if k % 2 == 0 else -c for k, c in self.counts.items())

    def verify_dd_zero(self, sample=2000):
        """Check composite boundaries vanish, on a deterministic sample."""
        for k in sorted(self.cols):
            if k - 1 not in self.cols:
                continue
            cols_k = self.cols[k]
            cols_km1 = self.cols[k - 1]
            n = len(cols_k)
            step = max(1, n // max(1, sample))
            for j in range(0, n, step):
                acc = {}
                for i, v in cols_k[j]:
                    for i2, v2 in cols_km1[i]:
                        acc[i2] = acc.get(i2, 0) + v * v2
                if any(acc.values()):
                    raise InvariantViolated(
                        f"boundary composite nonzero at degree {k}, column {j}")


# -- sparse exact rank ------------------------------------------------------------


def sparse_rank(columns, work_cap=DEFAULT_WORK_CAP):
    """Rank over Q of an integer matrix given as columns of (row, val),
    with the rows of its pivots: returns (rank, pivot_rows).

    One elimination, Markowitz pivoting: take the shortest live column
    and pivot on its entry minimising (|v|, row length, row), so on the
    first unit in row-length order when it has one.  Only the columns
    meeting the pivot row change, each by col <- a*col - b*pcol with
    g = gcd(pval, f), a = |pval|/g > 0 and b = ±f/g, which clears the
    pivot row; a column scaled by a > 1 is divided by the gcd of its
    entries.  Every update is an invertible column operation over Q, so
    the rank is exact.  No coreduction runs first: the pair search has
    already taken every collapse, and a unit is pivoted on first anyway.
    Each pivot's row leaves the matrix, so the pivot rows are distinct,
    one per unit of rank, and index a nonsingular minor: the rows R of
    the matrix alone have rank |R|.  Raises MatrixCapExceeded when the
    entry updates, scalings included, pass work_cap.
    """
    cols = {}
    rows = {}
    for j, col in enumerate(columns):
        d = {}
        for i, v in col:
            if v:
                d[i] = d.get(i, 0) + v
        d = {i: v for i, v in d.items() if v}
        if d:
            cols[j] = d
            for i in d:
                rows.setdefault(i, set()).add(j)
    pivots = []
    work = 0

    def unlink(i, j):
        # drop column j from row i's set, and row i once it is empty
        s = rows[i]
        s.discard(j)
        if not s:
            del rows[i]
        return s

    # shortest live column first.  Every live column has a heap entry;
    # stale ones (column gone, length changed) are skipped or re-pushed
    heap = [(len(d), j) for j, d in cols.items()]
    heapq.heapify(heap)
    while cols:
        ln, pj = heapq.heappop(heap)
        pcol = cols.get(pj)
        if pcol is None:
            continue
        if len(pcol) != ln:
            heapq.heappush(heap, (len(pcol), pj))
            continue
        pi = min(pcol, key=lambda i: (abs(pcol[i]), len(rows[i]), i))
        del cols[pj]
        for i in pcol:
            unlink(i, pj)
        pval = pcol.pop(pi)
        sign, apv = (1, pval) if pval > 0 else (-1, -pval)
        for j in rows.pop(pi, ()):
            d = cols[j]
            f = d.pop(pi)
            g = math.gcd(apv, f)
            a = apv // g
            b = sign * f // g
            if a != 1:
                for i in d:
                    d[i] *= a
                work += len(d)
            for i, pv in pcol.items():
                old = d.get(i, 0)
                nv = old - b * pv
                work += 1
                if nv:
                    if not old:
                        rows.setdefault(i, set()).add(j)
                    d[i] = nv
                elif old:
                    del d[i]
                    unlink(i, j)
            if not d:
                del cols[j]
            else:
                if a != 1:
                    c = math.gcd(*d.values())
                    for i in d:
                        d[i] //= c
                heapq.heappush(heap, (len(d), j))
            if work > work_cap:
                raise MatrixCapExceeded(
                    f"elimination work exceeded {work_cap}")
        pivots.append(pi)
    return len(pivots), pivots


# -- Betti numbers -----------------------------------------------------------------


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers over Q.  tilde[k] is degree k >= 0; minus1 is
    the degree -1 number (nonzero only for an empty complex)."""
    tilde: tuple
    minus1: int
    chi: int

    def get(self, k):
        if k == -1:
            return self.minus1
        if 0 <= k < len(self.tilde):
            return self.tilde[k]
        return 0

    def is_zero(self):
        return self.minus1 == 0 and all(b == 0 for b in self.tilde)

    def nonzero_degrees(self):
        out = [-1] if self.minus1 else []
        out += [k for k, b in enumerate(self.tilde) if b]
        return out

    def top_degree(self):
        nz = self.nonzero_degrees()
        return nz[-1] if nz else None

    def __str__(self):
        body = "(" + ", ".join(str(b) for b in self.tilde) + ")"
        if self.minus1:
            body += f" [deg -1: {self.minus1}]"
        return body


def _morse_pairs(raw, work_cap):
    """Reduction pairs of a raw complex, over all degrees at once.

    Returns (pairs, live): pairs is an int64 array of rows (k, a, b) in
    removal order, cell a of degree k with cell b of degree k + 1, and
    live[k] is a bytearray with 1 for each degree-k cell left, the
    residue.  A pair is a
    coreduction (b has one live face entry, a) or a collapse (a has one
    live coface entry, b), with a nonzero coefficient.  Both queues are
    FIFO.  The coreduction queue starts from the cells with one face
    entry, in order, so the first pair is a vertex with the empty cell,
    and it is drained before any collapse is taken; live cofaces are
    counted from then on, and the collapse queue starts from the live
    cells with one.  The order is fixed by raw alone.  Faces are read
    from raw.cols; cofaces are one CSR pair (offsets, indices).  Every
    entry visited counts against work_cap (MatrixCapExceeded past it).
    """
    degrees = range(raw.bottom, raw.top + 1)
    # cell j of degree k is start[k] + j; its faces are raw.cols[k][j],
    # whose rows count from shift = start[k - 1]
    start = {}
    n = 0
    for k in degrees:
        start[k] = n
        n += raw.count(k)
    faces = []
    shift = []
    for k in degrees:
        cols = raw.columns(k)[:raw.count(k)] if k > raw.bottom else []
        faces += cols
        faces += [()] * (raw.count(k) - len(cols))
        shift += [start.get(k - 1, 0)] * raw.count(k)
    nf = list(map(len, faces))
    rows = np.fromiter((i for col in faces for i, _ in col), dtype=np.int64,
                       count=sum(nf))
    rows += np.repeat(np.asarray(shift, dtype=np.int64), nf)
    owner = np.repeat(np.arange(n, dtype=np.int64), nf)
    counts = np.bincount(rows, minlength=n)
    ptr = array("q", np.concatenate(([0], np.cumsum(counts))).tobytes())
    cof = array("q", owner[np.argsort(rows, kind="stable")].tobytes())
    live = bytearray(b"\x01") * n
    core_q = deque(np.flatnonzero(np.array(nf) == 1).tolist())
    coll_q = None
    push_core = core_q.append
    pairs = array("q")
    work = 0
    while True:
        if core_q:
            b = core_q.popleft()
            if not live[b] or nf[b] != 1:
                continue
            fo = shift[b]
            for i, v in faces[b]:
                if live[fo + i]:
                    break
            if not v:
                continue
            a = fo + i
            # b's other faces are gone already
            drop = (faces[a],) if coll_q is not None else ()
            lift = cof[ptr[a]:ptr[a + 1]] + cof[ptr[b]:ptr[b + 1]]
            work += len(faces[b])
        elif coll_q is None:
            # the coreductions are drained: count live cofaces from here on
            alive = np.frombuffer(live, dtype=np.uint8)[owner] != 0
            nc = np.bincount(rows[alive], minlength=n)
            coll_q = deque(np.flatnonzero((nc == 1) & (
                np.frombuffer(live, dtype=np.uint8) != 0)).tolist())
            nc = nc.tolist()
            push_coll = coll_q.append
            work += len(rows)
            continue
        elif coll_q:
            a = coll_q.popleft()
            if not live[a] or nc[a] != 1:
                continue
            ids = cof[ptr[a]:ptr[a + 1]]
            for b in ids:
                if live[b]:
                    break
            fo = shift[b]
            v = next(v for i, v in faces[b] if fo + i == a)
            if not v:
                continue
            # a's other cofaces are gone already
            drop = (faces[a], faces[b])
            lift = cof[ptr[b]:ptr[b + 1]]
            work += len(ids)
        else:
            break
        live[a] = live[b] = 0
        pairs.extend((a, b))
        # faces of a removed cell lose a live coface, cofaces a live face
        for x, col in zip((a, b), drop):
            fo = shift[x]
            for i, _ in col:
                i += fo
                nc[i] -= 1
                if nc[i] == 1 and live[i]:
                    push_coll(i)
            work += len(col)
        for y in lift:
            nf[y] -= 1
            if nf[y] == 1 and live[y]:
                push_core(y)
        work += len(lift)
        if work > work_cap:
            raise MatrixCapExceeded(f"reduction work exceeded {work_cap}")
    first = np.array([start[k] for k in degrees], dtype=np.int64)
    a = np.frombuffer(pairs, dtype=np.int64)[0::2]
    b = np.frombuffer(pairs, dtype=np.int64)[1::2]
    deg = np.searchsorted(first, a, side="right") - 1
    pairs = np.stack((deg + raw.bottom, a - first[deg], b - first[deg + 1]),
                     axis=1)
    return pairs, {k: live[start[k]:start[k] + raw.count(k)]
                   for k in degrees}


def _replay_pairs(raw, pairs, live):
    """Check a matching against the face lists alone.

    Pair p = (k, a, b) removes cell a of degree k and cell b of degree
    k + 1 at time p; a cell never removed has time len(pairs).  A cell is
    live at time p when its time is p or later, so pair p was elementary
    when removed iff b's face entries include a exactly once, with a
    nonzero coefficient, and either b has one face entry live at time p
    (a coreduction) or a has one coface entry live at time p (a
    collapse).  No cell may be removed twice, and the cells never
    removed must be exactly live.  Linear in the nonzeros; shares no code
    with _morse_pairs.  Raises InvariantViolated, naming the first pair
    at fault.
    """
    degrees = range(raw.bottom, raw.top + 1)
    first = {}
    n = 0
    for k in degrees:
        first[k] = n
        n += raw.count(k)
    owner, face, value = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
    for k in degrees[1:]:
        cols = raw.columns(k)
        if len(cols) > raw.count(k):
            raise InvariantViolated(f"degree {k} has more columns than cells")
        lens = np.fromiter(map(len, cols), dtype=np.int64, count=len(cols))
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(cols)),
                           dtype=np.int64, count=2 * int(lens.sum()))
        owner.append(first[k] + np.repeat(np.arange(len(cols)), lens))
        face.append(first[k - 1] + flat[0::2])
        value.append(flat[1::2])
    owner, face, value = map(np.concatenate, (owner, face, value))
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 3)
    npairs = len(pairs)
    k, a, b = pairs.T
    size = np.array([raw.count(d) for d in range(raw.bottom, raw.top + 2)])
    if npairs and not (np.all((k >= raw.bottom) & (k < raw.top))
                       and np.all((0 <= a) & (a < size[k - raw.bottom]))
                       and np.all((0 <= b) & (b < size[k + 1 - raw.bottom]))):
        raise InvariantViolated("a pair names no cell of the complex")
    starts = np.array([first[d] for d in degrees] + [n], dtype=np.int64)
    ga = starts[k - raw.bottom] + a
    gb = starts[k + 1 - raw.bottom] + b
    turn = np.arange(npairs)
    when = np.full(n, npairs, dtype=np.int64)
    np.minimum.at(when, ga, turn)
    np.minimum.at(when, gb, turn)
    twice = (when[ga] < turn) | (when[gb] < turn)
    t_face, t_owner = when[face], when[owner]
    # entries of b on a: face and owner removed together, by one pair
    own = (t_face == t_owner) & (t_owner < npairs)
    hits = np.bincount(t_owner[own], minlength=npairs)
    units = np.bincount(t_owner[own & (value != 0)], minlength=npairs)
    live_faces = np.bincount(owner[t_face >= t_owner], minlength=n)
    live_cofaces = np.bincount(face[t_owner >= t_face], minlength=n)
    elementary = (hits == 1) & (units == 1) & (
        (live_faces[gb] == 1) | (live_cofaces[ga] == 1))
    bad = twice | ~elementary
    if bad.any():
        p = int(np.argmax(bad))
        why = ("removes a cell twice" if twice[p]
               else "is not elementary when removed")
        raise InvariantViolated(f"pair {p}, {tuple(pairs[p].tolist())}, "
                                f"{why}")
    if sorted(live) != list(degrees):
        raise InvariantViolated("the residue's degrees are not the complex's")
    for d in degrees:
        kept = when[first[d]:first[d] + raw.count(d)] == npairs
        if not np.array_equal(np.frombuffer(live[d], dtype=np.uint8) != 0,
                              kept):
            raise InvariantViolated(
                f"replayed degree-{d} residue differs from the search's")


def _rank_profile(raw, work_cap):
    """Rank of every boundary ∂_k of raw, bottom < k <= top: reduction
    pairs first, then one elimination per residue boundary.

    The residue keeps raw's boundary restricted to the cells left (a
    coreduction or collapse has no fill) and raw's homology over Q, so
    rank ∂_k(raw) = rank ∂_k(residue) + #pairs in degrees (k-1, k).  The
    matching is replayed (_replay_pairs) before it is trusted.  Each
    residue ∂_k goes to sparse_rank once, on all its columns.  Its pivot
    rows are checked (distinct, in range, as many as the rank) and so is
    the rank (no more than the columns).  A degree with no boundary is
    absent: callers read it as rank 0.
    """
    pairs, live = _morse_pairs(raw, work_cap)
    _replay_pairs(raw, pairs, live)
    paired = Counter((pairs[:, 0] + 1).tolist())
    residue = _residue(raw, live)
    ranks = {}
    for k in range(raw.bottom + 1, raw.top + 1):
        cols = residue.columns(k)
        rank, pivots = sparse_rank(cols, work_cap)
        below = residue.count(k - 1)
        if len(set(pivots)) != len(pivots) or len(pivots) != rank or (
                pivots and not 0 <= min(pivots) <= max(pivots) < below):
            raise InvariantViolated(
                f"degree-{k} pivot rows are not {rank} distinct rows of "
                f"the {below} residue cells below")
        if rank > len(cols):
            raise InvariantViolated(
                f"degree-{k} rank {rank} exceeds its {len(cols)} columns")
        ranks[k] = rank + paired[k]
    return ranks


def _residue(raw, live):
    """The subcomplex of raw on the live cells, renumbered in order."""
    keep = {k: np.flatnonzero(np.frombuffer(flags, dtype=np.uint8)).tolist()
            for k, flags in live.items()}
    new = {k: {j: n for n, j in enumerate(ids)} for k, ids in keep.items()}
    cols = {}
    for k, ids in keep.items():
        if k - 1 in new and k in raw.cols:
            rows = new[k - 1]
            faces = raw.cols[k]
            cols[k] = [[(rows[i], v) for i, v in faces[j] if i in rows]
                       if j < len(faces) else [] for j in ids]
    return RawComplex({k: len(ids) for k, ids in keep.items()}, cols)


def betti_of_raw(raw, work_cap=DEFAULT_WORK_CAP):
    """Reduced Betti vector b̃_k = n_k - r_k - r_{k+1} of a raw complex.

    The ranks r_k come from _rank_profile: reduction pairs, then each
    residue boundary ranked once, whole; a degree it leaves out has
    r_k = 0.  Euler-Poincaré holds for the formula whatever the ranks r_k
    are, so the checks are that every r_k lies in 0..min(n_k, n_{k-1})
    and every b̃_k, degree -1 included, is nonnegative (InvariantViolated
    if not).
    """
    top = raw.top
    if top < -1:
        return BettiVector(tilde=(), minus1=1, chi=-1)
    ranks = _rank_profile(raw, work_cap)
    for k, r in ranks.items():
        if not 0 <= r <= min(raw.count(k), raw.count(k - 1)):
            raise InvariantViolated(f"degree-{k} boundary rank {r} is "
                                    f"out of range for its shape")
    tilde = tuple(raw.count(k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
                  for k in range(0, top + 1))
    minus1 = raw.count(-1) - ranks.get(0, 0)
    if minus1 < 0 or any(b < 0 for b in tilde):
        raise InvariantViolated(
            f"negative Betti number: {tilde}, degree -1: {minus1}")
    return BettiVector(tilde=tilde, minus1=minus1, chi=raw.euler())


def betti_of_complex(K, work_cap=DEFAULT_WORK_CAP):
    """Reduced Betti vector of a SimplicialComplex (exact, over Q).

    d∘d = 0 is checked on a sample of columns when K has fewer than
    200 000 simplices.  b̃_{-1} must be 1 exactly when K has no vertex,
    else InvariantViolated.
    """
    raw = RawComplex.from_simplicial(K)
    if K.size() < 200_000:
        raw.verify_dd_zero()
    bv = betti_of_raw(raw, work_cap=work_cap)
    if bv.minus1 != (0 if raw.count(0) else 1):
        raise InvariantViolated(
            f"degree -1 Betti number {bv.minus1} for a complex with "
            f"{raw.count(0)} vertices")
    return bv


def _core(P):
    """P's beat-point core (core, inc, ret), kept in P._cache."""
    if "core" not in P._cache:
        P._cache["core"] = beat_point_core(P)
    return P._cache["core"]


def betti_of_poset(P, work_cap=DEFAULT_WORK_CAP):
    """Reduced Betti vector of the order complex of P.

    Runs on P's beat-point core (same homotopy type, usually far
    smaller).  Cached on the poset per work_cap, so a call with another
    cap computes afresh and raises if the cap is too small.
    """
    key = ("betti", work_cap)
    if key in P._cache:
        return P._cache[key]
    bv = betti_of_complex(order_complex(_core(P)[0]), work_cap=work_cap)
    # the collapse preserves the homotopy type, so the reduced Euler
    # characteristic from chain counts on P itself must agree
    if bv.chi != P.reduced_euler():
        raise InvariantViolated(
            "core collapse changed the Euler characteristic")
    P._cache[key] = bv
    return bv


# -- chain maps and induced maps -----------------------------------------------------


def chain_map_from_poset_map(table, KS, KT):
    """Per-degree columns of the chain map induced by a vertex table.

    table[v] is the target vertex of source vertex v: a PosetMap's table,
    or the identity for a subcomplex inclusion.  Poset ids sit in linear
    extensions, so the image of a chain is a nondecreasing id tuple;
    degenerate images (repeats) map to 0, and all surviving coefficients
    are +1.
    """
    table = [int(v) for v in table]
    tidx = KT.index_maps()
    colmaps = {-1: [[(0, 1)]]}
    for k, simps in enumerate(KS.dims):
        cols = []
        if k < len(KT.dims):
            idx = tidx[k]
            for s in simps:
                img = tuple(table[v] for v in s)
                if all(img[t] < img[t + 1] for t in range(len(img) - 1)):
                    cols.append([(idx[img], 1)])
                else:
                    cols.append([])
        else:
            cols = [[] for _ in simps]
        colmaps[k] = cols
    return colmaps


def mapping_cone(rawS, rawT, colmaps):
    """Algebraic mapping cone of a chain map: Cone_k = T_k ⊕ S_{k-1}."""
    counts = {}
    cols = {}
    bottom = min(rawT.bottom, rawS.bottom + 1, -1)
    top = max(rawT.top, rawS.top + 1)
    for k in range(bottom, top + 1):
        counts[k] = rawT.count(k) + rawS.count(k - 1)
    for k in range(bottom + 1, top + 1):
        level = [list(c) for c in rawT.columns(k)]
        if len(level) < rawT.count(k):
            level += [[] for _ in range(rawT.count(k) - len(level))]
        offs = rawT.count(k - 1)
        fmap = colmaps.get(k - 1, [])
        scols = rawS.columns(k - 1)
        for j in range(rawS.count(k - 1)):
            col = list(fmap[j]) if j < len(fmap) else []
            if j < len(scols):
                col = col + [(offs + i, -v) for i, v in scols[j]]
            level.append(col)
        cols[k] = level
    return RawComplex(counts, cols)


def cone_rank_profile(rawS, rawT, colmaps, bettiS, bettiT,
                      work_cap=DEFAULT_WORK_CAP):
    """Ranks of the induced maps on reduced homology, degree by degree.

    Reads them off the long exact sequence of the mapping cone:
        dim H_k(Cone) = (b̃_k T - r_k) + (b̃_{k-1} S - r_{k-1}).
    The cone's boundary ranks come from the same reduction pairs and
    one elimination per residue boundary as a complex's (_rank_profile),
    a degree with no boundary read as rank 0.  Returns dict degree -> rank.
    Recovered ranks are checked against 0 <= r_k <= min(b̃_k S, b̃_k T);
    the sampled boundary check on the cone catches malformed chain maps
    with a clearer message first.
    """
    cone = mapping_cone(rawS, rawT, colmaps)
    cone.verify_dd_zero(sample=500)
    top = cone.top
    if top < -1:
        return {}
    ranks_d = _rank_profile(cone, work_cap)
    out = {}
    r_prev = 0
    for k in range(cone.bottom, max(rawS.top, rawT.top) + 1):
        hcone_k = cone.count(k) - ranks_d.get(k, 0) - ranks_d.get(k + 1, 0)
        r_k = bettiT.get(k) - hcone_k + bettiS.get(k - 1) - r_prev
        if not 0 <= r_k <= min(bettiS.get(k), bettiT.get(k)):
            raise InvariantViolated(
                f"cone rank recursion out of range at degree {k}: {r_k}")
        out[k] = r_k
        r_prev = r_k
    return out


@dataclass
class HomologyMapReport:
    """Induced map on reduced homology, per degree."""
    source_betti: BettiVector
    target_betti: BettiVector
    ranks: dict

    def rank(self, k):
        return self.ranks.get(k, 0)

    def is_zero(self):
        return all(r == 0 for r in self.ranks.values())

    def nonzero(self):
        return not self.is_zero()

    def epi_through(self, n):
        """Surjective on reduced homology in every degree <= n."""
        return all(self.rank(k) == self.target_betti.get(k)
                   for k in range(-1, n + 1))

    def mono_through(self, n):
        """Injective on reduced homology in every degree <= n."""
        return all(self.rank(k) == self.source_betti.get(k)
                   for k in range(-1, n + 1))


def induced_map(f, work_cap=DEFAULT_WORK_CAP):
    """Induced map on reduced homology of a PosetMap, as mapping-cone ranks.

    A beat-point core is a strong deformation retract (Stong 1966; Barmak
    and Minian 2008), so f has the ranks of g = ret_T ∘ f ∘ inc_S between
    the cached cores; g is checked order-preserving.  ranks has every
    degree from -1 to the larger poset height, as on the full complexes.
    """
    coreS, incS, _ = _core(f.source)
    coreT, _, retT = _core(f.target)
    g = PosetMap(coreS, coreT, retT[f.table[incS]])
    bettiS = betti_of_poset(f.source, work_cap=work_cap)
    bettiT = betti_of_poset(f.target, work_cap=work_cap)
    KS = order_complex(coreS)
    KT = order_complex(coreT)
    ranks = cone_rank_profile(RawComplex.from_simplicial(KS),
                              RawComplex.from_simplicial(KT),
                              chain_map_from_poset_map(g.table, KS, KT),
                              bettiS, bettiT, work_cap)
    top = max(f.source.height(), f.target.height())
    ranks = {k: ranks.get(k, 0) for k in range(-1, top + 1)}
    return HomologyMapReport(bettiS, bettiT, ranks)


# -- Kunneth and Mayer-Vietoris --------------------------------------------------------


@dataclass
class KunnethReport:
    left: BettiVector
    right: BettiVector
    join: BettiVector
    expected: tuple          # degrees -1, 0, 1, ... of the join
    ok: bool


def join_betti(bettis):
    """Degree -> reduced Betti number of the join of spaces with the given
    reduced Betti vectors: degree n collects the products b̃_i b̃_j over
    i + j = n - 1, and the empty join has b̃_{-1} = 1."""
    acc = {-1: 1}
    for b in bettis:
        nxt = {}
        for d1, v1 in acc.items():
            for d2 in range(-1, len(b.tilde)):
                v2 = b.get(d2)
                if v1 and v2:
                    nxt[d1 + d2 + 1] = nxt.get(d1 + d2 + 1, 0) + v1 * v2
        acc = nxt
    return acc


def kunneth_check(P, Q, work_cap=DEFAULT_WORK_CAP):
    """b̃_n(join) = sum_{i+j=n-1} b̃_i(P) b̃_j(Q), checked exactly.

    The degree -1 convention makes this cover empty factors too."""
    bP = betti_of_poset(P, work_cap=work_cap)
    bQ = betti_of_poset(Q, work_cap=work_cap)
    bJ = betti_of_poset(join_posets([P, Q]), work_cap=work_cap)
    top = len(bP.tilde) + len(bQ.tilde) + 1
    conv = join_betti([bP, bQ])
    expected = tuple(conv.get(n, 0) for n in range(-1, top + 1))
    actual = tuple(bJ.get(n) for n in range(-1, top + 1))
    return KunnethReport(left=bP, right=bQ, join=bJ, expected=expected,
                         ok=actual == expected)


def direct_sum_raw(rawA, rawB):
    """Direct sum of two raw complexes (both augmentations kept)."""
    counts = {}
    cols = {}
    lo = min(rawA.bottom, rawB.bottom)
    hi = max(rawA.top, rawB.top)
    for k in range(lo, hi + 1):
        counts[k] = rawA.count(k) + rawB.count(k)
    for k in range(lo + 1, hi + 1):
        offs = rawA.count(k - 1)
        level = [list(c) for c in rawA.columns(k)]
        if len(level) < rawA.count(k):
            level += [[] for _ in range(rawA.count(k) - len(level))]
        for col in rawB.columns(k):
            level.append([(offs + i, v) for i, v in col])
        cols[k] = level
    return RawComplex(counts, cols)


@dataclass
class MVRankAudit:
    ok: bool
    degrees: dict            # k -> per-degree numbers and consistency flag
    chi_additive: bool


def mv_rank_audit(U, ids_Y, ids_Z, work_cap=DEFAULT_WORK_CAP):
    """Mayer-Vietoris consistency audit for a chain-level cover of U.

    ids_Y and ids_Z index two subposets whose union is U and such that
    every chain of U lies wholly inside one part (checked; NotACover
    otherwise).  Verifies, degree by degree,
      b̃_k(U) = [b̃_k Y + b̃_k Z - rank α_k] + [b̃_{k-1}(Y ∩ Z) - rank α_{k-1}]
    where α is induced by the two inclusions H̃(Y ∩ Z) -> H̃(Y) ⊕ H̃(Z),
    plus additivity of the reduced Euler characteristic.
    """
    ids_Y = np.unique(np.asarray(ids_Y, dtype=np.int64))
    ids_Z = np.unique(np.asarray(ids_Z, dtype=np.int64))
    inY = np.zeros(U.n, dtype=bool)
    inY[ids_Y] = True
    inZ = np.zeros(U.n, dtype=bool)
    inZ[ids_Z] = True
    if not np.all(inY | inZ):
        raise NotACover("subposets do not cover the target")
    mask_z_only = 0
    for i in np.nonzero(inZ & ~inY)[0]:
        mask_z_only |= 1 << int(i)
    for i in np.nonzero(inY & ~inZ)[0]:
        i = int(i)
        if (U.up[i] & mask_z_only) or (U.down[i] & mask_z_only):
            raise NotACover(
                "a chain of the target mixes elements private to each part")
    PY, incY = U.induced(ids_Y)
    PZ, incZ = U.induced(ids_Z)
    ids_I = np.intersect1d(ids_Y, ids_Z)
    PI, _ = U.induced(ids_I)
    KY = order_complex(PY)
    KZ = order_complex(PZ)
    KI = order_complex(PI)
    rawY = RawComplex.from_simplicial(KY)
    rawZ = RawComplex.from_simplicial(KZ)
    rawI = RawComplex.from_simplicial(KI)
    rawYZ = direct_sum_raw(rawY, rawZ)
    bU = betti_of_poset(U, work_cap=work_cap)
    bY = betti_of_raw(rawY, work_cap=work_cap)
    bZ = betti_of_raw(rawZ, work_cap=work_cap)
    bI = betti_of_raw(rawI, work_cap=work_cap)
    bYZ = betti_of_raw(rawYZ, work_cap=work_cap)
    # α = (inclusion into Y, inclusion into Z), the Z half offset by Y's cells
    toY = chain_map_from_poset_map(np.searchsorted(incY, ids_I), KI, KY)
    toZ = chain_map_from_poset_map(np.searchsorted(incZ, ids_I), KI, KZ)
    colmaps = {k: [cy + [(rawY.count(k) + i, v) for i, v in cz]
                   for cy, cz in zip(toY[k], toZ[k])]
               for k in toY}
    ranks = cone_rank_profile(rawI, rawYZ, colmaps, bI, bYZ, work_cap)
    degrees = {}
    ok = True
    hi = 1 + max(len(bU.tilde), len(bY.tilde), len(bZ.tilde), len(bI.tilde))
    for k in range(0, hi):
        lhs = bU.get(k)
        rhs = (bY.get(k) + bZ.get(k) - ranks.get(k, 0)) + (
            bI.get(k - 1) - ranks.get(k - 1, 0))
        degrees[k] = {
            "bU": bU.get(k), "bY": bY.get(k), "bZ": bZ.get(k),
            "bI": bI.get(k), "alpha": ranks.get(k, 0),
            "consistent": lhs == rhs,
        }
        ok = ok and lhs == rhs
    chi_additive = (PI.reduced_euler() + U.reduced_euler()
                    == PY.reduced_euler() + PZ.reduced_euler())
    return MVRankAudit(ok=ok and chi_additive, degrees=degrees,
                       chi_additive=chi_additive)

"""Exact rational homology of simplicial complexes, and induced maps.

All homology here is reduced and over Q, computed with exact arithmetic
(no floating point anywhere) from integer boundary and chain-map
matrices, each one Boundary in CSR form: a boundary's rows are the
complex's face table as it stands, and a chain map's are found by one
SimplicialComplex.index call per degree.

Every rank profile, of a complex or of a mapping cone, runs in one
function, _rank_profile, in two stages.  First reduction pairs, over all
degrees at once (Kaczyński, Mrozek and Ślusarek, "Homology computation
by reduction of chain complexes", 1998; Mrozek and Batko, "Coreduction
homology algorithm", 2009): a coreduction pairs b with its only live
face a, a collapse pairs a with its only live coface b.  Such a pair has
no fill, so what is left, the residue, is raw's boundary restricted to
the live cells, with raw's homology, and
    rank ∂_k(raw) = rank ∂_k(residue) + #pairs in degrees (k-1, k).
The search goes in frontier rounds (_morse_rounds): each round takes a
batch of pairs with no cell in common, read off the cells the last round
touched, and defers the candidates it cannot take, so it costs a few
numpy calls and work linear in the entries it reads.  A long path, which
frees one pair per round, is its worst case.  The matching is an exact
certificate: a replay that shares no code with the search checks every
pair was elementary when it was removed.  On most cores' order
complexes the residue is the Betti numbers alone, with a zero boundary.
The search stops where every live cell has at least two live faces and
two live cofaces, as on a component with cycles that the first pair, a
vertex with the empty cell, never reaches.

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

Results are kept by what they are computed from, so equal posets and
maps built apart are ranked once: a Betti vector under its core's order
in Poset.results, the store of the poset's load, and an induced-map
report under the two cores' orders and the map between them in
PosetMap.results, the store of the OrbitContext that built the map.
A key holds the work_cap and a crc32 of each array, and a hit is
checked against the arrays kept beside the result, so only equal
contents share one (_kept).  The stores keep no complex.

Self-checks raise InvariantViolated, so they also run under
``python -O``: on every simplicial boundary, rows rising strictly and
each face position naming the row less that entry (which gives
d∘d = 0); images present; boundary shapes; d∘d = 0 on every column of
every mapping cone; the replayed matching, pivot rows distinct, in
range and one per unit of rank, ranks no more than the columns,
boundary ranks within their matrix shape, nonnegative Betti numbers (b̃_{-1} = 1
exactly for the empty complex), the Euler characteristic across the
core collapse and the cone-rank range.  The replay proves the ranks the
pairs account for; the residue's own ranks are proved only when its
boundary is zero.  An undercount there that keeps every number in range
passes.
"""

import heapq
import math
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolated, MatrixCapExceeded
from .posets import (PosetMap, _drop, beat_point_core, join_posets,
                     order_complex, row_ptr)

DEFAULT_WORK_CAP = 400_000_000


# -- raw chain complexes ---------------------------------------------------------


class Boundary:
    """An integer matrix in CSR form by columns: column j holds rows
    rows[ptr[j]:ptr[j+1]] with values vals[ptr[j]:ptr[j+1]], all int64.
    As a sequence, len is the column count and B[j], like each item of
    iter(B), is column j as a list of (row, value)."""

    def __init__(self, ptr, rows, vals):
        self.ptr, self.rows, self.vals = (np.asarray(x, dtype=np.int64)
                                          for x in (ptr, rows, vals))

    def __len__(self):
        return len(self.ptr) - 1

    def __getitem__(self, j):
        lo, hi = self.ptr[j], self.ptr[j + 1]
        return list(zip(self.rows[lo:hi].tolist(), self.vals[lo:hi].tolist()))

    def __iter__(self):
        entries = list(zip(self.rows.tolist(), self.vals.tolist()))
        ptr = self.ptr.tolist()
        return (entries[lo:hi] for lo, hi in zip(ptr, ptr[1:]))

    def owners(self):
        """The column of each entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.ptr))


def _check_faces(K, k):
    """InvariantViolated unless K's degree-k rows rise strictly and its
    degree-k face table is right: face t of row i, for t <= k, is the
    position in degree k - 1 of row i less its entry t (0, the empty
    simplex, for a vertex)."""
    simps, face = K.dims[k], K.faces[k]
    if face.shape != simps.shape:
        raise InvariantViolated(f"the degree-{k} face table has shape "
                                f"{face.shape}, not {simps.shape}")
    step = np.diff(simps, axis=0)
    if (step[np.arange(len(step)), np.argmax(step != 0, axis=1)] <= 0).any():
        raise InvariantViolated(f"degree-{k} rows do not rise strictly")
    below = K.dims[k - 1] if k else np.zeros((1, 0), dtype=np.int64)
    if ((face < 0) | (face >= len(below))).any():
        raise InvariantViolated(f"a degree-{k} face is missing")
    if k and not np.array_equal(below[face], simps[:, _drop(k)]):
        raise InvariantViolated(
            f"a degree-{k} face position names another row")


def _stack(ncols, parts):
    """One Boundary of ncols columns from parts (B, col_shift, row_shift,
    sign): entry (i, v) of B's column j lands in column col_shift + j as
    (row_shift + i, sign * v).  One stable argsort by column keeps each
    column's entries in part order, and in B's order within a part.
    Mapping cones are stacked here."""
    col, rows, vals = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
    for B, cs, rs, sign in parts:
        col.append(B.owners() + cs)
        rows.append(B.rows + rs)
        vals.append(B.vals * sign)
    col = np.concatenate(col)
    order = np.argsort(col, kind="stable")
    ptr = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=ncols))))
    return Boundary(ptr, np.concatenate(rows)[order],
                    np.concatenate(vals)[order])


class RawComplex:
    """Integer chain complex given by cell counts and boundary matrices.

    counts maps degree -> number of cells, cols maps degree k -> the
    Boundary of C_k -> C_{k-1}, one column per cell of degree k with rows
    among the cells of degree k - 1 (InvariantViolated otherwise); a
    degree left out of cols has a zero boundary.  Augmented simplicial
    complexes store the empty simplex in degree -1.
    """

    def __init__(self, counts, cols):
        self.counts = dict(counts)
        self.cols = dict(cols)
        for k, B in self.cols.items():
            if len(B) != self.count(k):
                raise InvariantViolated(f"degree {k} has {len(B)} columns "
                                        f"for {self.count(k)} cells")
            if not np.all((0 <= B.rows) & (B.rows < self.count(k - 1))):
                raise InvariantViolated(f"a degree-{k} row falls outside "
                                        f"the {self.count(k - 1)} cells below")

    @classmethod
    def from_simplicial(cls, K):
        """Boundary of K: face t, the row less entry t, has sign (-1)^t,
        so a degree-k column has k + 1 entries and ptr is
        arange(m + 1)·(k + 1).  The rows are K's face table as it is: a
        degree's (m, k + 1) table read row by row is its columns, so the
        boundary's rows are a view of it.  Before use the table is
        checked (_check_faces): each degree's rows rise strictly and
        every face position names the row less that entry, else
        InvariantViolated.  By the simplicial identities that gives
        d∘d = 0, and it also refuses a wrong face that would cancel."""
        counts = {-1: 1}
        cols = {}
        for k, simps in enumerate(K.dims):
            m = counts[k] = len(simps)
            _check_faces(K, k)
            cols[k] = Boundary(np.arange(m + 1) * (k + 1), K.faces[k].ravel(),
                               np.tile(1 - 2 * (np.arange(k + 1) % 2), m))
        return cls(counts, cols)

    def count(self, k):
        return self.counts.get(k, 0)

    def columns(self, k):
        return self.cols[k] if k in self.cols else Boundary(
            np.zeros(self.count(k) + 1), (), ())

    @property
    def top(self):
        return max((k for k, c in self.counts.items() if c), default=-2)

    @property
    def bottom(self):
        return min((k for k, c in self.counts.items() if c), default=-1)

    def euler(self):
        """Alternating sum of cell counts over every stored degree."""
        return sum(c if k % 2 == 0 else -c for k, c in self.counts.items())

    def verify_dd_zero(self):
        """Check d∘d = 0 on every column: entry (i, v) of column j of ∂_k
        meets each entry (r, w) of column i of ∂_{k-1}, and the int64 sums
        of v * w per (j, r), exact for ±1 entries, must all be 0."""
        for k in sorted(self.cols):
            if k - 1 not in self.cols:
                continue
            B, A = self.cols[k], self.cols[k - 1]
            lens = np.diff(A.ptr)[B.rows]
            at = np.repeat(A.ptr[B.rows] - np.cumsum(lens) + lens, lens) \
                + np.arange(lens.sum())
            n = max(1, self.count(k - 2))
            key = np.repeat(B.owners() * n, lens) + A.rows[at]
            prod = np.repeat(B.vals, lens) * A.vals[at]
            order = np.argsort(key, kind="stable")
            key, prod = key[order], prod[order]
            first = np.flatnonzero(np.diff(key, prepend=-1))
            bad = first[np.add.reduceat(prod, first) != 0]
            if len(bad):
                raise InvariantViolated(
                    f"boundary composite nonzero at degree {k}, column "
                    f"{key[bad[0]] // n}")


# -- sparse exact rank ------------------------------------------------------------


def sparse_rank(columns, work_cap=DEFAULT_WORK_CAP):
    """Rank over Q of an integer matrix given as a Boundary, with the
    rows of its pivots: returns (rank, pivot_rows).

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


def _entries(ptr, cells):
    """Positions of the entries of CSR rows cells, row after row."""
    lens = ptr[cells + 1] - ptr[cells]
    return np.repeat(ptr[cells] - np.cumsum(lens) + lens, lens) \
        + np.arange(lens.sum())


def _cell_offsets(raw):
    """(degrees, first): cell j of degree k is cell first[k - raw.bottom]
    + j of the whole complex, so each boundary is one block of its n x n
    face matrix."""
    degrees = range(raw.bottom, raw.top + 1)
    return degrees, np.cumsum([0] + [raw.count(k) for k in degrees])


def _morse_rounds(raw, work_cap):
    """The reduction pair search, one round at a time: yields each
    round's pairs as two arrays (a, b) of cells of the whole complex
    (_cell_offsets), cell a of degree k with cell b of degree k + 1.

    The faces are raw's boundaries, each already in column order,
    concatenated into one CSR over the whole complex, and the cofaces
    are its transpose, by one argsort of the distinct keys row·n +
    column.  A round reads only its frontier.  It takes the frontier's
    coreduction candidates: b with one live face entry a, with a nonzero
    coefficient.  If there are none, it takes the collapse candidates: a
    with one live coface entry b, with a nonzero coefficient.  It keeps
    the first pair of each a and of each b, in candidate order, and drops
    a pair whose a is another kept pair's b.  The kept pairs then share
    no cell, and removing the others only lowers live counts, so each
    stays elementary: any order of them is a valid matching, and they
    come in candidate order.  The next frontier is the candidates left
    over (the collapse candidates too in a coreduction round), plus the
    cofaces and, once live cofaces are counted, the faces of the cells
    just removed: only their counts changed.  The first frontier is the
    cells with one face entry, so the first pair is a vertex with the
    empty cell.  Live cofaces are counted from the first round with no
    coreduction on, when the frontier is every live cell with one.  The
    search ends at a round with no candidate of either kind.  Every entry
    read counts against work_cap (MatrixCapExceeded past it).
    """
    degrees, first = _cell_offsets(raw)
    n = int(first[-1])
    parts = [raw.columns(k) for k in degrees]
    fp = np.concatenate([np.zeros(1, dtype=np.int64)] + [
        B.ptr[1:] + shift for B, shift in zip(
            parts, np.cumsum([0] + [len(B.rows) for B in parts]))])
    fr = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        B.rows + (first[d - 1] if d else 0) for d, B in enumerate(parts)])
    fv = np.concatenate([np.zeros(0, dtype=np.int64)]
                        + [B.vals for B in parts])
    owner = np.repeat(np.arange(n), np.diff(fp))
    # cofaces: the transpose, each row's entries in owner order
    by_row = np.argsort(fr * n + owner)
    cp = row_ptr(fr, n)
    cof, cv = owner[by_row], fv[by_row]
    live = np.ones(n, dtype=bool)
    nf = np.diff(fp)
    nc = None
    mark = np.zeros(n, dtype=bool)
    frontier = np.flatnonzero(nf == 1)
    work = 0
    while True:
        cells = frontier[live[frontier]]
        lead = cells[nf[cells] == 1]
        e = _entries(fp, lead)
        work += len(cells) + len(e)
        e = e[live[fr[e]]]
        a, v = fr[e], fv[e]
        b = lead
        coreduction = bool(v.any())
        if not coreduction:
            if nc is None:
                nc = np.bincount(fr[live[owner]], minlength=n)
                cells = np.flatnonzero(live & (nc == 1))
                work += len(fr)
            lead = a = cells[nc[cells] == 1]
            e = _entries(cp, lead)
            work += len(e)
            e = e[live[cof[e]]]
            b, v = cof[e], cv[e]
            if not v.any():
                return
        ok = v != 0
        a, b, lead = a[ok], b[ok], lead[ok]
        # the first pair of each partner, then none whose a is a kept b
        keep = np.zeros(len(lead), dtype=bool)
        partner = a if coreduction else b
        by_cell = np.argsort(partner * len(partner) + np.arange(len(partner)))
        ranked = partner[by_cell]
        keep[by_cell[np.diff(ranked, prepend=-1) != 0]] = True
        mark[b[keep]] = True
        keep &= ~mark[a]
        mark[b] = False
        rest = [lead[~keep]]
        if coreduction and nc is not None:
            rest.append(cells[nc[cells] == 1])
        a, b = a[keep], b[keep]
        live[a] = live[b] = False
        gone = np.concatenate((a, b))
        e = _entries(cp, gone)
        np.subtract.at(nf, cof[e], 1)
        rest.append(cof[e])
        work += len(e)
        if nc is not None:
            e = _entries(fp, gone)
            np.subtract.at(nc, fr[e], 1)
            rest.append(fr[e])
            work += len(e)
        if work > work_cap:
            raise MatrixCapExceeded(f"reduction work exceeded {work_cap}")
        # sorted and deduplicated by a sort: numpy's hash-based unique is
        # several times slower here
        frontier = np.sort(np.concatenate(rest))
        frontier = frontier[np.diff(frontier, prepend=-1) != 0]
        yield a, b


def _morse_pairs(raw, work_cap):
    """Reduction pairs of a raw complex, over all degrees at once.

    Returns (pairs, live): pairs is an int64 array of rows (k, a, b) in
    removal order, cell a of degree k with cell b of degree k + 1, round
    after round of _morse_rounds, and live[k] is a bytearray with 1 for
    each degree-k cell left, the residue.  A pair is a coreduction (b has
    one live face entry, a) or a collapse (a has one live coface entry,
    b), with a nonzero coefficient.  The order is fixed by raw alone.

    Rounds take whole batches of pairs, so on an order complex's core the
    search ends in a few dozen numpy rounds.  Its worst case is a long
    thin complex: a path frees one pair per round, so its rounds number
    its edges, each a few numpy calls on a handful of cells.  Each round
    reads only the cells whose counts the last one changed, so the work
    stays linear in the entries.
    """
    degrees, first = _cell_offsets(raw)
    ab = [np.zeros((2, 0), dtype=np.int64)]
    ab += [np.stack(r) for r in _morse_rounds(raw, work_cap)]
    a, b = np.concatenate(ab, axis=1)
    left = np.ones(int(first[-1]), dtype=np.uint8)
    left[a] = left[b] = 0
    deg = np.searchsorted(first, a, side="right") - 1
    pairs = np.stack((deg + raw.bottom, a - first[deg], b - first[deg + 1]),
                     axis=1)
    return pairs, {k: bytearray(left[first[d]:first[d + 1]])
                   for d, k in enumerate(degrees)}


def _replay_pairs(raw, pairs, live):
    """Check a matching against the boundary entries alone.

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
    size = np.array([raw.count(d) for d in range(raw.bottom, raw.top + 2)])
    # cell j of degree k is starts[k - raw.bottom] + j
    starts = np.concatenate(([0], np.cumsum(size)))
    n = int(starts[-1])
    owner, face, value = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
    for d, k in enumerate(degrees[1:], 1):
        B = raw.columns(k)
        owner.append(starts[d] + np.repeat(np.arange(len(B)), np.diff(B.ptr)))
        face.append(starts[d - 1] + B.rows)
        value.append(B.vals)
    owner, face, value = map(np.concatenate, (owner, face, value))
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 3)
    npairs = len(pairs)
    k, a, b = pairs.T
    if npairs and not (np.all((k >= raw.bottom) & (k < raw.top))
                       and np.all((0 <= a) & (a < size[k - raw.bottom]))
                       and np.all((0 <= b) & (b < size[k + 1 - raw.bottom]))):
        raise InvariantViolated("a pair names no cell of the complex")
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
    for d, k in enumerate(degrees):
        kept = when[starts[d]:starts[d + 1]] == npairs
        if not np.array_equal(np.frombuffer(live[k], dtype=np.uint8) != 0,
                              kept):
            raise InvariantViolated(
                f"replayed degree-{k} residue differs from the search's")


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
    """The subcomplex of raw on the live cells: each boundary masked to
    the live columns and rows, renumbered in order."""
    keep = {k: np.frombuffer(flags, dtype=np.uint8) != 0
            for k, flags in live.items()}
    cols = {}
    for k, mask in keep.items():
        if k - 1 in keep:
            B = raw.columns(k)
            j = B.owners()
            ok = mask[j] & keep[k - 1][B.rows]
            lens = np.bincount(j[ok], minlength=len(B))[mask]
            cols[k] = Boundary(np.concatenate(([0], np.cumsum(lens))),
                               np.cumsum(keep[k - 1])[B.rows[ok]] - 1,
                               B.vals[ok])
    return RawComplex({k: int(mask.sum()) for k, mask in keep.items()}, cols)


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

    Every face row is checked (RawComplex.from_simplicial), which gives
    d∘d = 0.  b̃_{-1} must be 1 exactly when K has no vertex, else
    InvariantViolated.
    """
    raw = RawComplex.from_simplicial(K)
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


def _fingerprint(*arrays):
    """A dict key for int64 arrays by content: each one's size and crc32.
    Equal arrays give equal keys; _kept checks a hit against the arrays
    themselves, so two contents that share a key never share a result."""
    return tuple((a.size, zlib.crc32(np.ascontiguousarray(a, dtype=np.int64)))
                 for a in arrays)


def _kept(store, key, arrays, compute):
    """The result store keeps under key for these arrays, else compute()'s,
    kept there with the arrays.  A hit counts only when the kept arrays
    equal these; otherwise the new content takes the key."""
    entry = store.get(key)
    if entry is None or not all(np.array_equal(a, b)
                                for a, b in zip(entry[0], arrays)):
        entry = store[key] = arrays, compute()
    return entry[1]


def betti_of_poset(P, work_cap=DEFAULT_WORK_CAP):
    """Reduced Betti vector of the order complex of P.

    Runs on P's beat-point core (same homotopy type, usually far
    smaller).  The vector is kept in P.results, the load's store, under
    the core's order (ptr and ids) and the work_cap: every poset of the
    load with an equal core shares it, and a call with another cap
    computes afresh and raises if the cap is too small.  P's own reduced
    Euler characteristic is checked against it on every call.
    """
    core = _core(P)[0]
    order = (core.ptr, core.ids)
    bv = _kept(P.results, ("betti", work_cap, _fingerprint(*order)), order,
               lambda: betti_of_complex(order_complex(core),
                                        work_cap=work_cap))
    # the collapse preserves the homotopy type, so the reduced Euler
    # characteristic from chain counts on P itself must agree
    if bv.chi != P.reduced_euler():
        raise InvariantViolated(
            "core collapse changed the Euler characteristic")
    return bv


# -- chain maps and induced maps -----------------------------------------------------


def chain_map_from_poset_map(table, KS, KT):
    """Per-degree Boundary of the chain map induced by a vertex table.

    table[v] is the target vertex of source vertex v: a PosetMap's table,
    or the identity for a subcomplex inclusion.  Poset ids sit in linear
    extensions, so the image of a chain is a nondecreasing id row;
    degenerate images (repeats) map to 0, and all surviving coefficients
    are +1.  One KT.index call per degree finds the images; a
    nondegenerate image missing from KT raises InvariantViolated.
    """
    table = np.asarray(table, dtype=np.int64)
    colmaps = {-1: Boundary([0, 1], [0], [1])}
    for k, simps in enumerate(KS.dims):
        img = table[simps]
        nondeg = (img[:, 1:] > img[:, :-1]).all(axis=1)
        rows = KT.index(k, img[nondeg])
        if (rows < 0).any():
            raise InvariantViolated(f"a degree-{k} image is not in the target")
        colmaps[k] = Boundary(np.concatenate(([0], np.cumsum(nondeg))), rows,
                              np.ones(len(rows)))
    return colmaps


def mapping_cone(rawS, rawT, colmaps):
    """Algebraic mapping cone of a chain map: Cone_k = T_k ⊕ S_{k-1}, a
    column of S_{k-1} holding its image under colmaps, then minus its
    boundary."""
    counts = {}
    cols = {}
    bottom = min(rawT.bottom, rawS.bottom + 1, -1)
    top = max(rawT.top, rawS.top + 1)
    for k in range(bottom, top + 1):
        counts[k] = rawT.count(k) + rawS.count(k - 1)
    for k in range(bottom + 1, top + 1):
        nT = rawT.count(k)
        f = colmaps.get(k - 1, Boundary([0], (), ()))
        cols[k] = _stack(counts[k], [
            (rawT.columns(k), 0, 0, 1), (f, nT, 0, 1),
            (rawS.columns(k - 1), nT, rawT.count(k - 1), -1)])
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
    the boundary check on the cone, on every column, catches malformed
    chain maps with a clearer message first.
    """
    cone = mapping_cone(rawS, rawT, colmaps)
    cone.verify_dd_zero()
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
    The report is kept in f.results (PosetMap) under the two cores'
    orders, g's table, that height and the work_cap, so maps that share
    a store share one report when they are equal, and the cores'
    complexes are built once; a call with another cap computes afresh
    and raises if it is too small.
    """
    coreS, incS, _ = _core(f.source)
    coreT, _, retT = _core(f.target)
    g = PosetMap(coreS, coreT, retT[f.table[incS]])
    bettiS = betti_of_poset(f.source, work_cap=work_cap)
    bettiT = betti_of_poset(f.target, work_cap=work_cap)
    top = max(f.source.height(), f.target.height())

    def report():
        KS = order_complex(coreS)
        KT = order_complex(coreT)
        ranks = cone_rank_profile(RawComplex.from_simplicial(KS),
                                  RawComplex.from_simplicial(KT),
                                  chain_map_from_poset_map(g.table, KS, KT),
                                  bettiS, bettiT, work_cap)
        return HomologyMapReport(
            bettiS, bettiT, {k: ranks.get(k, 0) for k in range(-1, top + 1)})

    arrays = (coreS.ptr, coreS.ids, coreT.ptr, coreT.ids, g.table)
    return _kept(f.results, ("induced", work_cap, top, _fingerprint(*arrays)),
                 arrays, report)


# -- Kunneth ---------------------------------------------------------------------


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


def kunneth_check(P, Q):
    """b̃_n(join) = sum_{i+j=n-1} b̃_i(P) b̃_j(Q), checked exactly.

    The degree -1 convention makes this cover empty factors too."""
    bP = betti_of_poset(P)
    bQ = betti_of_poset(Q)
    bJ = betti_of_poset(join_posets([P, Q]))
    top = len(bP.tilde) + len(bQ.tilde) + 1
    conv = join_betti([bP, bQ])
    expected = tuple(conv.get(n, 0) for n in range(-1, top + 1))
    actual = tuple(bJ.get(n) for n in range(-1, top + 1))
    return KunnethReport(left=bP, right=bQ, join=bJ, expected=expected,
                         ok=actual == expected)

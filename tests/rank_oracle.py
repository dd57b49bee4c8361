"""Dense Fraction reference for ranks and induced maps in homology.

Deliberately naive and independent of quillen.homology: chains are
enumerated by brute force, boundaries and chain maps are built here, and
ranks come from plain Gaussian elimination over Q on dense matrices.
Tests compare the sparse kernels against it on small inputs only.  csr
only packs hand-written columns into quillen's Boundary format.
"""

from fractions import Fraction

from quillen.homology import Boundary


def csr(columns):
    """The Boundary of columns given as lists of (row, value)."""
    ptr, rows, vals = [0], [], []
    for col in columns:
        for i, v in col:
            rows.append(i)
            vals.append(v)
        ptr.append(len(rows))
    return Boundary(ptr, rows, vals)


def _rref(rows):
    """Reduced row echelon form in place; returns the pivot columns."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                m = rows[i][c]
                rows[i] = [a - m * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def dense_rank(columns, nrows):
    """Rank over Q of the matrix whose columns are the given vectors."""
    rows = [[Fraction(col[i]) for col in columns] for i in range(nrows)]
    return len(_rref(rows))


def chains(P):
    """Cells of the augmented order complex of P: cells[k + 1] lists the
    k-simplices (chains of k + 1 elements, ids increasing), cells[0] the
    empty simplex."""
    cells = [[()]]
    level = [(i,) for i in range(P.n)]
    while level:
        cells.append(level)
        level = [c + (j,) for c in level
                 for j in P.ids[P.ptr[c[-1]]:P.ptr[c[-1] + 1]].tolist()]
    return cells


def _cells(cells, k):
    return cells[k + 1] if 0 <= k + 1 < len(cells) else []


def _boundary(cells, k):
    """Boundary C_k -> C_{k-1} as dense columns."""
    faces = {s: i for i, s in enumerate(_cells(cells, k - 1))}
    out = []
    for s in _cells(cells, k):
        col = [Fraction(0)] * len(faces)
        for t in range(len(s)):
            col[faces[s[:t] + s[t + 1:]]] += (-1) ** t
        out.append(col)
    return out


def _cycles(cells, k):
    """Basis of Z_k, the kernel of the boundary out of degree k."""
    cols = _boundary(cells, k)
    n = len(cols)
    rows = [[col[i] for col in cols] for i in range(len(_cells(cells, k - 1)))]
    pivots = _rref(rows)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        z = [Fraction(0)] * n
        z[free] = Fraction(1)
        for r, c in enumerate(pivots):
            z[c] = -rows[r][free]
        basis.append(z)
    return basis


def _image(table, s, index):
    """(row, sign) of the image of simplex s, or None if it degenerates."""
    img = [int(table[v]) for v in s]
    if len(set(img)) < len(img):
        return None
    order = sorted(range(len(img)), key=img.__getitem__)
    inversions = sum(order[a] > order[b] for a in range(len(order))
                     for b in range(a + 1, len(order)))
    return index[tuple(sorted(img))], (-1) ** inversions


def induced_ranks(f):
    """rank H̃_k(f) = rank[f_k Z_k(S) | B_k(T)] - rank B_k(T), per degree,
    for a PosetMap f, on the augmented order complexes (so reduced)."""
    cS, cT = chains(f.source), chains(f.target)
    out = {}
    for k in range(-1, max(len(cS), len(cT)) - 1):
        index = {s: i for i, s in enumerate(_cells(cT, k))}
        images = []
        for z in _cycles(cS, k):
            w = [Fraction(0)] * len(index)
            for s, c in zip(_cells(cS, k), z):
                hit = _image(f.table, s, index) if c else None
                if hit:
                    w[hit[0]] += c * hit[1]
            images.append(w)
        bounds = _boundary(cT, k + 1)
        out[k] = (dense_rank(images + bounds, len(index))
                  - dense_rank(bounds, len(index)))
    return out

"""Tuple-and-dict reference for order complexes, boundaries and chain maps.

quillen stores the simplices of each degree as one int64 array, grows
each degree's face table with its chains and finds images with one row
lookup.  These are the loops it replaced: chains grown as Python tuples,
and faces and images found through one tuple -> index dict per degree.  Tests require the arrays to agree with
them row for row, in order, and column for column.  Relations are read
through the set-of-pairs reference in relation_oracle.
"""

from relation_oracle import relation, star


def tuple_chains(P):
    """The nonempty chains of P, per dimension, as sorted id tuples."""
    above = [[] for _ in range(P.n)]
    for a, b in sorted(relation(P)):
        above[a].append(b)
    dims = []
    level = [(i,) for i in range(P.n)]
    while level:
        dims.append(sorted(level))
        level = [ch + (j,) for ch in level for j in above[ch[-1]]]
    return dims


def tuple_dims(K):
    """K's simplices, per dimension, as lists of tuples."""
    return [list(map(tuple, d.tolist())) for d in K.dims]


def _index_maps(dims):
    return [{s: k for k, s in enumerate(d)} for d in dims]


def dict_boundary(dims):
    """{k: columns} of the boundary of tuple simplices: face t of s, s
    without its entry t, with sign (-1)^t; vertices have the empty cell."""
    idx = _index_maps(dims)
    cols = {0: [[(0, 1)] for _ in dims[0]]} if dims else {}
    for k in range(1, len(dims)):
        cols[k] = [[(idx[k - 1][s[:t] + s[t + 1:]], (-1) ** t)
                    for t in range(len(s))] for s in dims[k]]
    return cols


def dict_faces(dims):
    """Per degree, the face positions of tuple simplices: row i, entry t
    is the index of simplex i without its entry t in the degree below,
    0 (the empty simplex) for a vertex."""
    idx = _index_maps(dims)
    out = [[[0] for _ in dims[0]]] if dims else []
    for k in range(1, len(dims)):
        out.append([[idx[k - 1][s[:t] + s[t + 1:]] for t in range(len(s))]
                    for s in dims[k]])
    return out


def dict_chain_map(table, dimsS, dimsT):
    """{k: columns} of the chain map of a vertex table between tuple
    simplices: a nondegenerate image maps to its index with +1, a
    degenerate one to 0."""
    idx = _index_maps(dimsT)
    colmaps = {-1: [[(0, 1)]]}
    for k, simps in enumerate(dimsS):
        cols = []
        for s in simps:
            img = tuple(int(table[v]) for v in s)
            if all(a < b for a, b in zip(img, img[1:])):
                cols.append([(idx[k][img], 1)])
            else:
                cols.append([])
        colmaps[k] = cols
    return colmaps


def k0_and_k0hat(jd, dims):
    """OrbitContext.complexes()'s K0 and K0hat from the tuple simplices
    of K(X), one simplex at a time: K0 keeps the chains that miss an
    active factor, K0hat those inside the star of some factor's base
    vertex, tested on vertex sets."""
    rel = relation(jd.X)
    stars = [star(rel, jd.blocks[j][0]) for j in jd.active]
    k0, hat = [], []
    for simps in dims:
        k0.append([s for s in simps if len({int(jd.factor_of[v]) for v in s})
                   < len(jd.active)])
        hat.append([s for s in simps
                    if any(set(s) <= st for st in stars)])
    return k0, hat

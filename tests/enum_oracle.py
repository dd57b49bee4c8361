"""Group enumeration by a dict BFS of the Cayley graph, the reference
for PermGroup.generate.

Every product row f∘g of a level, generator by generator and row by
row, becomes its int16 bytes; the level's keys are deduplicated in
first-seen order by a dict, and those not yet indexed take the next
indices.  Tests require generate to give the same rows and generator
indices, an element index that numbers every row as this index does,
and to pass an order cap exactly where this does.
"""

import numpy as np

from quillen.errors import OrderCapExceeded
from quillen.groups import DEFAULT_ORDER_CAP, _as_perm_rows


def enumerate_group(gen_rows, degree, order_cap=DEFAULT_ORDER_CAP):
    """(perms, gens, index) of the group the rows generate: perms the
    rows in index order, gens the deduplicated generators' indices ((0,)
    for none), index the dict from a row's bytes to its index."""
    rows = _as_perm_rows(gen_rows, degree)
    ident = np.arange(degree, dtype=np.int16)
    index = {ident.tobytes(): 0}
    gen_rows_u = []
    for r in rows:
        key = np.ascontiguousarray(r, dtype=np.int16).tobytes()
        if key not in index and all(key != g.tobytes() for g in gen_rows_u):
            gen_rows_u.append(np.ascontiguousarray(r, dtype=np.int16))
    gen_cols = np.array(gen_rows_u, dtype=np.int16).reshape(
        len(gen_rows_u), degree)
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
    gens = tuple(index[g.tobytes()] for g in gen_rows_u) or (0,)
    return np.concatenate(levels), gens, index

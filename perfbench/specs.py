"""Seeded relabeling of the benchmark's groups into generator spec files.

Every group a workload uses is rebuilt from its spec's generators after
conjugating each generator (and each declared component generator) by one
seeded random permutation of the points, with the generator order
shuffled.  The result is written as a ``construction: "generators"`` spec,
so the program under test only ever sees the relabeled files.  Every
pinned answer of the benchmark is invariant under relabeling; the seed
changes the element and subgroup enumeration order, and with it the work
order.
"""

import json
import random
from importlib import resources
from pathlib import Path

import numpy as np

from quillen.gspec import _build_rows
from quillen.perms import format_cycles, parse_cycles

# Spec of the rung above sym8; it is not among the bundled groups.
EXTRA = {
    "alt9": {"name": "alt9", "construction": "alternating", "degree": 9,
             "order": 181440},
}


def source_spec(name):
    """The raw spec dict of a bundled group or of one in EXTRA."""
    if name in EXTRA:
        return dict(EXTRA[name])
    text = resources.files("quillen").joinpath("data", f"{name}.spec").read_text()
    return json.loads(text)


def relabel(raw, rng):
    """Return (relabeled generators spec, relabeling permutation)."""
    degree, rows = _build_rows(raw)[:2]
    sigma = np.array(rng.sample(range(degree), degree))
    inv = np.argsort(sigma)

    def conj(row):
        # sigma g sigma^-1 sends sigma(x) to sigma(g(x))
        return format_cycles(sigma[np.asarray(row)[inv]])

    gens = [conj(r) for r in rows]
    rng.shuffle(gens)
    out = {"name": raw.get("name", ""), "construction": "generators",
           "degree": degree, "generators": gens}
    if "order" in raw:
        out["order"] = raw["order"]
    if "components" in raw:
        out["components"] = [[conj(parse_cycles(s, degree)) for s in comp]
                             for comp in raw["components"]]
    return out, sigma


def write_specs(names, seed, out_dir):
    """Write one relabeled spec per group name; return {name: record}.

    Each record holds the spec path and the relabeling permutation in
    1-based image notation (point i goes to perm[i - 1]).
    """
    rng = random.Random(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = {}
    for name in names:
        spec, sigma = relabel(source_spec(name), rng)
        path = out_dir / f"{name}.spec"
        path.write_text(json.dumps(spec, indent=1) + "\n")
        records[name] = {"spec": str(path),
                         "relabeling": [int(x) + 1 for x in sigma]}
    return records

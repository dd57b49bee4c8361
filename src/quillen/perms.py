"""Permutation words and cycle notation.

Permutations are numpy integer arrays p of shape (degree,), acting on
points 0..degree-1, with composition (p*q)(x) = p(q(x)).  Spec files and
reports use 1-based cycle notation like "(1 2)(3 4 5)"; everything
internal is 0-based.
"""

import re

import numpy as np

from .errors import NonPermutationGenerator

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree):
    """Parse 1-based cycle notation into a permutation array.

    Accepts "()" and "" for the identity.  Points may be separated by
    spaces or commas.  Raises NonPermutationGenerator on repeated points
    or points outside 1..degree.
    """
    p = np.arange(degree, dtype=np.int64)
    stripped = text.strip()
    if stripped in ("", "()"):
        return p
    if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", stripped):
        raise NonPermutationGenerator(f"bad cycle syntax: {text!r}")
    seen = set()
    for body in _CYCLE_RE.findall(stripped):
        pts = [s for s in re.split(r"[,\s]+", body.strip()) if s]
        if not pts:
            continue
        try:
            cyc = [int(s) - 1 for s in pts]
        except ValueError:
            raise NonPermutationGenerator(f"non-integer point in {text!r}")
        for x in cyc:
            if not 0 <= x < degree:
                raise NonPermutationGenerator(
                    f"point {x + 1} outside 1..{degree} in {text!r}")
            if x in seen:
                raise NonPermutationGenerator(f"point {x + 1} repeated in {text!r}")
            seen.add(x)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            p[a] = b
    return p


def format_cycles(p):
    """1-based cycle notation, fixed points omitted; identity is "()"."""
    p = np.asarray(p)
    seen = np.zeros(len(p), dtype=bool)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = int(p[start])
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = int(p[x])
        out.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(out) if out else "()"

"""The output ledger of the bundled catalogue holds.

scripts/ledger.py digests, per bundled (group, prime) pair, the A_p and
p-radical families' member CSRs, their orders and their Betti vectors,
and O_p(G); per bundled group, its minimal normal subgroups, its
components and its conjugacy classes.  tests/ledger.json keeps the
digests.  A change to any of them names the group or pair and the
quantity that moved.  Regenerate the file with the script
only when a change of output is meant.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "ledger", ROOT / "scripts" / "ledger.py")
ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger)


def test_bundled_outputs_match_the_ledger():
    kept = json.loads(ledger.LEDGER.read_text())
    now = ledger.ledger()
    assert sorted(now) == sorted(kept)
    assert sum("/" in key for key in now) == 41 and len(now) == 41 + 13
    moved = [f"{pair} {quantity}" for pair, digests in sorted(now.items())
             for quantity, digest in sorted(digests.items())
             if kept[pair].get(quantity) != digest]
    assert not moved, "moved: " + ", ".join(moved)
    assert all(len(digests) == (7 if "/" in key else 3)
               for key, digests in kept.items())

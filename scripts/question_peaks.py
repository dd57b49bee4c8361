#!/usr/bin/env python3
"""Per-question tracemalloc peaks of one perfbench workload at one seed.

    python scripts/question_peaks.py --workload radical-sym8 [--seed 1]

Writes the workload's groups as seeded, relabeled specs into a temporary
directory (perfbench/specs.py), loads them, and asks the workload's
questions in order (perfbench/workloads.py), in this process, with
tracemalloc on.  Prints one JSON object: the workload, the seed,
``load_mib``, the memory the loads leave held (traced from their start),
and per question its id, whether its answer is the pinned one, and its
peak in MiB above the memory traced at its start.  Unlike perfbench's
``peak_rss_mb``, the peak counts only the memory the code asks of
Python's allocators, so it does not move with the allocator's state, the
source files' bytes or the checkout path.  Nothing under perfbench/ is
changed.
"""

import argparse
import json
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIB = 1 << 20


@contextmanager
def _tracing():
    """tracemalloc on for the block, and off after it unless it was on
    before."""
    started = tracemalloc.is_tracing()
    if not started:
        tracemalloc.start()
    try:
        yield
    finally:
        if not started:
            tracemalloc.stop()


def held_after(load):
    """(load(), MiB) with MiB the memory load leaves held: traced at its
    end above its start."""
    with _tracing():
        base = tracemalloc.get_traced_memory()[0]
        out = load()
        held = tracemalloc.get_traced_memory()[0] - base
    return out, round(held / MIB, 3)


def question_peaks(questions):
    """[{id, correct, peak_mib}] for (id, thunk, pinned answer) questions
    asked in order, each peak in MiB above the memory traced at the
    question's start.  An exception is recorded as an incorrect answer."""
    out = []
    with _tracing():
        for qid, thunk, want in questions:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                correct = thunk() == want
            except Exception:  # a failed question is recorded, not raised
                correct = False
            peak = tracemalloc.get_traced_memory()[1] - base
            out.append({"id": qid, "correct": correct,
                        "peak_mib": round(peak / MIB, 3)})
    return out


def main(argv=None):
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import specs
    import workloads
    from quillen import load_group

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GROUPS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        records = specs.write_specs(workloads.GROUPS[args.workload],
                                    args.seed, tmp)
        groups, load_mib = held_after(lambda: {
            name: load_group(rec["spec"]).group.full()
            for name, rec in records.items()})
    peaks = question_peaks(workloads.QUESTIONS[args.workload](groups))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "load_mib": load_mib, "questions": peaks}, indent=1))
    return peaks


if __name__ == "__main__":
    main()

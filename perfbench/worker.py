"""One cold benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload W --specs DIR --out FILE
                                [--setup-only] [--trace]

Imports ``quillen`` from the checkout's ``src``, loads every relabeled
spec the workload uses, then (unless ``--setup-only``) asks the
workload's questions in order and writes a JSON record to FILE:
monotonic timestamps for the end of set-up and the start and end of the
questions, process CPU seconds over the questions, peak RSS, and each
question's answer or error.  With ``--trace`` the layer wrappers are
installed before set-up and the spans and counters go in the record.
Timestamps come from ``time.monotonic``, a system-wide clock, so the
parent can measure set-up from before it spawned this process.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_quillen():
    """Import quillen from the checkout's src, never from elsewhere."""
    if not (SRC / "quillen" / "__init__.py").is_file():
        raise SystemExit(f"no quillen package under {SRC}")
    sys.path.insert(0, str(SRC))
    import quillen
    if Path(quillen.__file__).resolve().parent != (SRC / "quillen").resolve():
        raise SystemExit(f"imported quillen from {quillen.__file__}, not {SRC}")
    return quillen


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--specs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    quillen = import_quillen()
    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    groups = {name: quillen.load_group(Path(args.specs) / f"{name}.spec").group.full()
              for name in workloads.GROUPS[args.workload]}
    rec = {"setup_done": time.monotonic()}
    if not args.setup_only:
        questions = workloads.QUESTIONS[args.workload](groups)
        answers = []
        cpu0 = time.process_time()
        rec["answer_start"] = t_prev = time.monotonic()
        for qid, thunk, _ in questions:
            entry = {"id": qid}
            try:
                entry["answer"] = thunk()
            except Exception:  # a failed question is recorded, and counted
                entry["error"] = traceback.format_exc()
            now = time.monotonic()
            entry["seconds"] = now - t_prev
            t_prev = now
            answers.append(entry)
        rec["answer_end"] = t_prev
        rec["cpu_s"] = time.process_time() - cpu0
        rec["answers"] = answers
        # ru_maxrss is in KiB on Linux
        rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            rec["trace"] = tracer.dump()
    Path(args.out).write_text(json.dumps(rec))


if __name__ == "__main__":
    main()

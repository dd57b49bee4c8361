"""Fold perfbench results of a parent and a change into one BENCH record.

    python scripts/bench_record.py --parent DIR --change DIR --out BENCH_N.json

Each DIR is a ``.perfbench_run`` directory written by ``perfbench/run.py``
in a checkout of that side (the parent commit, or the change); every
``*/result.json`` below it is one workload at one seed, untraced or
traced.  The record holds, per side and workload, the seeds, the commit,
the error rate, and per metric the median, the quartiles and the values
in seed order; untraced runs give the end-to-end metrics, traced runs the
per-layer self seconds and counters.  For each end-to-end metric it also
counts the seeds run on both sides and those where the change did better,
in the direction BENCHMARK.json gives.  The machine, Python and numpy come
from the results and must agree across them.  Nothing is run or changed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MACHINE_KEYS = ("cpu_model", "nproc", "python", "numpy")


def _stats(values):
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def load_side(run_dir):
    """{(workload, traced): [result, ...] in seed order} for one side."""
    runs = {}
    for path in sorted(Path(run_dir).glob("*/result.json")):
        result = json.loads(path.read_text())
        traced = path.parent.name.endswith("-trace1")
        runs.setdefault((result["workload"], traced), []).append(result)
    if not runs:
        raise SystemExit(f"no */result.json under {run_dir}")
    for results in runs.values():
        results.sort(key=lambda r: r["machine"]["seed"])
    return runs


def fold_side(runs):
    side = {"commits": sorted({r["machine"]["git_commit"] or "unknown"
                               for rs in runs.values() for r in rs}),
            "workloads": {}}
    for (workload, traced), results in sorted(runs.items()):
        metrics = {}
        for r in results:
            for name, m in r["metrics"].items():
                metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        side["workloads"].setdefault(workload, {})[
            "per_layer" if traced else "end_to_end"] = {
            "seeds": [r["machine"]["seed"] for r in results],
            "error_rate": failed / attempted if attempted else None,
            "metrics": {name: {"unit": unit, **_stats(values),
                               "values": values}
                        for name, (unit, values) in metrics.items()}}
    return side


def machine(*sides):
    seen = {json.dumps({k: r["machine"].get(k) for k in MACHINE_KEYS})
            for runs in sides for rs in runs.values() for r in rs}
    if len(seen) != 1:
        raise SystemExit(f"results come from different machines: {sorted(seen)}")
    return json.loads(seen.pop())


def paired(parent, change, lower_is_better):
    """Per workload and end-to-end metric: seeds on both sides, change wins."""
    out = {}
    for (workload, traced), presults in sorted(parent.items()):
        cresults = change.get((workload, traced))
        if traced or not cresults:
            continue
        cby = {r["machine"]["seed"]: r for r in cresults}
        pairs = [(p, cby[p["machine"]["seed"]]) for p in presults
                 if p["machine"]["seed"] in cby]
        for name in presults[0]["metrics"]:
            sign = 1 if lower_is_better[name] else -1
            wins = sum(sign * (p["metrics"][name]["value"]
                               - c["metrics"][name]["value"]) > 0
                       for p, c in pairs)
            out.setdefault(workload, {})[name] = {"pairs": len(pairs),
                                                  "change_wins": wins}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True,
                    help=".perfbench_run directory of the parent commit")
    ap.add_argument("--change", required=True,
                    help=".perfbench_run directory of the change")
    ap.add_argument("--out", required=True, help="BENCH_N.json to write")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in spec["end_to_end"]}
    parent, change = load_side(args.parent), load_side(args.change)
    record = {"machine": machine(parent, change),
              "parent": fold_side(parent), "change": fold_side(change),
              "paired": paired(parent, change, lower_is_better)}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The quillen benchmark: cold questions, pinned answers, per-layer trace.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere inside a checkout; it uses the checkout's ``src`` and
writes only under ``.perfbench_run/`` at the checkout root.  For each
workload it writes the groups as seeded, relabeled spec files, then runs
every pass in a fresh interpreter (``worker.py``), so no cache carries
over between questions of different passes and each pass pays the start-up
``qg`` pays.  ``QG_THREADS`` is removed from the workers' environment.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

* ``setup_s``: interpreter start, ``import quillen`` and ``load_group``
  of every spec, median over several set-ups;
* ``answer_s``: wall time from the first question to the last answer,
  median over the passes;
* ``cpu_s``: process CPU over the same interval, median over the passes;
* ``peak_rss_mb``: the highest peak resident set of any pass.

Passes repeat until ``--seconds`` of them have run, and at least the
workload's ``MIN_PASSES``; set-up-only processes make up the set-up
samples to ``SETUP_SAMPLES``.
``--trace 1`` runs one plain pass and one traced pass and reports the
per-layer metrics: self seconds per wrapped function, counters from the
wrapped calls' arguments and results, the time no span covers, and the
traced pass's slowdown over the plain one.  Every answer is checked
against its pinned value; a wrong answer or an exception is a failed
question, and any failure makes the command exit with status 1.  The
last line of output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_SAMPLES = 5
# a run must end within 180 s; stop starting passes after this
DEADLINE_S = 165


class Benchmark:
    """One workload at one seed: relabeled inputs and the passes over them."""

    def __init__(self, workload, seed, out_dir):
        import specs
        import workloads
        self.workload = workload
        self.out_dir = out_dir
        self.spec_dir = out_dir / "specs"
        self.inputs = specs.write_specs(workloads.GROUPS[workload], seed,
                                        self.spec_dir)
        self.min_passes = workloads.MIN_PASSES[workload]
        self.pinned = {qid: want for qid, _, want in
                       workloads.QUESTIONS[workload](None)}
        self.env = {k: v for k, v in os.environ.items() if k != "QG_THREADS"}
        self.deadline = time.monotonic() + DEADLINE_S
        self.spawned = 0
        self.setup_samples = []

    def spawn(self, *flags):
        """Run one worker; return its record and its spawn timestamp."""
        self.spawned += 1
        out = self.out_dir / f"pass-{self.spawned}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
               self.workload, "--specs", str(self.spec_dir), "--out", str(out),
               *flags]
        t0 = time.monotonic()
        subprocess.run(cmd, cwd=ROOT, env=self.env, check=True,
                       timeout=max(1.0, self.deadline - t0))
        rec = json.loads(out.read_text())
        rec["spawned"] = t0
        return rec

    def check(self, rec):
        """Number of the pass's questions that failed or were wrong."""
        failed = 0
        for entry in rec["answers"]:
            entry["ok"] = ("error" not in entry and
                           entry["answer"] == self.pinned[entry["id"]])
            failed += not entry["ok"]
        return failed

    def run_plain(self, seconds):
        passes = []
        start = time.monotonic()
        while True:
            t = time.monotonic()
            passes.append(self.spawn())
            now = time.monotonic()
            if now + (now - t) > self.deadline:
                break  # no room for another pass
            if len(passes) >= self.min_passes and now - start >= seconds:
                break
        setups = [self.spawn("--setup-only")
                  for _ in range(SETUP_SAMPLES - len(passes))]
        self.setup_samples = [r["setup_done"] - r["spawned"]
                              for r in passes + setups]
        metrics = {
            "setup_s": statistics.median(self.setup_samples),
            "answer_s": statistics.median(_answer_s(r) for r in passes),
            "cpu_s": statistics.median(r["cpu_s"] for r in passes),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in passes),
        }
        return passes, metrics, []

    def run_traced(self):
        plain = self.spawn()
        traced = self.spawn("--trace")
        problems = []
        if _answers(plain) != _answers(traced):
            problems.append("traced answers differ from untraced answers")
        metrics = layer_metrics(traced["trace"], traced["answer_start"],
                                traced["answer_end"])
        metrics["bench.trace_overhead_ratio"] = (
            _answer_s(traced) / _answer_s(plain) - 1)
        return [plain, traced], metrics, problems


def _answer_s(rec):
    return rec["answer_end"] - rec["answer_start"]


def _answers(rec):
    return [(e["id"], e.get("answer"), "error" in e) for e in rec["answers"]]


def layer_metrics(trace, answer_start, answer_end):
    """Self seconds per layer metric, counters, ratios and unattributed time."""
    names, parent = trace["names"], trace["parent"]
    dur = [e - s for s, e in zip(trace["start"], trace["end"])]
    self_s = list(dur)
    for sid, par in enumerate(parent):
        if par >= 0:
            self_s[par] -= dur[sid]
    out = {}
    for name in names:
        out[_time_metric(name)] = 0.0
    for sid, nid in enumerate(trace["name"]):
        out[_time_metric(names[nid])] += self_s[sid]
    covered = sum(d for d, par, s in zip(dur, parent, trace["start"])
                  if par < 0 and s >= answer_start)
    out["bench.unattributed_s"] = (answer_end - answer_start) - covered
    c = trace["counters"]
    out.update(c)
    out["pposets.ap_poset.miss_ratio"] = _ratio(c["groups.elab.calls"],
                                                c["pposets.ap_poset.calls"])
    out["homology.betti.miss_ratio"] = _ratio(c["posets.core.calls"],
                                              c["homology.betti.calls"])
    return out


def _time_metric(span):
    # the certificate checkers form one layer, reported as its self time
    return "checkers.self_s" if span.startswith("checkers.") else f"{span}_s"


def _ratio(num, den):
    return num / den if den else 0.0


def machine(inputs, seed):
    """Where and on what the run happened, with the seeded relabelings."""
    import numpy
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"seed": seed, "git_commit": commit or None, "nproc": os.cpu_count(),
            "cpu_model": cpu or None, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "relabeling": {k: v["relabeling"] for k, v in inputs.items()}}


def run_workload(workload, seed, seconds, trace, spec):
    out_dir = RUN_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    bench = Benchmark(workload, seed, out_dir)
    if trace:
        passes, metrics, problems = bench.run_traced()
        wanted = spec["per_layer"]
    else:
        passes, metrics, problems = bench.run_plain(seconds)
        wanted = spec["end_to_end"]
    failed = sum(bench.check(r) for r in passes)
    attempted = sum(len(r["answers"]) for r in passes)
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in wanted}
    result = {"workload": workload, "machine": machine(bench.inputs, seed),
              "passes": [{k: r[k] for k in ("answers", "cpu_s", "peak_rss_mb")}
                         for r in passes],
              "setup_samples": bench.setup_samples,
              "problems": problems, "attempted": attempted, "failed": failed,
              "metrics": report}
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"== {workload} (seed {seed}, trace {int(trace)}, "
          f"{len(passes)} pass(es)) -> {out_dir.relative_to(ROOT)}/result.json")
    print("   machine: " + json.dumps(
        {k: v for k, v in result["machine"].items() if k != "relabeling"}))
    for r in passes:
        for e in r["answers"]:
            status = "ok" if e["ok"] else "WRONG" if "error" not in e else "ERROR"
            print(f"   {e['id']:<24} {e['seconds']:9.3f} s  {status}  "
                  f"{json.dumps(e.get('answer'))}")
            if not e["ok"]:
                print(e.get("error") or
                      f"   pinned: {json.dumps(bench.pinned[e['id']])}")
    for name, m in report.items():
        print(f"   {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"   {'error_rate':<36} {failed / attempted:.6g} "
          f"({failed} of {attempted} questions)")
    for p in problems:
        print(f"   PROBLEM: {p}")
    return not failed and not problems, attempted, failed, report


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "quillen" / "__init__.py").is_file():
        print(f"no quillen package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    chosen = names if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in chosen:
        ok, a, f, report = run_workload(w, args.seed, args.seconds,
                                        args.trace, spec)
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        prefix = "" if len(chosen) == 1 else f"{w}/"
        metrics.update({prefix + k: v for k, v in report.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

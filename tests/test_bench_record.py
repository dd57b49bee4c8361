"""scripts/bench_record.py folds perfbench result files; checked on
hand-written results for two sides."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

MACHINE = {"cpu_model": "cpu", "nproc": 2, "python": "3.11", "numpy": "2.0"}


def _write(run_dir, seed, commit, answer_s, trace=0, cpu="cpu"):
    out = run_dir / f"radical-sym8-seed{seed}-trace{trace}"
    out.mkdir(parents=True)
    name = "groups.normalizer_s" if trace else "answer_s"
    (out / "result.json").write_text(json.dumps({
        "workload": "radical-sym8",
        "machine": dict(MACHINE, cpu_model=cpu, seed=seed, git_commit=commit),
        "attempted": 4, "failed": 0,
        "metrics": {name: {"value": answer_s, "unit": "s"}}}))


def test_fold_two_sides(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    for seed, (p, c) in enumerate([(6.0, 3.0), (6.4, 3.2), (6.2, 6.5),
                                   (7.0, 3.1)], start=11):
        _write(parent, seed, "aaa", p)
        _write(change, seed, "bbb", c)
    _write(change, 11, "bbb", 1.5, trace=1)
    out = tmp_path / "BENCH.json"
    bench_record.main(["--parent", str(parent), "--change", str(change),
                       "--out", str(out)])
    rec = json.loads(out.read_text())
    assert rec["machine"] == MACHINE
    assert rec["parent"]["commits"] == ["aaa"]
    wl = rec["change"]["workloads"]["radical-sym8"]
    assert wl["end_to_end"]["seeds"] == [11, 12, 13, 14]
    assert wl["end_to_end"]["error_rate"] == 0
    answer = wl["end_to_end"]["metrics"]["answer_s"]
    assert answer["values"] == [3.0, 3.2, 6.5, 3.1]
    assert answer["median"] == pytest.approx(3.15)
    assert answer["iqr"] == pytest.approx(answer["q3"] - answer["q1"])
    assert wl["per_layer"]["metrics"]["groups.normalizer_s"]["median"] == 1.5
    assert rec["paired"]["radical-sym8"]["answer_s"] == {"pairs": 4,
                                                         "change_wins": 3}


def test_results_from_two_machines_are_refused(tmp_path):
    _write(tmp_path / "p", 1, "aaa", 6.0)
    _write(tmp_path / "c", 1, "bbb", 3.0, cpu="other")
    with pytest.raises(SystemExit, match="different machines"):
        bench_record.main(["--parent", str(tmp_path / "p"), "--change",
                           str(tmp_path / "c"), "--out", str(tmp_path / "o")])

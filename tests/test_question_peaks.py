"""scripts/question_peaks.py reports per-question tracemalloc peaks and
the memory the loads leave held; checked on hand-written questions and
loads, and on a one-group workload added to perfbench's workload table
for the test."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "question_peaks.py"
spec = importlib.util.spec_from_file_location("question_peaks", SCRIPT)
question_peaks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(question_peaks)


def test_peaks_of_hand_written_questions():
    kept = []

    def allocate():
        kept.append(np.ones(1 << 18))  # 2 MiB, kept past the question
        return 1

    def fail():
        raise ValueError

    out = question_peaks.question_peaks(
        [("alloc", allocate, 1), ("wrong", lambda: 2, 3), ("fail", fail, 0),
         ("empty", lambda: None, None)])
    assert [q["id"] for q in out] == ["alloc", "wrong", "fail", "empty"]
    assert [q["correct"] for q in out] == [True, False, False, True]
    assert 2 <= out[0]["peak_mib"] < 2.1
    # the next question's peak counts from its own start
    assert out[3]["peak_mib"] < 0.1


def test_memory_a_load_leaves_held():
    kept = []

    def load():
        kept.append(np.ones(1 << 18))  # 2 MiB, held past the load
        np.ones(1 << 19)  # 4 MiB, freed within it
        return "loaded"

    out, held = question_peaks.held_after(load)
    assert out == "loaded"
    assert 2 <= held < 2.1


def test_schema_on_a_tiny_workload(monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    monkeypatch.setitem(workloads.GROUPS, "tiny", ["sym4"])
    monkeypatch.setitem(workloads.QUESTIONS, "tiny", lambda groups: [
        ("order", lambda: groups["sym4"].order, 24),
        ("misses", lambda: groups["sym4"].order, 25)])
    question_peaks.main(["--workload", "tiny", "--seed", "7"])
    rec = json.loads(capsys.readouterr().out)
    assert (rec["workload"], rec["seed"]) == ("tiny", 7)
    assert isinstance(rec["load_mib"], float) and rec["load_mib"] >= 0
    assert [(q["id"], q["correct"]) for q in rec["questions"]] == \
        [("order", True), ("misses", False)]
    assert all(isinstance(q["peak_mib"], float) and q["peak_mib"] >= 0
               for q in rec["questions"])

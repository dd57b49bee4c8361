import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from quillen import acceptance
from quillen.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_text(capsys):
    code, out, err = run_cli(capsys, "betti", "--group", "sym5")
    assert code == 0
    assert "b~1 = 16" in out
    assert err == ""


def test_betti_structured(capsys):
    code, out, _ = run_cli(capsys, "betti", "--group", "sym5",
                           "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "qg/1"
    assert doc["inputs"]["group"] == "sym5"
    assert doc["result"]["betti"] == {"0": 0, "1": 16}


def test_structured_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "euler", "--group", "alt5",
                         "--format", "structured")
    _, out2, _ = run_cli(capsys, "euler", "--group", "alt5",
                         "--format", "structured")
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "euler-formula", "--group", "sym5",
                           "--format", "structured", "--output", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["result"]["formula"] == -16
    assert doc["result"]["match"] is True


def test_euler_formula_text(capsys):
    code, out, _ = run_cli(capsys, "euler-formula", "--group", "alt5")
    assert code == 0
    assert "formula 4 == complex 4" in out


def test_hqc_text(capsys):
    code, out, _ = run_cli(capsys, "hqc", "--group", "alt5")
    assert code == 0
    assert "holds" in out


def test_ap_summary(capsys):
    code, out, _ = run_cli(capsys, "ap", "--group", "sym4")
    assert code == 0
    assert "13" in out


def test_conditions_single_orbit(capsys):
    code, out, _ = run_cli(capsys, "conditions", "--group", "sym5")
    assert code == 0
    assert "note trivial_decomposition: True" in out


def test_unknown_group_exits_2(capsys):
    code, _, err = run_cli(capsys, "betti", "--group", "no-such-group")
    assert code == 2
    assert err.startswith("error:")


def test_missing_q_exits_2(capsys):
    code, _, err = run_cli(capsys, "robinson", "--group", "sym5")
    assert code == 2
    assert "--q" in err


def test_bad_p_exits_2(capsys):
    code, _, err = run_cli(capsys, "betti", "--group", "sym5", "--p", "6")
    assert code == 2
    assert err.startswith("error:")
    assert "not prime" in err


def test_unknown_command_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_prop68_cli(capsys):
    code, out, _ = run_cli(capsys, "prop68", "--group", "aut-alt6",
                           "--k", "1")
    assert code == 0
    assert "holds" in out


def test_robinson_cli_structured(capsys):
    code, out, _ = run_cli(capsys, "robinson", "--group", "sym5",
                           "--q", "5", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "holds"
    assert doc["result"]["evidence"]["residue"] == 4


@pytest.mark.parametrize("command", ["betti", "conditions"])
def test_structured_output_is_identical_across_hash_seeds(command):
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "quillen.cli", command, "--group", "sym5",
             "--format", "structured"],
            env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["hqc", "prop68"])
def test_enum_cap_is_honoured(capsys, command):
    # sym5 has 25 subgroups of order 2, more than the cap allows
    code, out, err = run_cli(capsys, command, "--group", "sym5",
                             "--enum-cap", "5")
    assert code == 2
    assert out == ""
    assert "exceeds cap" in err


def test_reproduce_paper_structured_is_byte_reproducible(capsys, monkeypatch):
    # criterion 1 alone, timed by a clock that differs from run to run
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [c for c in acceptance.CRITERIA if c[0] == 1])

    def reproduce(*ticks, fmt="structured"):
        clock = iter(ticks)
        monkeypatch.setattr(acceptance, "time",
                            SimpleNamespace(time=lambda: next(clock)))
        return run_cli(capsys, "reproduce-paper", "--format", fmt)

    code1, out1, _ = reproduce(0.0, 0.3)
    code2, out2, _ = reproduce(50.0, 50.9)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["result"]["lines"][0].startswith(
        "criterion  1 PASS 5 components")
    # the text format keeps the seconds
    _, text1, _ = reproduce(0.0, 0.3, fmt="text")
    _, text2, _ = reproduce(50.0, 50.9, fmt="text")
    assert "(    0.3s)" in text1 and "(    0.9s)" in text2
    # a criterion over its budget (1 s) still fails, in both formats
    code, out, _ = reproduce(0.0, 2.5)
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["all_pass"] is False
    assert doc["result"]["lines"][0].startswith("criterion  1 FAIL")
    assert doc["result"]["lines"][0].endswith("[over budget of 1s]")
    code, text, _ = reproduce(0.0, 2.5, fmt="text")
    assert code == 1
    assert "FAIL (    2.5s)" in text and "[over budget: 2.5s > 1s]" in text

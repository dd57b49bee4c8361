"""The acceptance gate: one test per criterion, one line of output each.

Run with -s to see the lines as they complete; the same suite backs
the `qg reproduce-paper` subcommand.
"""
import pytest

from quillen.acceptance import CRITERIA, run_all


@pytest.mark.parametrize("num", [c[0] for c in CRITERIA])
def test_criterion(num, capsys):
    ok, _, timed_lines = run_all(selected=[num])
    with capsys.disabled():
        print(timed_lines[0])
    assert ok, timed_lines[0]

import argparse
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import pytest

from quillen import acceptance, cli, groups, homology
from quillen.cli import main
from quillen.errors import InvariantViolated
from quillen.gspec import load_group
from quillen.pposets import OrbitContext

SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs.py"
spec = importlib.util.spec_from_file_location("perfbench_specs", SPECS)
specs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(specs)


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


@pytest.mark.parametrize("command, gens", [("prop68", "(1 2)"),
                                           ("outers", "(1 2 3)"),
                                           ("image-poset", "(1 2 3)")])
def test_declared_component_must_be_quasisimple(capsys, command, gens):
    # a C2 or C3 declared as a component is refused, as the commands
    # built on an OrbitContext refuse it, before any verdict or count
    code, out, err = run_cli(capsys, command, "--group", "sym5",
                             "--component-gens", gens)
    assert code != 0
    assert out == ""
    assert "is not quasisimple" in err


def test_robinson_cli_structured(capsys):
    code, out, _ = run_cli(capsys, "robinson", "--group", "sym5",
                           "--q", "5", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "holds"
    assert doc["result"]["evidence"]["residue"] == 4


def test_readers_take_member_rows(capsys, monkeypatch):
    # readers of a subgroup family take its member rows: a command builds
    # a Subgroup only where it needs one object, and a join reads no
    # factor's labels.  Freshly loaded groups, so nothing is cached.
    built = []
    init = groups.Subgroup.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.Subgroup, "__init__", spy)
    for command in ("ap --group alt8", "euler-formula --group alt8",
                    "robinson --group l34 --q 5"):
        built.clear()
        code, _, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert len(built) <= 10, (command, len(built))
    ctx = OrbitContext(load_group("a5xa5-exr").group.full(), 2)
    for i in range(ctx.t + 1):
        ctx.ap_C(i)
    for i in range(1, ctx.t + 1):
        ctx.factor(i)
    built.clear()
    ctx.join()
    ctx.mixed_join(1, 2)
    ctx.mixed_join(2, 2)
    assert not built


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


# sha256 of `--format structured` output, pinned when the orbit layer
# moved to bulk membership and projection passes, which must not change
# a byte of it
PINNED_STRUCTURED = [
    ("sym5", "conditions",
     "cd0c91d38919e9fc66cba29f3c6a6a193fb84d4f8cf0e10f1e0116f19bd40a65"),
    ("sym5", "thm41",
     "57d83baf64e2580192f7971abf5f7cb1ef0831e661da0117353563708a1df18d"),
    ("sym5", "thm410 --variant off-component",
     "f561b9994ff4227b77a52a1037eece87eb0f21eb06564d391afaae1f77ca016e"),
    ("sym5", "cor51 --variant aut-H",
     "d93634a963e87a8e8b6e0d08c87407fc77611d62eed33fd10b5948c1402e3688"),
    ("sym5", "cor51 --variant image-G",
     "2e1f8c923b8fb73d818508c8a9fa205af39db38a058f36835323cd9da9531a0f"),
    ("sym5", "prop-em --n 1",
     "650cc683d3bc64a77290ed94ef21fe5e5ab94523f2a13bce4d9554f134f1b0f2"),
    ("sym5", "image-poset",
     "6556416cc73293cfb4e86a4ae05cccbe44f1a761357126a7d2db57f92553c049"),
    ("sym5", "outers",
     "fd9c477caf97b932844ce66962701a97fe6cedebf60c7dff16f7f6dba2bc4d87"),
    ("sym5", "diagonal",
     "ea4ade575b0667846eae03be927902bd888479126a04711ecbd4588e8ac065eb"),
    ("aut-alt6", "conditions",
     "abb565ac81fd5a6763724a3fa2c67f61a013323e4d10e40904cbd5d2f283d67c"),
    ("aut-alt6", "thm41",
     "94279af13ac9f3094bfe0729ec988112dbf8d2f12d069b4bf90bccfe12456703"),
    ("aut-alt6", "thm410 --variant off-component",
     "6d259962862dcbfa105867422b4e1e2de9bd2b251c9038a2ec984ff08c19c471"),
    ("aut-alt6", "cor51 --variant aut-H",
     "ee107b670718f3d43c5da4d59697d040007901c7ed89cd21f71424c1ed1b719e"),
    ("aut-alt6", "cor51 --variant image-G",
     "4f5ef1a4dc71ab65db600eedbe428dc5d7e811fe451be5c15e4ff1a42e88cb36"),
    ("aut-alt6", "prop-em --n 1",
     "40d7c64f0cc29d9904e1adb409a3fb65b81cea2da4c3fed4b5824df11e30798c"),
    ("aut-alt6", "image-poset",
     "b256a63c5a23174074eb3a3e5dce76191713c5b359e09eb3206ca9ff695e1e05"),
    ("aut-alt6", "outers",
     "0c0bd4ff7de7fe56ed98b232e2ba4c6f6e71e2546616e197b8873b0359016c47"),
    ("aut-alt6", "diagonal",
     "8131da481e49b9a168400907151bb8edab372466e694754bb9d03d28dcd9218b"),
    ("a5xa5-exr", "conditions",
     "2907fd680c01b438ec0b862b5fa6cb122bcd7497dd90a0b1c19532e7bd297807"),
    ("a5xa5-exr", "prop-em --n 2",
     "7fd4820d8a7237b88a5c9293f115fc23aede92a6be069bb725e0575cc0d25fac"),
    # pinned before image and p-outer posets became subgroup families
    # with targets found by row lookup
    ("sym5", "prop68",
     "031286457af7ec5addac05289f5e60ed142fbeef631ddfbdd9184b52a6663876"),
    ("aut-alt6", "prop68",
     "a7445db0bc64a36610db3f9373327c5cfe4372e54fb180233c1cd3cc8a647aae"),
    ("a5xa5-exr", "thm41",
     "9887ae525b898b02fb7a2d66dc28f1a7656cdfda2fea592db3ccb1ed0d05f91f"),
    ("a5xa5-exr", "cor51 --variant factor",
     "d53275132b02f8a3058c63613e3e19b215b845c14f60161518d28125433088ed"),
    ("aut-alt6", "cor51 --variant aut-G",
     "935d25ebfa724e5447a11949b237830b47b629f2c7a0f372cfa57abda704c84d"),
    # pinned before subgroup families stopped building a Subgroup per
    # member for their readers
    ("l34", "robinson --q 5",
     "fc7c54ee8219f615bf7538955e900d9676fd04309f6c6fdd50c16e1241111db7"),
    ("alt8", "ap",
     "a8a61b85d3490bdde636edb939a5836f246d3456f8f30c730b9b1d8120f6181b"),
    ("alt8", "euler-formula",
     "232d799f59cb0571f7961bfcb022640f89755c8470d5f2be3d22fb5c65b816cf"),
    ("sym6", "bouc",
     "3104167f88c94fd05b4f2b868ab4e1606ff60beb3aa32c81df2a01f6c2591aae"),
    ("sym6", "cor52 --f (1,2);(1,2,3,4,5,6)",
     "b1fd7cc30d5921c7d5b6f0b9b33356bc2f02286149627be3989952ed1d814493"),
    ("sym6", "cor52 --f (1,2,3);(2,3,4,5,6)",
     "add9b301a431235b0912d3343fc91571146d95d38f583a05bd9aaac4a017fc07"),
]


@pytest.mark.parametrize("group,command,digest", PINNED_STRUCTURED,
                         ids=["-".join([g] + c.replace("--", "").split())
                              for g, c, _ in PINNED_STRUCTURED])
def test_structured_output_is_pinned(capsys, group, command, digest):
    code, out, _ = run_cli(capsys, *command.split(), "--group", group,
                           "--format", "structured")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the questions of the benchmark's worked-certificates workload
WORKED = ["conditions", "thm41", "thm410 --variant formal",
          "thm410 --variant off-component", "prop-em --n 2"]


def test_worked_certificates_are_the_same_cold_and_warm(capsys,
                                                        monkeypatch):
    # cold, each command loads the group afresh; warm, the commands share
    # one load, and with it its posets' Betti vectors, in either order,
    # and then once more on a load that has answered them all
    def answers(commands):
        out = {}
        for command in commands:
            code, text, _ = run_cli(capsys, *command.split(), "--group",
                                    "a5xa5-exr", "--format", "structured")
            assert code == 0
            out[command] = text
        return out

    cold = answers(WORKED)
    for order in (WORKED, WORKED[::-1]):
        monkeypatch.setattr(cli, "load_group", cache(load_group))
        assert answers(order) == cold
        assert answers(order) == cold


def _label_free(doc):
    """A qg/1 document less the fields that name labels: the group
    argument, here a spec file's path, and poset ids ("id", in condition
    C's witness chain).  Verdicts, Betti vectors, sizes, orders, ranks,
    Euler characteristics and input digests are kept."""
    if isinstance(doc, dict):
        return {k: _label_free(v) for k, v in doc.items()
                if k not in ("group", "id")}
    if isinstance(doc, list):
        return [_label_free(v) for v in doc]
    return doc


def test_structured_output_survives_relabeling(tmp_path, capsys,
                                               monkeypatch):
    # each labeling of a group is loaded once, so its commands share its
    # caches; the pinned commands then run on two seeded relabelings
    monkeypatch.setattr(cli, "load_group", cache(load_group))

    def answer(command, group):
        code, out, _ = run_cli(capsys, *command.split(), "--group", group,
                               "--format", "structured")
        assert code == 0
        return _label_free(json.loads(out))

    # sym6's radical poset, but not its cor52 commands, whose --f cycles
    # name points of one labeling
    pinned = [(g, c) for g, c, _ in PINNED_STRUCTURED
              if g in ("sym5", "aut-alt6", "a5xa5-exr")] + [("sym6", "bouc")]
    names = list(dict.fromkeys(g for g, _ in pinned))
    bundled = {(g, c): answer(c, g) for g, c in pinned}
    for seed in (11, 12):
        rng = random.Random(seed)
        for name in names:
            path = tmp_path / f"{name}-{seed}.spec"
            path.write_text(json.dumps(specs.relabel(
                specs.source_spec(name), rng)[0]))
            for g, c in pinned:
                if g == name:
                    assert answer(c, str(path)) == bundled[g, c], (g, c, seed)


# one run of each subcommand on a bundled group, with every extra it takes
EVERY_COMMAND = {
    "betti": "--group sym5", "euler": "--group sym5",
    "euler-formula": "--group sym5", "ap": "--group sym5",
    "bouc": "--group sym5", "image-poset": "--group sym5",
    "outers": "--group sym5", "diagonal": "--group sym5",
    "conditions": "--group sym5 --which C", "thm41": "--group sym5",
    "thm410": "--group sym5", "cor51": "--group sym5",
    "cor52": "--group sym6 --f (1,2);(1,2,3,4,5,6)",
    "prop-em": "--group sym5 --n 1", "prop68": "--group sym5",
    "robinson": "--group sym5 --q 5", "hqc": "--group sym5",
    "reproduce-paper": "",
}


class _Recorded:
    """A parsed namespace that records the names read from it."""

    def __init__(self, args):
        self._args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name)


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_flag_is_read(capsys, monkeypatch):
    # a flag that no handler reads is a knob that does nothing: each
    # subcommand reads every dest its subparser declares
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [c for c in acceptance.CRITERIA if c[0] == 1])
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(time=lambda: 0.0))
    monkeypatch.setattr(cli, "load_group", cache(load_group))
    parser = cli.build_parser()
    subparsers = _subparsers(parser)
    assert list(subparsers) == list(cli.COMMANDS) == list(EVERY_COMMAND)
    for command, argv in EVERY_COMMAND.items():
        args = _Recorded(parser.parse_args([command, *argv.split()]))
        assert cli.run(args) == 0, command
        declared = {a.dest for a in subparsers[command]._actions
                    if a.dest != "help"}
        assert declared <= args.read, (command, declared - args.read)
    capsys.readouterr()


@pytest.mark.parametrize("command, flag", [
    ("euler", "--work-cap"), ("euler-formula", "--work-cap"),
    ("ap", "--work-cap"), ("outers", "--work-cap"),
    ("robinson", "--work-cap"), ("bouc", "--enum-cap"),
    ("image-poset", "--orbit-index"), ("image-poset", "--component-order"),
    ("outers", "--orbit-index"), ("outers", "--component-order")])
def test_unread_flags_are_refused(capsys, command, flag):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--group", "sym5", flag, "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--order-cap", "--enum-cap", "--work-cap"])
def test_a_cap_of_zero_exits_2(capsys, flag):
    code, out, err = run_cli(capsys, "betti", "--group", "sym5", flag, "0")
    assert (code, out) == (2, "")
    assert err == f"error: {flag[2:].replace('-', '_')} must be positive\n"


@pytest.mark.parametrize("command, flag, value", [
    ("thm41", "--component-order", "a,b"),
    ("thm41", "--component-order", "1,"),
    ("conditions", "--which", ","),
    ("conditions", "--which", " "),
])
def test_a_malformed_list_flag_is_named(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--group", "sym5", flag, value])
    assert exit_.value.code == 2
    assert f"error: argument {flag}: " in capsys.readouterr().err


def test_a_negative_prop68_degree_exits_2(capsys):
    code, out, err = run_cli(capsys, "prop68", "--group", "sym5", "--k", "-5")
    assert (code, out) == (2, "")
    assert err == "error: degree -5 must be nonnegative\n"


def test_spec_without_its_field_exits_2(tmp_path, capsys):
    path = tmp_path / "bare.spec"
    path.write_text(json.dumps({"construction": "symmetric"}))
    code, out, err = run_cli(capsys, "betti", "--group", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: symmetric construction needs a 'degree' field\n"


def test_a_mistyped_spec_field_exits_2(tmp_path, capsys):
    path = tmp_path / "typo.spec"
    path.write_text(json.dumps({"construction": "symmetric", "degree": [3]}))
    code, out, err = run_cli(capsys, "betti", "--group", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: symmetric construction: 'degree' must be an "
                   "integer >= 1, not [3]\n")


@pytest.mark.parametrize("spec,message", [
    ({"construction": "alternating", "degree": 40_000},
     "'degree' must be at most 32767, not 40000"),
    ({"construction": "generators", "degree": 40_000,
      "generators": ["(1 40000)"]}, "'degree' must be at most 32767"),
    ({"construction": "symmetric", "degree": 10 ** 8},
     "'degree' must be at most 32767, not 100000000"),
    ({"construction": "symmetric", "degree": 20},
     "symmetric group order exceeds cap 500000"),
    # the order cap is the load's: a spec's own cap is refused, not
    # passed over by --order-cap's default
    ({"construction": "symmetric", "degree": 6, "cap": 100},
     "'cap' is not a spec field")])
def test_an_unbuildable_spec_exits_2(tmp_path, capsys, spec, message):
    # refused before any row is built: no traceback, no memory error
    path = tmp_path / "big.spec"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "betti", "--group", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_a_failed_self_check_exits_3(capsys, monkeypatch):
    # a failed self-check means a wrong answer was caught, not a refused
    # input, so it exits apart from exit 2
    def fail(raw, pairs, live):
        raise InvariantViolated("pair 0 is not elementary")

    monkeypatch.setattr(homology, "_replay_pairs", fail)
    code, out, err = run_cli(capsys, "betti", "--group", "sym5")
    assert (code, out) == (3, "")
    assert err == "error: self-check failed: pair 0 is not elementary\n"


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Subcommands:", 1)[1].split("\n\n")[1]
    listed = [row.split("`")[1] for row in table.splitlines()
              if row.startswith("| `")]
    assert listed == list(_subparsers(cli.build_parser()))

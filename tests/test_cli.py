"""Command-line interface: outputs, exit codes, schemas."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsr import builtin, builtin_model, serialize
from qsr.cli import main

FIG_NET = """\
network "incomplete"
calculus pc1
vars A B C
A (<) B
B (<) C
"""

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"

CLASH_NET = """\
network "clash"
calculus pc1
vars A B
A (<) B
B (<) A
"""


@pytest.fixture()
def fig_net(tmp_path):
    path = tmp_path / "fig.net"
    path.write_text(FIG_NET)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_builtin_text(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "pc1")
    assert code == 0
    assert "classification: RA" in out
    assert "all axioms hold" in out


def test_analyze_fixture_exit_code_still_zero(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "appendixB2")
    assert code == 0
    assert "NA-or-weaker" in out
    assert "R4" in out


def test_analyze_json_lists_counterexample(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "appendixB2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    r4 = next(a for a in doc["axioms"] if a["axiom"] == "R4")
    assert {"operands": ["r1", "r3", "r4"], "lhs": ["r1", "r4"], "rhs": ["r1"]} in r4["examples"]
    assert "R10⊇" in doc["violated_sides"]


def test_analyze_missing_spec_file(capsys):
    code, _, err = run(capsys, "analyze", "--spec", "missing.spec")
    assert code == 2
    assert "error" in err


def test_analyze_spec_file(capsys, tmp_path):
    path = tmp_path / "pc1.spec"
    path.write_text(serialize(builtin("pc1")))
    code, out, _ = run(capsys, "analyze", "--spec", str(path))
    assert code == 0
    assert "classification: RA" in out


def test_closure_prints_inferred_edge(capsys, fig_net):
    code, out, _ = run(capsys, "closure", "--builtin", "pc1", "--network", fig_net)
    assert code == 0
    assert "A (<) C" in out


def test_closure_inconsistent_exit_code(capsys, tmp_path):
    path = tmp_path / "clash.net"
    path.write_text(CLASH_NET)
    code, out, _ = run(capsys, "closure", "--builtin", "pc1", "--network", str(path))
    assert code == 1
    assert "inconsistent" in out


def test_closure_reports_zero_revisions_for_closed_input(capsys, tmp_path):
    path = tmp_path / "closed.net"
    path.write_text(FIG_NET + "A (<) C\n")
    code, out, _ = run(capsys, "closure", "--builtin", "pc1", "--network", str(path))
    assert code == 0
    assert "revisions: 0" in out


def test_consistency_exit_codes(capsys, tmp_path, fig_net):
    code, out, _ = run(capsys, "consistency", "--builtin", "pc1", "--network", fig_net)
    assert code == 0 and "consistent" in out and "witness" in out

    clash = tmp_path / "clash.net"
    clash.write_text(CLASH_NET)
    code, out, _ = run(capsys, "consistency", "--builtin", "pc1", "--network", str(clash))
    assert code == 1

    unknown = tmp_path / "cycb.net"
    unknown.write_text('network "c"\ncalculus cycb\nvars x y\nx (l) y\n')
    code, out, _ = run(capsys, "consistency", "--builtin", "cycb", "--network", str(unknown))
    assert code == 3 and "closed_unknown" in out


def test_model_check_chain(capsys, tmp_path, fig_net):
    model_path = tmp_path / "chain3.model"
    model_path.write_text(builtin_model("pc1-chain3").to_text())
    code, out, _ = run(capsys, "model-check", "--builtin", "pc1", "--model", str(model_path))
    assert code == 0
    assert "jointly exhaustive: yes" in out
    assert "composition: weak, not strong" in out
    assert "converse: strong" in out

    code, out, _ = run(
        capsys, "model-check", "--builtin", "pc1", "--model", str(model_path),
        "--network", fig_net,
    )
    assert code == 0
    assert "solution:" in out


def test_model_check_reports_no_solution(capsys, tmp_path):
    model_path = tmp_path / "chain3.model"
    model_path.write_text(builtin_model("pc1-chain3").to_text())
    chain4 = tmp_path / "chain4.net"
    chain4.write_text(
        'network "c4"\ncalculus pc1\nvars x0 x1 x2 x3\n'
        "x0 (<) x1\nx1 (<) x2\nx2 (<) x3\n"
    )
    code, out, _ = run(
        capsys, "model-check", "--builtin", "pc1", "--model", str(model_path),
        "--network", str(chain4),
    )
    assert code == 1
    assert "no solution" in out


def test_model_check_abstract_cell(capsys, tmp_path):
    model_path = tmp_path / "b2.model"
    model_path.write_text(builtin_model("appendixB2").to_text())
    code, out, _ = run(capsys, "model-check", "--builtin", "appendixB2", "--model", str(model_path))
    assert code == 0
    assert "composition: abstract, not weak at (r3 r4)" in out


def test_gen_deterministic_and_loadable(capsys):
    code, first, _ = run(capsys, "gen", "--builtin", "rcc5", "--vars", "6", "--density", "0.5", "--seed", "9")
    assert code == 0
    code, second, _ = run(capsys, "gen", "--builtin", "rcc5", "--vars", "6", "--density", "0.5", "--seed", "9")
    assert first == second
    from qsr import parse_network

    net = parse_network(first, builtin("rcc5"))
    assert len(net.var_names) == 6


def test_gen_on_one_relation_calculus_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "one.spec"
    path.write_text('calculus "one"\nrelations e\nidentity e\nconverse\ne (e)\ncomposition\ne e (e)\n')
    code, out, err = run(capsys, "gen", "--spec", str(path), "--vars", "3", "--density", "1.0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "single base relation" in err


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "closure", "--builtin", "nope", "--network", "x.net")
    assert code == 2


@pytest.mark.parametrize("command", ["closure", "consistency"])
def test_only_the_printed_format_is_built(capsys, monkeypatch, fig_net, command):
    import qsr.network

    def refuse(self):
        raise AssertionError("built an output that is not printed")

    for fmt, unused in (("json", "to_text"), ("text", "to_json_dict")):
        with monkeypatch.context() as patch:
            patch.setattr(qsr.network.ConstraintNetwork, unused, refuse)
            code, out, _ = run(capsys, command, "--builtin", "pc1", "--network", fig_net, "--format", fmt)
        assert code == 0 and "A" in out, fmt


def test_closure_reports_queue_pops_and_revisions(capsys, tmp_path, fig_net):
    # pc1 seeds the two constrained pairs; the first pop infers A (<) C and
    # queues that pair, which had been universal both ways
    code, out, _ = run(capsys, "closure", "--builtin", "pc1", "--network", fig_net)
    assert code == 0
    assert out.splitlines()[-1] == "revisions: 1, queue pops: 3"
    code, out, _ = run(capsys, "closure", "--builtin", "pc1", "--network", fig_net, "--format", "json")
    doc = json.loads(out)
    assert (doc["revisions"], doc["queue_pops"]) == (1, 3)
    assert "skipped_pops" not in doc
    path = tmp_path / "clash.net"
    path.write_text(CLASH_NET)
    code, out, _ = run(capsys, "closure", "--builtin", "pc1", "--network", str(path), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    # the prologue meets the empty cell before any pop
    assert (doc["revisions"], doc["queue_pops"]) == (0, 0)


@pytest.mark.parametrize("name,line,flags", [
    ("rcc5", "engine flags: R7 yes, R9 yes, universal absorbs yes, universal idempotent yes",
     (True, True, True, True)),
    ("appendixB2", "engine flags: R7 yes, R9 no, universal absorbs no, universal idempotent yes",
     (True, False, False, True)),
])
def test_analyze_reports_the_derived_engine_flags(capsys, name, line, flags):
    code, out, _ = run(capsys, "analyze", "--builtin", name)
    assert code == 0
    assert line in out.splitlines()
    code, out, _ = run(capsys, "analyze", "--builtin", name, "--format", "json")
    doc = json.loads(out)
    assert doc["flags"] == dict(zip(("ra7_holds", "ra9_holds", "universal_absorbs", "universal_idempotent"),
                                    flags))


@pytest.mark.parametrize("flag, bad, message", [
    ("--spec", serialize(builtin("pc1")).replace("< < (<)", "< < (<"),
     "line 9: unterminated symbol group, expected ')'"),
    ("--network", FIG_NET + "A (<) D\n", "line 6: unknown variable 'D'"),
    ("--model", builtin_model("pc1-chain3").to_text().replace("(0,1)", "(0,5)"),
     "line 4: pair (0,5) uses elements outside the universe"),
])
def test_a_bad_file_is_named_with_its_line(capsys, tmp_path, flag, bad, message):
    # model-check reads all three files: the error must say which one is bad
    files = {"--spec": serialize(builtin("pc1")), "--network": FIG_NET,
             "--model": builtin_model("pc1-chain3").to_text()}
    files[flag] = bad
    argv = ["model-check"]
    for option, text in files.items():
        path = tmp_path / option.strip("-")
        path.write_text(text)
        argv += [option, str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: parse error in {tmp_path / flag.strip('-')}: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, argv, code, want", [
    # no identity relation: the identity axioms do not apply
    (("pc1.spec", "identity =", "identity"), ["analyze", "--spec", "{edited}"], 0,
     ["classification: RA-minus-id", "all applicable axioms hold"]),
    (("chain3.model", "=: (0,0) ", "=: "), ["model-check", "--builtin", "pc1", "--model", "{edited}"], 0,
     ["jointly exhaustive: no (uncovered: [('0', '0')])",
      "partition-scheme and strength checks skipped (model is not JEPD)"]),
    (("pc1.spec", "< < (<)", "< < (=)"),
     ["model-check", "--spec", "{edited}", "--model", "{samples}/chain3.model"], 0,
     ["composition: UNSOUND at < <", "  NOT a calculus under this model: unsound at ['< <']"]),
    (None, ["model-check", "--builtin", "pc1", "--model", "{samples}/chain3.model",
            "--network", "{samples}/incomplete.net", "--budget", "1"], 2,
     ["error: 27 valuations exceed the budget of 1"]),
])
def test_edited_samples_reach_each_report(capsys, tmp_path, edit, argv, code, want):
    edited = tmp_path / "edited"
    if edit is not None:
        name, old, new = edit
        text = (SAMPLES / name).read_text()
        assert text.count(old) == 1
        edited.write_text(text.replace(old, new))
    got, out, err = run(capsys, *(a.format(edited=edited, samples=SAMPLES) for a in argv))
    assert got == code
    lines = (out + err).splitlines()
    assert all(line in lines for line in want), lines


def test_a_file_that_is_not_utf8_is_named(capsys, tmp_path):
    path = tmp_path / "bad.net"
    path.write_bytes(b'network "\xff"\n')
    code, _, err = run(capsys, "closure", "--builtin", "pc1", "--network", str(path))
    assert code == 2
    assert err.startswith(f"error: parse error in {path}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("argv, code", [
    (["analyze", "--builtin", "rcc5"], 0),
    (["closure", "--builtin", "pc1", "--network", "clash.net"], 1),
])
def test_a_closed_stdout_pipe_keeps_the_exit_code(tmp_path, argv, code):
    # a reader that closed its end of the pipe before the command wrote
    # (``qsr analyze | head -1``) ends the output, not the command: no usage
    # error, nothing on stderr and no warning from the flush at exit
    (tmp_path / "clash.net").write_text(CLASH_NET)
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "qsr.cli", *argv], cwd=tmp_path, env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, b"")

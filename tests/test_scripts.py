"""The experiment scripts under ``scripts/``, run in-process through their ``main``."""

import ast
import hashlib
import importlib.util
from functools import cache
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


@cache
def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_verifies_every_planned_witness_at_n3(capsys):
    # Every failing pair builds its planned witness and checks it with is_valid.
    assert load("implication_census").main(["--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "canonical classes over n=3, max_blocks=3: 33\n" in out
    assert "ordered pairs: 1056, implication edges: 240\n" in out
    assert (
        "witness templates for the failures:\n"
        "  SINGLE 500\n"
        "  COPY2  298\n"
        "  COPY3  15\n"
        "  XOR    3\n"
    ) in out


def test_census_at_n4_prints_its_whole_report(capsys):
    # Every verdict and template counts here: a canonical-form change that moves
    # one of them changes this report.
    assert load("implication_census").main(["--n", "4"]) == 0
    assert capsys.readouterr().out == (
        "canonical classes over n=4, max_blocks=3: 181\n"
        "ordered pairs: 32580, implication edges: 4775\n"
        "witness templates for the failures:\n"
        "  SINGLE 13314\n"
        "  COPY2  13281\n"
        "  COPY3  988\n"
        "  XOR    222\n"
        "failing clause x witness template:\n"
        "                                             SINGLE   COPY2   COPY3     XOR\n"
        "  condition not contained                      4132    9836     988       0\n"
        "  repeated set not covered                     9182       0       0       0\n"
        "  residual part outside the premise's parts       0    2443       0       0\n"
        "  condition sandwich violated                     0      40       0     222\n"
        "  two residual parts sharing a premise part       0     962       0       0\n"
    )


def test_census_at_n5_keeps_its_report_byte_for_byte(capsys):
    # 1,158,852 ordered pairs: every verdict, and a verified witness for every
    # failure, behind one digest of the whole report.
    assert load("implication_census").main(["--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("canonical classes over n=5, max_blocks=3: 1077\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7b1a70aa4f9968dd7bdf22599727b185025470eea6f20d581a650bdbff985fa2"
    )


def test_oracle_crosscheck_finds_no_mismatch(capsys):
    assert load("oracle_crosscheck").main(["--trials", "300"]) == 0
    assert capsys.readouterr().out.endswith(
        "300 trials: 0 oracle mismatches, 0 bridge mismatches\n"
    )


@pytest.mark.parametrize(
    "script, argv, message",
    [
        ("implication_census", ["--n", "6"], "argument --n: invalid choice: 6 (choose from 0, 1"),
        ("implication_census", ["--max-blocks", "7"], "argument --max-blocks: invalid choice: 7"),
        ("oracle_crosscheck", ["--max-alphabet", "5"], "choose from 1, 2, 3, 4)"),
        ("oracle_crosscheck", ["--max-n", "0"], "argument --max-n: invalid choice: 0"),
        ("oracle_crosscheck", ["--max-n", "9"], "choose from 1, 2, 3, 4, 5, 6, 7, 8)"),
        ("oracle_crosscheck", ["--trials", "0"], "argument --trials: must be at least 1, got 0"),
        ("oracle_crosscheck", ["--trials", "-5"], "argument --trials: must be at least 1, got -5"),
        ("cold_cli", ["src", "src", "--reps", "0"], "argument --reps: must be at least 1, got 0"),
    ],
)
def test_out_of_range_flags_exit_2(capsys, script, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        load(script).main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_sweep_covers_every_subcommand_and_exit_code(capsys):
    assert load("cli_sweep").main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{len(lines) - 1} invocations"
    rows = [line.split(" ", 2) for line in lines[:-1]]
    assert {code for code, _, _ in rows} == {"0", "1", "2"}
    assert all(len(digest) == 64 for _, digest, _ in rows)
    commands = {label.split()[0] for _, _, label in rows if label}
    assert {"canon", "equiv", "implies", "witness", "check", "entropy", "decompose"} <= commands


def test_cli_sweep_matches_its_golden_line_by_line(capsys):
    # Every CLI byte of the sweep, invocation by invocation.  A change that
    # moves one on purpose edits tests/golden/cli_sweep.txt, line by line.
    assert load("cli_sweep").main([]) == 0
    got = capsys.readouterr().out.splitlines()
    want = (GOLDEN / "cli_sweep.txt").read_text(encoding="utf-8").splitlines()
    differ = [
        f"{old.split(' ', 2)[-1]!r}: {old.split(' ', 2)[:2]} -> {new.split(' ', 2)[:2]}"
        for old, new in zip(want, got)
        if old != new
    ]
    assert differ == []
    assert len(got) == len(want)


def test_cold_cli_pairs_every_call_kind_under_two_trees(capsys):
    src = str(SCRIPTS.parent / "src")
    assert load("cold_cli").main([src, src, "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "median child CPU of 1 cold call(s) per kind and tree, ms",
        f"{'kind':<22} {'old':>8} {'new':>8} {'paired':>8}",
    ]
    kinds = [line[:22].rstrip() for line in lines[2:]]
    assert kinds == [kind for kind, _, _ in load("cold_cli").CALLS]
    assert all(float(line.split()[-3]) > 0 for line in lines[2:])


def test_scripts_import_only_the_census_private_names_from_cmikit():
    # The census reads the clause and witness plan through private names until
    # the library has a public record of them; no other script may reach in.
    private = set()
    for path in SCRIPTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cmikit":
                private |= {(path.stem, a.name) for a in node.names if a.name.startswith("_")}
    assert private == {("implication_census", "_sub_cmi_clause")}

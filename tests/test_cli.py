"""End-to-end command-line tests driven through main(): goldens, exits, JSON."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cmikit import parse_distribution
from cmikit.cli import build_parser, main, _color_enabled, _verdict_line

XOR_TEXT = (
    "vars: X1:2 X2:2 X3:2\n"
    "0 0 0 : 1/4\n"
    "0 1 1 : 1/4\n"
    "1 0 1 : 1/4\n"
    "1 1 0 : 1/4\n"
)


XOR_WITNESS = (
    "# separating distribution: satisfies I(1 ; 2), violates I(1 ; 2 | 3)\n"
    "# template XOR, pivots 1,2,3\n" + XOR_TEXT
)
COPY2_WITNESS = (
    "# separating distribution: satisfies I(1 ; 2), violates I(1 ; 2,3)\n"
    "# template COPY2, pivots 3,1\n"
    "vars: X1:2 X2:2 X3:2\n"
    "0 0 0 : 1/2\n"
    "1 0 1 : 1/2\n"
)
# `equiv` separates in whichever direction fails; here the second statement
# is the premise.
REVERSED_WITNESS = (
    "# separating distribution: satisfies I(2 ; 3 | 1,4), violates I(1,2 ; 2,3 | 4)\n"
    "# template COPY2, pivots 1,2\n"
    "vars: X1:2 X2:2 X3:2 X4:2\n"
    "0 0 0 0 : 1/2\n"
    "1 1 0 0 : 1/2\n"
)

# One pair per decide command and verdict: command, statements, n, exit code,
# JSON verdict, canonical forms, witness (template, pivots, premise,
# conclusion, file text) or None, stdout in text mode, and stdout in text mode
# with --out.
DECIDE_GOLDENS = [
    (
        "equiv", ("I(1,2 ; 2,3 | 1)", "I(2 ; 2 | 1)"), 3, 0, "EQUIVALENT",
        ["I(2 ; 2 | 1)", "I(2 ; 2 | 1)"], None, "EQUIVALENT\n", "EQUIVALENT\n",
    ),
    (
        "equiv", ("I(1,2 ; 2,3 | 4)", "I(2 ; 3 | 1,4)"), 4, 1, "NOT EQUIVALENT",
        ["I(1 ; 2 ; 2 ; 3 | 4)", "I(2 ; 3 | 1,4)"],
        ("COPY2", [1, 2], "I(2 ; 3 | 1,4)", "I(1,2 ; 2,3 | 4)", REVERSED_WITNESS),
        "NOT EQUIVALENT\n" + REVERSED_WITNESS, "NOT EQUIVALENT\n",
    ),
    (
        "implies", ("I(1 ; 2,3)", "I(1 ; 2)"), 3, 0, "IMPLIES",
        ["I(1 ; 2,3)", "I(1 ; 2)"], None, "IMPLIES\n", "IMPLIES\n",
    ),
    (
        "implies", ("I(1 ; 2)", "I(1 ; 2,3)"), 3, 1, "DOES NOT IMPLY",
        ["I(1 ; 2)", "I(1 ; 2,3)"],
        ("COPY2", [3, 1], "I(1 ; 2)", "I(1 ; 2,3)", COPY2_WITNESS),
        "DOES NOT IMPLY\n" + COPY2_WITNESS, "DOES NOT IMPLY\n",
    ),
    (
        "witness", ("I(1 ; 2 | 3)", "I(2 ; 1 | 3)"), 3, 1, "IMPLIES",
        ["I(1 ; 2 | 3)", "I(1 ; 2 | 3)"], None,
        "IMPLIES (no separating distribution exists)\n",
        "IMPLIES (no separating distribution exists)\n",
    ),
    (
        "witness", ("I(1 ; 2)", "I(1 ; 2 | 3)"), 3, 0, "DOES NOT IMPLY",
        ["I(1 ; 2)", "I(1 ; 2 | 3)"],
        ("XOR", [1, 2, 3], "I(1 ; 2)", "I(1 ; 2 | 3)", XOR_WITNESS),
        XOR_WITNESS, "",
    ),
]

# Every subcommand's help and its arguments in order, -h aside: name, nargs,
# required, default, type and help.
VERIFY_OPTIONS = [
    (
        "--verify", 0, False, False, None,
        "cross-check the verdict against the exact oracle on random distributions",
    ),
    ("--seed", None, False, 0, "int", "base seed for --verify sampling"),
    ("--samples", None, False, 200, "_positive_int", "sample count for --verify"),
]
ONE_STATEMENT = [
    ("statement", None, True, None, None, "CMI statement, e.g. 'I(1,2 ; 3 | 4)'"),
    ("--n", None, True, None, "int", "ground-set size"),
    ("--json", 0, False, False, None, "emit one JSON object on stdout"),
]
TWO_STATEMENTS = [
    ("statement", None, True, None, None, "premise statement"),
    ("statement2", None, True, None, None, "conclusion statement"),
    *ONE_STATEMENT[1:],
]
OUT_OPTION = [("--out", None, False, None, None, "write the separating distribution to this file")]
PARSER_SURFACE = {
    "canon": ("print the canonical form of a statement", ONE_STATEMENT + VERIFY_OPTIONS),
    "equiv": (
        "decide whether two statements are equivalent",
        TWO_STATEMENTS + VERIFY_OPTIONS + OUT_OPTION,
    ),
    "implies": (
        "decide whether the first statement implies the second",
        TWO_STATEMENTS + VERIFY_OPTIONS + OUT_OPTION,
    ),
    "witness": ("produce a distribution separating two statements", TWO_STATEMENTS + OUT_OPTION),
    "check": (
        "test a statement against a distribution file",
        ONE_STATEMENT
        + [
            ("--dist", None, True, None, None, "distribution file to check against"),
            (
                "--verify", 0, False, False, None,
                "cross-check the exact verdict against the entropy defect",
            ),
        ],
    ),
    "entropy": (
        "evaluate entropy and defect measures on a distribution",
        [
            ("statements", "+", True, None, None, "statements to measure"),
            *ONE_STATEMENT[1:],
            ("--dist", None, True, None, None, "distribution file to measure"),
        ],
    ),
    "decompose": (
        "split a statement into pairwise conditional independencies",
        ONE_STATEMENT + VERIFY_OPTIONS,
    ),
}


@pytest.fixture
def xor_file(tmp_path):
    path = tmp_path / "xor.dist"
    path.write_text(XOR_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_canon_golden(capsys):
    code, out, err = run(capsys, "canon", "I(1,2 ; 2,3 ; 4 ; 5 | 1)", "--n", "5")
    assert (code, out, err) == (0, "I(2 ; 2 ; 3 ; 4 ; 5 | 1)\n", "")


def test_canon_degenerate_and_json(capsys):
    code, out, _ = run(capsys, "canon", "I(1,2 | 3)", "--n", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"command": "canon", "canonical": ["I()"]}


def test_canon_verify_passes(capsys):
    # The lone leftover part {3} is dropped once {2} is pinned; --verify
    # confirms the two forms agree on every sampled distribution.
    code, out, _ = run(
        capsys, "canon", "I(1,2 ; 2,3 | 1)", "--n", "3", "--verify", "--samples", "40"
    )
    assert code == 0 and out == "I(2 ; 2 | 1)\n"


def test_equiv_affirmative(capsys):
    code, out, _ = run(
        capsys, "equiv", "I(1,2 ; 2,3 ; 4 ; 5 | 1)", "I(2 ; 2 ; 3 ; 4 ; 5 | 1)",
        "--n", "5", "--verify", "--samples", "40",
    )
    assert code == 0 and out == "EQUIVALENT\n"


def test_equiv_negative_prints_witness(capsys):
    code, out, _ = run(capsys, "equiv", "I(1 ; 2)", "I(1 ; 2 | 3)", "--n", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "NOT EQUIVALENT"
    assert lines[1].startswith("# separating distribution:")
    parsed = parse_distribution("\n".join(lines[1:]) + "\n")
    assert parsed.n == 3


def test_implies_affirmative(capsys):
    code, out, _ = run(
        capsys, "implies", "I(1,2 ; 2,3 ; 4 ; 5 | 1)", "I(2 ; 3 ; 4 | 1,3)",
        "--n", "5", "--verify", "--samples", "40",
    )
    assert code == 0 and out == "IMPLIES\n"


def test_implies_negative_writes_witness_file(capsys, tmp_path):
    out_file = tmp_path / "w.dist"
    code, out, _ = run(
        capsys, "implies", "I(1 ; 2)", "I(1 ; 2 | 3)", "--n", "3",
        "--out", str(out_file),
    )
    assert code == 1
    assert out == "DOES NOT IMPLY\n"
    text = out_file.read_text()
    assert text.startswith("# separating distribution:")
    assert parse_distribution(text).n == 3


def test_implies_json_schema(capsys):
    code, out, _ = run(capsys, "implies", "I(1 ; 2)", "I(1 ; 2 | 3)", "--n", "3", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["command"] == "implies"
    assert payload["verdict"] == "DOES NOT IMPLY"
    assert payload["canonical"] == ["I(1 ; 2)", "I(1 ; 2 | 3)"]
    w = payload["witness"]
    assert w["template"] == "XOR" and w["pivots"] == [1, 2, 3]
    assert w["premise"] == "I(1 ; 2)" and w["conclusion"] == "I(1 ; 2 | 3)"
    assert parse_distribution(w["distribution"]).n == 3


def test_witness_command_round_trips_through_check(capsys, tmp_path):
    out_file = tmp_path / "sep.dist"
    code, out, _ = run(
        capsys, "witness", "I(1 ; 2)", "I(1 ; 2 | 3)", "--n", "3", "--out", str(out_file)
    )
    assert code == 0
    code, out, _ = run(capsys, "check", "I(1 ; 2)", "--n", "3", "--dist", str(out_file), "--verify")
    assert code == 0 and out.splitlines()[0] == "VALID"
    code, out, _ = run(capsys, "check", "I(1 ; 2 | 3)", "--n", "3", "--dist", str(out_file), "--verify")
    assert code == 1 and out.splitlines()[0] == "INVALID"


def test_witness_to_stdout_is_parseable(capsys):
    code, out, _ = run(capsys, "witness", "I(1 ; 2)", "I(1 ; 2 | 3)", "--n", "3")
    assert code == 0
    assert out.startswith("# separating distribution:")
    assert parse_distribution(out).n == 3


def test_witness_when_implication_holds(capsys):
    code, out, _ = run(capsys, "witness", "I(1 ; 2 | 3)", "I(1 ; 2 | 3)", "--n", "3")
    assert code == 1
    assert out == "IMPLIES (no separating distribution exists)\n"


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("case", DECIDE_GOLDENS, ids=lambda c: f"{c[0]}-{c[3]}")
def test_decide_goldens(capsys, tmp_path, case, json_mode, to_file):
    command, statements, n, code, verdict, canonical, witness, text, text_with_out = case
    out_file = tmp_path / "w.dist"
    argv = [command, *statements, "--n", str(n)]
    if json_mode:
        argv.append("--json")
    if to_file:
        argv += ["--out", str(out_file)]
    if json_mode:
        expected = {"command": command, "verdict": verdict, "canonical": canonical}
        if witness is not None:
            template, pivots, premise, conclusion, distribution = witness
            expected["witness"] = {
                "template": template,
                "pivots": pivots,
                "premise": premise,
                "conclusion": conclusion,
                "distribution": distribution,
            }
            if to_file:
                expected["witness"]["file"] = str(out_file)
        stdout = json.dumps(expected, indent=2) + "\n"
    else:
        stdout = text_with_out if to_file else text
    assert run(capsys, *argv) == (code, stdout, "")
    written = out_file.read_text() if out_file.exists() else None
    assert written == (witness[4] if to_file and witness is not None else None)


def test_json_text_of_the_other_commands(capsys, xor_file):
    cases = [
        (
            ("canon", "I(1,2 ; 2,3 | 1)", "--n", "3"), 0,
            {"command": "canon", "canonical": ["I(2 ; 2 | 1)"]},
        ),
        (
            ("check", "I(1 ; 2 | 3)", "--n", "3", "--dist", xor_file), 1,
            {
                "command": "check",
                "verdict": "INVALID",
                "canonical": ["I(1 ; 2 | 3)"],
                "values": {"j_value": 1.0},
            },
        ),
        (
            ("entropy", "I(3)", "I(1 ; 2)", "--n", "3", "--dist", xor_file), 0,
            {
                "command": "entropy",
                "canonical": ["I(3)", "I(1 ; 2)"],
                "values": {
                    "measures": [{"expr": "H(3)", "value": 1.0}, {"expr": "J(1 ; 2)", "value": 0.0}]
                },
            },
        ),
        (
            ("decompose", "I(1,2 ; 2,3 ; 4 | 1)", "--n", "4"), 0,
            {
                "command": "decompose",
                "canonical": ["I(2 ; 2 ; 3 ; 4 | 1)"],
                "values": {"components": ["I(2 ; 2 | 1)", "I(3 ; 4 | 1,2)"]},
            },
        ),
    ]
    for argv, code, expected in cases:
        assert run(capsys, *argv, "--json") == (code, json.dumps(expected, indent=2) + "\n", "")


def test_parser_surface():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    surface = {
        name: (
            helps[name],
            [
                (
                    "/".join(a.option_strings) or a.dest,
                    a.nargs,
                    a.required,
                    a.default,
                    getattr(a.type, "__name__", None),
                    a.help,
                )
                for a in p._actions
                if not isinstance(a, argparse._HelpAction)
            ],
        )
        for name, p in sub.choices.items()
    }
    assert list(surface) == list(PARSER_SURFACE)
    for name, expected in PARSER_SURFACE.items():
        assert surface[name] == expected, name


def test_module_entry_point_exit_codes():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "cmikit.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    assert cli("implies", "I(1 ; 2,3)", "I(1 ; 2)", "--n", "3") == (0, "IMPLIES\n", "")
    assert cli("implies", "I(1 ; 2)", "I(1 ; 2,3)", "--n", "3") == (
        1, "DOES NOT IMPLY\n" + COPY2_WITNESS, "",
    )
    assert cli("canon", "I(1,9)", "--n", "5") == (
        2, "", "error: line 1, column 5: index 9 outside the ground set 1..5\n",
    )


def test_cold_import_loads_no_dataclasses_inspect_or_json():
    # -S keeps site's .pth imports out, so only what cmikit.cli imports counts;
    # json is imported by --json alone, and the value classes are plain classes.
    code = "import sys, cmikit.cli; print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_check_golden_output(capsys, xor_file):
    code, out, _ = run(capsys, "check", "I(1 ; 2)", "--n", "3", "--dist", xor_file, "--verify")
    assert code == 0
    assert out == "VALID\nJ = 0.000000000000\n"
    code, out, _ = run(capsys, "check", "I(1 ; 2 | 3)", "--n", "3", "--dist", xor_file, "--verify")
    assert code == 1
    assert out == "INVALID\nJ = 1.000000000000\n"


def test_check_json_schema(capsys, xor_file):
    code, out, _ = run(capsys, "check", "I(1 ; 2 | 3)", "--n", "3", "--dist", xor_file, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload == {
        "command": "check",
        "verdict": "INVALID",
        "canonical": ["I(1 ; 2 | 3)"],
        "values": {"j_value": pytest.approx(1.0, abs=1e-12)},
    }


def test_entropy_golden_output(capsys, xor_file):
    code, out, _ = run(
        capsys, "entropy", "I(1,2)", "I(1 ; 2)", "I(1 ; 2 | 3)",
        "--n", "3", "--dist", xor_file,
    )
    assert code == 0
    assert out == (
        "H(1,2) = 2.000000000000\n"
        "J(1 ; 2) = 0.000000000000\n"
        "J(1 ; 2 | 3) = 1.000000000000\n"
    )


def test_entropy_json_schema(capsys, xor_file):
    code, out, _ = run(capsys, "entropy", "I(3)", "--n", "3", "--dist", xor_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "entropy"
    assert payload["values"]["measures"] == [
        {"expr": "H(3)", "value": pytest.approx(1.0, abs=1e-12)}
    ]


def test_decompose_golden_output(capsys):
    code, out, _ = run(
        capsys, "decompose", "I(1,2 ; 2,3 ; 4 ; 5 | 1)", "--n", "5",
        "--verify", "--samples", "40",
    )
    assert code == 0
    assert out == "I(2 ; 2 | 1)\nI(3 ; 4,5 | 1,2)\nI(4 ; 5 | 1,2,3)\n"


def test_decompose_json_of_degenerate_is_empty(capsys):
    code, out, _ = run(capsys, "decompose", "I(1,2)", "--n", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"]["components"] == []


def test_parse_errors_exit_2(capsys):
    code, out, err = run(capsys, "canon", "I(1,9)", "--n", "5")
    assert code == 2 and out == ""
    assert err == "error: line 1, column 5: index 9 outside the ground set 1..5\n"


def test_digit_runs_too_long_for_int_exit_2_with_a_position(capsys, tmp_path):
    code, out, err = run(capsys, "canon", "I(1 ; " + "2" * 5000 + ")", "--n", "5")
    assert (code, out, err) == (2, "", "error: line 1, column 7: number too long (5000 digits)\n")
    path = tmp_path / "long.dist"
    path.write_text("vars: X1:2 X2:2\n0 0 : 1/1\n1 " + "0" * 4999 + "1 : 0/1\n")
    code, out, err = run(capsys, "check", "I(1 ; 2)", "--n", "2", "--dist", str(path))
    assert (code, out, err) == (2, "", "error: line 3, column 3: number too long (5000 digits)\n")


def test_missing_distribution_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "check", "I(1 ; 2)", "--n", "2", "--dist", str(tmp_path / "nope"))
    assert code == 2 and err.startswith("error:")


def test_ground_set_mismatch_exits_2(capsys, xor_file):
    code, _, err = run(capsys, "check", "I(1 ; 2)", "--n", "2", "--dist", xor_file)
    assert code == 2 and "does not match" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["implies", "I(1)", "--n", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_color_gated_on_tty_and_environment(monkeypatch):
    class FakeTty:
        def isatty(self):
            return True

        def write(self, _):
            return 0

    monkeypatch.setattr(sys, "stdout", FakeTty())
    monkeypatch.setenv("CMIKIT_COLOR", "0")
    assert not _color_enabled()
    assert _verdict_line("VALID", True) == "VALID"
    monkeypatch.delenv("CMIKIT_COLOR")
    assert _color_enabled()
    assert _verdict_line("VALID", True) == "\x1b[32mVALID\x1b[0m"
    assert _verdict_line("INVALID", False) == "\x1b[31mINVALID\x1b[0m"


def test_no_color_when_not_a_tty(capsys, xor_file):
    _, out, _ = run(capsys, "check", "I(1 ; 2)", "--n", "3", "--dist", xor_file)
    assert "\x1b[" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("canon", "I(1 ; 2)"),
        ("equiv", "I(1 ; 2)", "I(2 ; 1)"),
        ("implies", "I(1 ; 2)", "I(2 ; 1)"),
        ("decompose", "I(1 ; 2 ; 3)"),
    ],
)
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_sample_counts_below_one(capsys, argv, samples):
    # Zero samples would print a verified verdict after checking nothing.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "3", "--verify", "--samples", samples])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --samples: must be at least 1, got {samples}" in err


def test_entropy_rejects_ground_set_mismatch_like_check(capsys, tmp_path):
    path = tmp_path / "five.dist"
    path.write_text("vars: A:2 B:2 C:2 D:2 E:2\n0 0 0 0 0 : 1/2\n1 1 1 1 1 : 1/2\n")
    message = "error: statement ground set 3 does not match distribution arity 5\n"
    for argv in (
        ("entropy", "I(1,2)", "--n", "3", "--dist", str(path)),
        ("entropy", "I(1 ; 2)", "--n", "3", "--dist", str(path)),
        ("check", "I(1 ; 2)", "--n", "3", "--dist", str(path)),
    ):
        assert run(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize("n", [9, 12, 64])
@pytest.mark.parametrize(
    "argv, expected",
    [
        (("canon", "I(1,2 ; 2,3 ; 4 ; {n} | 1)"), "I(2 ; 2 ; 3 ; 4 ; {n} | 1)\n"),
        (("equiv", "I(1,2 ; 2,3 ; 4 ; {n} | 1)", "I(2 ; 2 ; 3 ; 4 ; {n} | 1)"), "EQUIVALENT\n"),
        (("implies", "I(1,2 ; 2,3 ; 4 ; {n} | 1)", "I(3 ; 4,{n} | 1,2)"), "IMPLIES\n"),
        (
            ("decompose", "I(1,2 ; 2,3 ; 4 ; {n} | 1)"),
            "I(2 ; 2 | 1)\nI(3 ; 4,{n} | 1,2)\nI(4 ; {n} | 1,2,3)\n",
        ),
    ],
)
def test_verify_beyond_eight_variables(capsys, argv, expected, n):
    # --verify samples only the mentioned indices, relabelled, so it works at
    # any ground-set size.
    argv = [a.format(n=n) for a in argv]
    code, out, err = run(capsys, *argv, "--n", str(n), "--verify", "--samples", "40")
    assert (code, out, err) == (0, expected.format(n=n), "")


def test_verify_at_large_n_still_catches_a_wrong_verdict(capsys, monkeypatch):
    monkeypatch.setattr("cmikit.cli.implies", lambda k, k2: True)
    code, out, err = run(capsys, "implies", "I(1 ; 12)", "I(1 ; 12 | 3)", "--n", "12", "--verify")
    assert (code, out) == (2, "")
    assert err == (
        "error: verification failed: sampled distribution satisfies the premise "
        "but violates the declared consequence\n"
    )


def test_verify_names_its_variable_limit(capsys):
    code, out, err = run(capsys, "canon", "I(1,2,3,4,5 ; 6,7,8,9 | 10)", "--n", "12", "--verify")
    assert (code, out) == (2, "")
    assert err == (
        "error: --verify samples at most 8 mentioned variables; these statements mention 10\n"
    )

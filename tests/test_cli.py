"""End-to-end command-line tests driven through main(): goldens, exits, JSON."""

import json
import sys

import pytest

from cmikit import parse_distribution
from cmikit.cli import main, _color_enabled, _verdict_line

XOR_TEXT = (
    "vars: X1:2 X2:2 X3:2\n"
    "0 0 0 : 1/4\n"
    "0 1 1 : 1/4\n"
    "1 0 1 : 1/4\n"
    "1 1 0 : 1/4\n"
)


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

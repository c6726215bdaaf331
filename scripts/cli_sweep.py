#!/usr/bin/env python3
"""Run a fixed list of CLI invocations in-process and print a fingerprint of each.

Each line gives the exit code, a SHA-256 over stdout, stderr and the ``--out``
file (empty when none was written), and the invocation.  The temporary
directory that holds the distribution and output files is written as
``<tmp>`` everywhere, and ``COLUMNS`` is fixed so that ``--help`` text does not
depend on the terminal.  The output is committed as
``tests/golden/cli_sweep.txt``, which ``tests/test_scripts.py`` compares line
by line.  To compare two trees directly, run the sweep under each::

    PYTHONPATH=old/src python scripts/cli_sweep.py > old.txt
    PYTHONPATH=new/src python scripts/cli_sweep.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

from cmikit.cli import main as cli_main

LONG = "9" * 5000

GRID_HEAD = "vars: X1:2 X2:4 X3:5\n"
GRID_ROWS = [f"{a} {b} {c} : 1/40\n" for a in range(2) for b in range(4) for c in range(5)]

# Distribution files written into the temporary directory before the sweep.
FILES = {
    "xor.txt": "vars: X1:2 X2:2 X3:2\n0 0 0 : 1/4\n0 1 1 : 1/4\n1 0 1 : 1/4\n1 1 0 : 1/4\n",
    "dup.txt": "vars: X1:2 X2:2\n0 0 : 1/2\n0 0 : 1/2\n",
    "header.txt": "X1:2 X2:2\n0 0 : 1/1\n",
    "mass.txt": "vars: X1:2 X2:2\n0 0 : 1/2\n1 1 : 1/3\n",
    "symbol.txt": "vars: X1:2 X2:2\n0 2 : 1/1\n",
    "long.txt": f"vars: X1:2 X2:2\n0 0 : 1/1\n1 {LONG} : 0/1\n",
    "longsize.txt": f"vars: X1:{LONG} X2:2\n0 0 : 1/1\n",
    # Alphabet sizes 1, 3 and 5: fields that are not a power of two wide.
    "mixed.txt": (
        "vars: A:1 B:3 C:5 D:3\n0 0 0 0 : 1/6\n0 1 4 1 : 1/6\n0 2 3 2 : 1/6\n"
        "0 0 4 1 : 1/12\n0 1 0 0 : 1/12\n0 2 2 2 : 1/3\n"
    ),
    # Comments, tab and U+3000 separators, a zero row and Arabic-Indic digits.
    "spaced.txt": (
        "# three variables, spelled loosely\n"
        "vars:\tA:2\u3000B:\u0662 C:3   # one size in Arabic-Indic digits\n"
        "\n"
        "\t0\t0 0 : 1/4\n"
        "0\u30001\u30001 : 1/4   # ideographic spaces\n"
        "\u0661 \u0660 2 : \u0661/4\n"
        "1 1 2 : 1/4\n"
        "1 1 1 : 0/7\n"
    ),
    # 40 rows, each 1/40; in the malformed copies the first error is on the last row.
    "grid.txt": GRID_HEAD + "".join(GRID_ROWS),
    "lastsym.txt": GRID_HEAD + "".join(GRID_ROWS[:-1]) + "1 3 \u00b2 : 1/40\n",
    "lastslash.txt": GRID_HEAD + "".join(GRID_ROWS[:-1]) + "1 3 4 : 1/2/3\n",
    "lastdup.txt": GRID_HEAD + "".join(GRID_ROWS[:-1]) + GRID_ROWS[0],
    # A duplicate outcome spelled differently: rows are told apart by value.
    "respelled.txt": "vars: X1:2 X2:2\n0 0 : 1/2\n00 0 : 1/2\n",
    # X2 is X1 mod 2, a function of X1; X3 is an independent bit.
    "function.txt": (
        "vars: X1:3 X2:2 X3:2\n0 0 0 : 1/8\n0 0 1 : 1/8\n1 1 0 : 1/6\n1 1 1 : 1/6\n"
        "2 0 0 : 5/24\n2 0 1 : 5/24\n"
    ),
}

# The invocations; ``<tmp>`` stands for the temporary directory.
CASES = [
    # canon
    ["canon", "I(1,2 ; 2,3 | 1)", "--n", "3"],
    ["canon", "I(1 ; 2)", "--n", "3", "--json"],
    ["canon", "I(1;2;3|4)", "--n", "4", "--verify"],
    ["canon", "I(1)", "--n", "2"],
    ["canon", "I(|1)", "--n", "2", "--json"],
    ["canon", "I({} ; 1 ; {})", "--n", "2"],
    ["canon", "I(35,3 ; 40 | 64,1)", "--n", "64"],
    ["canon", "I(40,35,3 ; 3,35 ; 62,61 | 64,17)", "--n", "64", "--json"],
    ["canon", "I(1;٣)", "--n", "3"],
    ["canon", "I(1　; 2 | 3)", "--n", "3"],
    ["canon", "I(1;2", "--n", "3"],
    ["canon", "I(1;²)", "--n", "3"],
    ["canon", "I(1,9)", "--n", "5"],
    ["canon", "I(1;2) x", "--n", "3"],
    ["canon", "I(1;2)", "--n", "65"],
    ["canon", "I(1;2)", "--n", "0"],
    ["canon", f"I(1 ; {LONG})", "--n", "5"],
    ["canon", f"I(1 ; 2 | {LONG})", "--n", "5"],
    ["canon", "I(1,2,3,4,5 ; 6,7,8,9 | 10)", "--n", "12", "--verify"],
    # equiv
    ["equiv", "I(1,2 ; 2,3 | 1)", "I(2 ; 2 | 1)", "--n", "3"],
    ["equiv", "I(1,2 ; 2,3 | 4)", "I(2 ; 3 | 1,4)", "--n", "4"],
    ["equiv", "I(1,2 ; 2,3 | 4)", "I(2 ; 3 | 1,4)", "--n", "4", "--json"],
    ["equiv", "I(1,2 ; 2,3 | 4)", "I(2 ; 3 | 1,4)", "--n", "4", "--out", "<tmp>/equiv.txt"],
    ["equiv", "I(1,2 ; 2,3 | 1)", "I(2 ; 2 | 1)", "--n", "3", "--verify"],
    ["equiv", "I(1 ; 12 | 5)", "I(12 ; 1 | 5)", "--n", "12", "--verify"],
    ["equiv", "I(35,3 ; 40)", "I(40 ; 3,35)", "--n", "64", "--json"],
    ["equiv", "I(35,3 ; 40)", "I(40 ; 3)", "--n", "64"],
    # implies
    ["implies", "I(1 ; 2,3)", "I(1 ; 2)", "--n", "3"],
    ["implies", "I(1 ; 2)", "I(1 ; 2,3)", "--n", "3"],
    ["implies", "I(1 ; 2)", "I(1 ; 2,3)", "--n", "3", "--json"],
    ["implies", "I(1 ; 2)", "I(1 ; 2,3)", "--n", "3", "--out", "<tmp>/implies.txt"],
    ["implies", "I(1 ; 2)", "I(1 ; 2,3)", "--n", "3", "--json", "--out", "<tmp>/implies2.txt"],
    ["implies", "I(1 ; 2,3 ; 4 | 5)", "I(1 ; 4 | 2,5)", "--n", "5", "--verify"],
    ["implies", "I(1,40 ; 2 | 39)", "I(1 ; 2 | 39)", "--n", "40", "--verify", "--samples", "40"],
    ["implies", "I(1;2;3;4;5;6;7;8;9)", "I(1;2)", "--n", "9", "--verify"],
    ["implies", "I(1 ; 2)", "I(1 ; 2)", "--n", "3", "--verify", "--samples", "0"],
    ["implies", "I(1 ; 2)", "I(1 ; 2)", "--n", "3", "--verify", "--samples", "3", "--seed", "7"],
    ["implies", "I(64,35,3 ; 40,2 | 17,9)", "I(3 ; 40 | 17,9)", "--n", "64"],
    ["implies", "I(35 ; 3)", "I(35 ; 3 | 40)", "--n", "64", "--json"],
    ["implies", "I(1 ; 2)", "I(1 ; 3)", "--n", "2"],
    # witness
    ["witness", "I(1 ; 2 | 3)", "I(2 ; 1 | 3)", "--n", "3"],
    ["witness", "I(1 ; 2)", "I(1 ; 2 | 3)", "--n", "3"],
    ["witness", "I(1 ; 2)", "I(1 ; 2 | 3)", "--n", "3", "--json"],
    ["witness", "I(1 ; 2)", "I(1 ; 2 | 3)", "--n", "3", "--out", "<tmp>/witness.txt"],
    ["witness", "I(1 ; 2 | 3)", "I(2 ; 1 | 3)", "--n", "3", "--json", "--out", "<tmp>/none.txt"],
    ["witness", "I(3 ; 35 | 40)", "I(40,3 ; 35)", "--n", "64", "--json"],
    ["witness", "I(1 ; 3 ; 4 | 5)", "I(1,2 ; 2,3 ; 4 | 5)", "--n", "6"],
    # check
    ["check", "I(1 ; 2)", "--n", "3", "--dist", "<tmp>/xor.txt"],
    ["check", "I(1 ; 2 | 3)", "--n", "3", "--dist", "<tmp>/xor.txt"],
    ["check", "I(1 ; 2 | 3)", "--n", "3", "--dist", "<tmp>/xor.txt", "--json"],
    ["check", "I(1 ; 2 ; 3)", "--n", "3", "--dist", "<tmp>/xor.txt", "--verify"],
    ["check", "I(1 ; 2)", "--n", "2", "--dist", "<tmp>/xor.txt"],
    ["check", "I(1 ; 2)", "--n", "2", "--dist", "<tmp>/dup.txt"],
    ["check", "I(1 ; 2)", "--n", "2", "--dist", "<tmp>/header.txt"],
    ["check", "I(1 ; 2)", "--n", "2", "--dist", "<tmp>/mass.txt"],
    ["check", "I(1 ; 2)", "--n", "2", "--dist", "<tmp>/symbol.txt"],
    ["check", "I(1 ; 2)", "--n", "2", "--dist", "<tmp>/long.txt"],
    ["check", "I(1 ; 2)", "--n", "2", "--dist", "<tmp>/longsize.txt"],
    ["check", "I(1 ; 2)", "--n", "2", "--dist", "<tmp>/missing.txt"],
    # entropy
    ["entropy", "I(1)", "I(3,1)", "I(|2)", "I(1;2)", "I(1;2|3)", "I(1,2;3)", "--n", "3", "--dist", "<tmp>/xor.txt"],
    ["entropy", "I(1)", "I(1;2|3)", "I(1;2;3)", "--n", "3", "--dist", "<tmp>/xor.txt", "--json"],
    ["entropy", "I(1)", "--n", "4", "--dist", "<tmp>/xor.txt"],
    ["entropy", "I(1;4)", "--n", "3", "--dist", "<tmp>/xor.txt"],
    # decompose
    ["decompose", "I(1;2;3;4|5)", "--n", "5"],
    ["decompose", "I(1,2 ; 2,3 ; 4 | 5)", "--n", "5", "--json"],
    ["decompose", "I(1,2 ; 2,3 ; 4 | 5)", "--n", "5", "--verify"],
    ["decompose", "I(1)", "--n", "3", "--json"],
    ["decompose", "I(64,35 ; 3,40 ; 17 | 9)", "--n", "64"],
    # usage and help
    ["--help"],
    *([name, "--help"] for name in ("canon", "equiv", "implies", "witness", "check", "entropy", "decompose")),
    [],
    ["implies", "I(1)", "--n", "3"],
    ["canon", "I(1)"],
    ["bogus"],
    # non-power-of-two alphabets
    ["check", "I(1 ; 2,3,4)", "--n", "4", "--dist", "<tmp>/mixed.txt"],
    ["check", "I(2 ; 4 | 3)", "--n", "4", "--dist", "<tmp>/mixed.txt"],
    ["check", "I(2 ; 3)", "--n", "4", "--dist", "<tmp>/mixed.txt"],
    ["check", "I(2 ; 3 | 4)", "--n", "4", "--dist", "<tmp>/mixed.txt", "--json"],
    ["check", "I(1 ; 2 ; 4 | 3)", "--n", "4", "--dist", "<tmp>/mixed.txt", "--json"],
    ["entropy", "I(1)", "I(3)", "I(2;3)", "I(2;4|3)", "I(1,2;3,4)", "--n", "4", "--dist", "<tmp>/mixed.txt"],
    ["entropy", "I(2;3;4)", "I(3,4|2)", "--n", "4", "--dist", "<tmp>/mixed.txt", "--json"],
    # loosely spelled and 40-row files
    ["check", "I(1 ; 3 | 2)", "--n", "3", "--dist", "<tmp>/spaced.txt"],
    ["check", "I(1 ; 2)", "--n", "3", "--dist", "<tmp>/spaced.txt", "--json"],
    ["entropy", "I(1)", "I(2;3)", "I(1;2|3)", "I(1,2,3)", "--n", "3", "--dist", "<tmp>/spaced.txt"],
    ["entropy", "I(1;3|2)", "--n", "3", "--dist", "<tmp>/spaced.txt", "--json"],
    ["check", "I(1 ; 2 ; 3)", "--n", "3", "--dist", "<tmp>/grid.txt"],
    ["entropy", "I(1,2,3)", "I(2;3|1)", "--n", "3", "--dist", "<tmp>/grid.txt"],
    ["check", "I(1 ; 2)", "--n", "3", "--dist", "<tmp>/lastsym.txt"],
    ["check", "I(1 ; 2)", "--n", "3", "--dist", "<tmp>/lastslash.txt"],
    ["check", "I(1 ; 2)", "--n", "3", "--dist", "<tmp>/lastdup.txt"],
    ["entropy", "I(1)", "--n", "3", "--dist", "<tmp>/lastdup.txt"],
    # argparse's error paths: the usage lines list the actions in the order
    # the parser adds them
    *([name] for name in ("canon", "equiv", "implies", "witness", "check", "entropy", "decompose")),
    ["equiv", "I(1 ; 2)", "--n", "3"],
    ["decompose", "I(1 ; 2)"],
    ["decompose", "I(1 ; 2)", "--n", "x"],
    ["check", "I(1 ; 2)", "--n", "3"],
    ["entropy", "I(1)", "--n", "3"],
    ["entropy", "--n", "3", "--dist", "<tmp>/xor.txt"],
    ["implies", "I(1 ; 2)", "I(1 ; 2)", "--n", "3", "--verify", "--samples", "x"],
    ["witness", "I(1 ; 2)", "I(1 ; 2 | 3)", "--n", "3", "--verify"],
    ["check", "I(1 ; 2)", "--n", "3", "--dist", "<tmp>/xor.txt", "--seed", "1"],
    ["canon", "I(1 ; 2)", "--n", "3", "--out", "<tmp>/canon.txt"],
    # statement syntax errors, each at its token
    *(["canon", text, "--n", "5"] for text in ("J(1)", "I 12", "I(1 ;; 2)", "I(1,)", "I({)", "I(|)")),
    ["implies", "I(1 ; 2)", "I(1 ; {2})", "--n", "3"],
    # a duplicate row in another spelling
    ["check", "I(1 ; 2)", "--n", "2", "--dist", "<tmp>/respelled.txt"],
    # An XOR plan with pivots (2, 1, 4), out of sorted order.
    ["witness", "I(1 ; 2 ; 3)", "I(2 ; 1,3 | 4)", "--n", "4"],
    # Loose spellings of valid statements, and errors found only by the token walk.
    ["canon", "I( { } ; 2 ,1 |\t3 )", "--n", "3"],
    ["equiv", "I(1 ;\n 2 | 3)", "I(2;1|3)", "--n", "3", "--json"],
    *(["canon", text, "--n", "5"] for text in ("I(1|)", "I(1 2)", "I(1;2)(3)")),
    # Blocks that the condition determines, so that the validity check drops them.
    ["check", "I(2 ; 2 | 1)", "--n", "3", "--dist", "<tmp>/function.txt"],
    ["check", "I(2 ; 3 ; 2 | 1)", "--n", "3", "--dist", "<tmp>/function.txt", "--json"],
    ["check", "I(1,2 ; 3 ; 2 | 1)", "--n", "3", "--dist", "<tmp>/function.txt", "--verify"],
    ["check", "I(2 ; 2 | 3)", "--n", "3", "--dist", "<tmp>/function.txt"],
    ["check", "I(1 ; 2 ; 2 | 3)", "--n", "3", "--dist", "<tmp>/function.txt", "--json"],
    ["entropy", "I(2;2|1)", "I(2;3;2|1)", "I(1;2)", "I(2|1)", "I(1,2;3)", "--n", "3", "--dist", "<tmp>/function.txt"],
    ["entropy", "I(2;2|3)", "I(1;2;2|3)", "--n", "3", "--dist", "<tmp>/function.txt", "--json"],
    ["decompose", "I(2 ; 2 ; 3 | 1)", "--n", "3", "--verify"],
    ["decompose", "I(1,2 ; 3 ; 2 | 1)", "--n", "3", "--verify", "--json"],
]


def _label(argv: list[str]) -> str:
    """The invocation as shell words on one line: each over-long argument abbreviated, each newline written ``\\n``."""
    return shlex.join(a if len(a) <= 40 else f"{a[:12]}...[{len(a)} chars]" for a in argv).replace("\n", "\\n")


def run_case(argv: list[str], tmp: str) -> tuple[int, str]:
    """Exit code and SHA-256 of one invocation, with ``<tmp>`` substituted and restored."""
    real = [a.replace("<tmp>", tmp) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(real)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    written = ""
    if "--out" in real:
        path = Path(real[real.index("--out") + 1])
        if path.exists():
            written = path.read_text()
            path.unlink()
    digest = hashlib.sha256()
    for part in (out.getvalue(), err.getvalue(), written):
        digest.update(part.replace(tmp, "<tmp>").encode() + b"\0")
    return code, digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for name, text in FILES.items():
            Path(tmp, name).write_text(text)
        for case in CASES:
            code, digest = run_case(case, tmp)
            print(f"{code} {digest} {_label(case)}")
    print(f"{len(CASES)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())

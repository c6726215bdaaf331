"""The library's text parsers against the reference parsers in ``textio_reference``.

``parse_cmi`` reads a well-formed statement by one pattern match and
``str.split``, and walks a rejected text's tokens only to explain its error;
the reference ``textio_reference.parse_cmi`` is the older token walk with one
helper call per block.  On loosely spelled statements, some with one or two
mutations, both must give an equal statement with its blocks in the same
written order, or the same ``ParseError``: line, column and message.  No
unmutated text may reach the error walk, and whitespace that ``int()`` does not
strip (U+001C..U+001F) may touch any index.

``parse_distribution`` checks every row rule on whole columns, converting each
distinct spelling once, and only walks the rows to locate an error;
``textio_reference.parse_distribution`` is the parser as it was, one loop that
checks each row in turn.  On loosely spelled texts of up to 300 rows, some with
one or two late mutations, and on texts the size of the CLI benchmark's files,
both must give an equal distribution (in the same order) or the same
``ParseError``.
"""

from __future__ import annotations

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import textio_reference
from cmikit import Cmi, ParseError, parse_cmi, parse_distribution, textio

# Whitespace of several kinds: U+3000 ideographic space, U+001C file separator,
# U+0085 next line, and a carriage return (as left by a \r\n ending).
SEPARATORS = (" ", "  ", "\t", " \t", "　", "\x1c", "\x85", "\r")
# The zero digit of ASCII, Arabic-Indic, Devanagari and fullwidth forms.
ZEROS = (0x30, 0x30, 0x30, 0x660, 0x966, 0xFF10)
LONG = "1" * 5000  # more digits than int() converts by default

MUTATIONS = (
    "drop row",
    "duplicate row",
    "respelled duplicate row",
    "symbol out of range",
    "superscript symbol",
    "long symbol",
    "long numerator",
    "long denominator",
    "missing probability",
    "extra probability word",
    "1/2/3",
    "/2",
    "1/0",
    "too few symbols",
    "too many symbols",
    "mass not 1",
    "colon in symbol field",
    "no colon",
)


def spell(rng: random.Random, value: int) -> str:
    """``value`` in decimal digits, maybe with leading zeros, each digit in a random script."""
    digits = "0" * rng.choice((0, 0, 0, 0, 1, 2)) + str(value)
    return "".join(chr(rng.choice(ZEROS) + int(d)) for d in digits)


def respell(rng: random.Random, word: str) -> str:
    """``word`` spelled differently: with one more leading zero, or, when it is a
    digit run, with its digits in a script other than its first digit's."""
    if rng.random() < 0.5 or not word.isdecimal():
        return chr(rng.choice(ZEROS)) + word
    zero = rng.choice([z for z in set(ZEROS) if z != ord(word[0]) - int(word[0])])
    return "".join(chr(zero + int(d)) for d in word)


def space(rng: random.Random, least: int = 1) -> str:
    return "".join(rng.choice(SEPARATORS) for _ in range(rng.randint(least, 2)))


def loose_text(rng: random.Random, mutations: list[str], max_rows: int = 300) -> str:
    """Distribution text with comments, blank lines, mixed whitespace, digits of
    several scripts and rows not in lowest terms; then each mutation is applied
    at a row in the last third."""
    n = rng.randint(1, 5)
    sizes = [rng.randint(1, 5) for _ in range(n)]
    grid = list(itertools.product(*map(range, sizes)))
    support = rng.sample(grid, min(len(grid), rng.randint(0, max_rows)))
    weights = [rng.choice((0, 1, 1, 2, 3, 5)) for _ in support]
    if support and not any(weights):
        weights[-1] = 1
    total = sum(weights)
    rows = []
    for outcome, w in zip(support, weights):
        k = rng.randint(1, 3)
        num, den = (w * k, total * k) if w else (0, rng.randint(1, 9))
        rows.append({"symbols": [spell(rng, s) for s in outcome], "prob": f"{spell(rng, num)}/{spell(rng, den)}"})
    for kind in mutations:
        if kind == "mass not 1":  # a header-only text already has no mass
            if rows:
                rows[-1]["prob"] = "1/7" if rows[-1]["prob"] != "1/7" else "2/7"
            continue
        if not rows:
            rows.append({"symbols": ["0"] * n, "prob": "1/1"})
        i = rng.randrange(len(rows) * 2 // 3, len(rows))
        row = rows[i]
        if not row["symbols"]:  # an earlier mutation took the only one
            row["symbols"].append("0")
        v = rng.randrange(len(row["symbols"]))
        if kind == "drop row":
            del rows[i]
        elif kind == "duplicate row":
            j = rng.randrange(i + 1)
            rows.insert(i + 1, {"symbols": list(rows[j]["symbols"]), "prob": rows[j]["prob"]})
        elif kind == "respelled duplicate row":  # the same outcome, no symbol spelled as before
            j = rng.randrange(i + 1)
            rows.insert(i + 1, {"symbols": [respell(rng, w) for w in rows[j]["symbols"]], "prob": rows[j]["prob"]})
        elif kind == "symbol out of range":  # past n after "too many symbols": use the last size
            row["symbols"][v] = spell(rng, sizes[min(v, n - 1)] + rng.randint(0, 3))
        elif kind == "superscript symbol":
            row["symbols"][v] = "²"
        elif kind == "long symbol":
            row["symbols"][v] = LONG
        elif kind == "long numerator":
            row["prob"] = LONG + "/" + row["prob"].partition("/")[2]
        elif kind == "long denominator":
            row["prob"] = row["prob"].partition("/")[0] + "/" + LONG
        elif kind == "missing probability":
            row["prob"] = ""
        elif kind == "extra probability word":
            row["prob"] += space(rng) + rng.choice(("x", "1/2", "0"))
        elif kind in ("1/2/3", "/2", "1/0"):
            row["prob"] = kind
        elif kind == "too few symbols":
            del row["symbols"][v]
        elif kind == "too many symbols":
            row["symbols"].insert(v, "0")
        elif kind == "colon in symbol field":
            row["symbols"][v] += rng.choice((":", ":1"))
        elif kind == "no colon":
            row["colon"] = ""
    out = []
    for _ in range(rng.randint(0, 2)):
        out.append(rng.choice(("", "# a comment: before the header", space(rng), "#")))
    out.append(space(rng, 0) + "vars:" + "".join(space(rng) + f"X{i}:{spell(rng, s)}" for i, s in enumerate(sizes)))
    for row in rows:
        if rng.random() < 0.05:
            out.append(rng.choice(("", "# between rows: 0 0 : 1/1", space(rng))))
        symbols = row["symbols"]
        line = space(rng, 0) + "".join(s + space(rng) for s in symbols[:-1]) + "".join(symbols[-1:])
        line += space(rng, 0) + row.get("colon", ":") + space(rng, 0) + row["prob"] + space(rng, 0)
        if rng.random() < 0.1:
            line += "# trailing: 1/2 " + rng.choice(("", "x", ":"))
        out.append(line)
    ending = rng.choice(("\n", "\r\n"))
    return ending.join(out) + rng.choice((ending, ""))


def result_of(parse, text):
    """What ``parse`` makes of ``text``: the distribution, its sizes and its items in
    order, or the error's line, column and message."""
    try:
        p = parse(text)
    except ParseError as exc:
        return ("error", exc.line, exc.column, str(exc))
    return ("ok", p.alphabet_sizes, list(p.pmf.items()), p)


def same(text):
    want = result_of(textio_reference.parse_distribution, text)
    assert result_of(parse_distribution, text) == want, text[:300]
    return want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(MUTATIONS), max_size=2))
def test_parser_matches_the_row_by_row_reference(seed, mutations):
    same(loose_text(random.Random(seed), mutations))


def test_differential_texts_reach_every_outcome():
    # The generator is worth something only if it both parses and fails: every
    # mutation must be seen to raise, and the unmutated texts must parse.
    rng = random.Random(14)
    messages = set()
    for kind in MUTATIONS:
        errors = 0
        for _ in range(12):
            result = same(loose_text(rng, [kind], max_rows=40))
            errors += result[0] == "error"
            if result[0] == "error":
                messages.add(result[3].split(":", 1)[1].split()[0])
            if kind == "respelled duplicate row":  # found by value, not by spelling
                assert result[0] == "error" and "duplicate row for outcome" in result[3], result
        assert errors >= 6, kind
    accepted = sum(same(loose_text(rng, [], max_rows=300))[0] == "ok" for _ in range(30))
    assert accepted >= 25
    assert {"expected", "bad", "symbol", "missing", "unexpected", "malformed", "probability", "duplicate",
            "number"} <= messages


def wide_text(rng: random.Random, n: int, rows: int, loose: bool) -> tuple[str, list[int]]:
    """Distribution text over ``n`` variables of alphabet 2-4 with ``rows`` distinct
    outcomes in random order, not in lowest terms, and its sizes; with ``loose``,
    every number is spelled as ``spell`` spells it."""
    sizes = [rng.choice((2, 3, 4)) for _ in range(n)]
    assert math.prod(sizes) >= rows, "too few outcomes for the rows"
    num = (lambda v: spell(rng, v)) if loose else str
    support: dict[tuple[int, ...], int] = {}
    while len(support) < rows:
        support[tuple(rng.randrange(s) for s in sizes)] = rng.randint(1, 9)
    total, k = sum(support.values()), rng.randint(1, 3)
    lines = ["vars: " + " ".join(f"X{i}:{num(s)}" for i, s in enumerate(sizes, start=1))]
    lines += [" ".join(map(num, o)) + f" : {num(w * k)}/{num(total * k)}" for o, w in support.items()]
    return "\n".join(lines) + "\n", sizes


@pytest.mark.parametrize("n, loose", [(12, False), (14, True), (16, False)])
def test_parser_matches_the_reference_on_texts_the_size_of_the_cli_files(n, loose):
    # The CLI benchmark loads files of 2,048-2,304 rows over up to 16 variables,
    # far past the 5 variables and 300 rows of ``loose_text``.
    rng = random.Random(2300 + n)
    text, sizes = wide_text(rng, n, 2300, loose)
    assert same(text)[0] == "ok"
    # The last row's symbol in the narrowest column is set to that column's size:
    # outside its own alphabet, though inside a wider column's.
    v = sizes.index(min(sizes))
    assert sizes[v] < max(sizes)
    *head, last = text.rstrip("\n").split("\n")
    symbols, colon, prob = last.rpartition(":")
    symbols = symbols.split()
    symbols[v] = str(sizes[v])
    result = same("\n".join(head + [" ".join(symbols) + " " + colon + prob]) + "\n")
    assert result[:3] == ("error", len(head) + 1, 1 + sum(len(w) + 1 for w in symbols[:v])), result


def test_each_distinct_spelling_is_converted_once(monkeypatch):
    # On a 384-row text over 8 variables, like the benchmark's planted ones, ``int``
    # runs once per distinct spelling of a symbol column and twice per distinct
    # probability word (plus once per header size), not once per cell.
    text, sizes = wide_text(random.Random(384), 8, 384, loose=False)
    rows = [line.rpartition(":") for line in text.splitlines()[1:]]
    columns = list(zip(*(symbols.split() for symbols, _, _ in rows)))
    bound = sum(len(set(c)) for c in columns) + 2 * len({p.strip() for _, _, p in rows}) + len(sizes)
    calls = []

    def counting_int(*args):
        calls.append(args)
        return int(*args)

    want = same(text)
    monkeypatch.setattr(textio, "int", counting_int, raising=False)
    assert result_of(parse_distribution, text) == want
    assert 0 < len(calls) <= bound < len(rows)


# Statement tokens that a mutation inserts or drops, and trailing texts.
PUNCTUATION = (",", ";", "|", "{", "}", "(", ")", "I")
STATEMENT_MUTATIONS = (
    *(f"insert {p}" for p in PUNCTUATION),
    *(f"drop {p}" for p in PUNCTUATION),
    "index out of range",
    "long index",
    "trailing text",
)


def loose_statement(rng: random.Random, mutations: list[str]) -> tuple[str, int]:
    """Statement text over ``1..n`` and ``n``: zero to four blocks, some ``{}``, a
    condition or none (the empty one), indices in several scripts with leading
    zeros, tokens split by mixed whitespace and newlines; then each mutation."""
    n = rng.choice((1, 2, 3, 5, 8, rng.randint(1, 64)))
    index = lambda: spell(rng, rng.randint(1, n))
    tokens = ["I", "("]
    for b in range(rng.choice((0, 1, 2, 2, 3, 4))):
        tokens += [";"] * (b > 0)
        if rng.random() < 0.15:
            tokens += ["{", "}"]
        else:
            tokens += [index()]
            for _ in range(rng.choice((0, 0, 1, 2))):
                tokens += [",", index()]
    if rng.random() < 0.5:
        tokens += ["|", index()] + [t for _ in range(rng.choice((0, 1, 2))) for t in (",", index())]
    tokens += [")"]
    for kind in mutations:
        digits = [i for i, t in enumerate(tokens) if t[0].isdecimal()] or [len(tokens)]
        at = rng.choice(digits)
        if kind.startswith("insert "):
            tokens.insert(rng.randint(0, len(tokens)), kind[-1])
        elif kind.startswith("drop "):
            if kind[-1] in tokens:
                del tokens[rng.choice([i for i, t in enumerate(tokens) if t == kind[-1]])]
        elif kind == "index out of range":
            tokens[at:at + 1] = [spell(rng, rng.choice((0, n + 1, n + rng.randint(2, 70))))]
        elif kind == "long index":
            tokens[at:at + 1] = [LONG]
        else:
            tokens.append(rng.choice(("x", ";", ")", "I(1)", "\u0661", "#")))
    text = space(rng, 0) * (rng.random() < 0.3)
    for left, right in zip(tokens, tokens[1:] + [""]):
        gap = rng.choice(("", "", " ", " ", "\n", "\u3000", "\x1c")) + space(rng, 0) * (rng.random() < 0.2)
        text += left + (gap or " " * (left[0].isdecimal() and right[:1].isdecimal()))
    return text, n


def statement_result(parse, text, n):
    """What ``parse`` makes of ``text``: the statement and its written block order,
    or the error's line, column and message."""
    try:
        k = parse(text, n)
    except ParseError as exc:
        return ("error", exc.line, exc.column, str(exc))
    return ("ok", k, k._written)


def same_statement(text, n):
    want = statement_result(textio_reference.parse_cmi, text, n)
    assert statement_result(parse_cmi, text, n) == want, (text[:300], n)
    return want


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(STATEMENT_MUTATIONS), max_size=2))
def test_parse_cmi_matches_the_token_walk_reference(seed, mutations):
    same_statement(*loose_statement(random.Random(seed), mutations))


def test_statement_texts_reach_every_outcome():
    # As for distributions: every mutation must be seen to raise, the unmutated
    # texts must parse, and every error message of the parser must be met.
    rng = random.Random(19)
    messages = set()
    for kind in STATEMENT_MUTATIONS:
        errors = 0
        for _ in range(20):
            result = same_statement(*loose_statement(rng, [kind]))
            errors += result[0] == "error"
            if result[0] == "error":
                messages.add(re.sub(r"[1-9]\d*", "N", result[3].split(": ", 1)[1].split(", found")[0]))
        assert errors >= 5, kind
    assert all(same_statement(*loose_statement(rng, []))[0] == "ok" for _ in range(200))
    assert messages == {
        "expected 'I'", "expected '('", "expected '}'", "expected ')'", "expected a variable index",
        "index 0 outside the ground set N..N", "index N outside the ground set N..N",
        "number too long (N digits)", "unexpected text after statement",
    }, messages


def test_information_separators_next_to_indices_are_whitespace():
    # U+001C..U+001F are whitespace to str.isspace, str.split and the token
    # pattern, but int() does not strip them: here they touch every index, sit
    # inside "{ }" and come right before "|" and ")".
    for sep in "\x1c\x1d\x1e\x1f":
        text = "".join(f"{sep}{t}" for t in "I ( 1 , 2 ; { } ; 3 | 4 , 5 )".split()) + sep
        assert same_statement(text, 5) == ("ok", Cmi(5, {4, 5}, ({1, 2}, (), {3})), (0b11, 0, 0b100))


def test_every_unmutated_statement_takes_the_accept_path(monkeypatch):
    # The token walk only explains errors: no text the grammar accepts may reach it.
    def unreachable(text, n):
        raise AssertionError(f"the error walk ran on {text!r}")

    monkeypatch.setattr(textio, "_raise_statement_error", unreachable)
    rng = random.Random(29)
    for _ in range(200):
        text, n = loose_statement(rng, [])
        want = statement_result(textio_reference.parse_cmi, text, n)
        assert want[0] == "ok" and statement_result(parse_cmi, text, n) == want, (text, n)

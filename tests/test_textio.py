"""Statement and distribution text formats: goldens, positions, round-trips."""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from samplers import random_cmi
from cmikit import (
    Cmi,
    JointDistribution,
    ParseError,
    parse_cmi,
    parse_distribution,
    random_distribution,
    render_cmi,
    render_distribution,
)
from cmikit.textio import _TOKEN, _WORD

CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))
SPACES = "".join(c for c in CODE_POINTS if c.isspace())


def test_parse_cmi_basic_shapes():
    assert parse_cmi("I(1,2 ; 3 | 4)", 5) == Cmi(5, {4}, ({1, 2}, {3}))
    assert parse_cmi("I()", 4) == Cmi(4, set(), ())
    assert parse_cmi("I(| 3)", 4) == Cmi(4, {3}, ())
    assert parse_cmi("I(1)", 4) == Cmi(4, set(), ({1},))
    assert parse_cmi("I({} ; 1,2)", 4) == Cmi(4, set(), (frozenset(), {1, 2}))


def test_parse_cmi_whitespace_is_insignificant():
    assert parse_cmi("  I ( {} ; 1 , 2 | 3 )  ", 3) == Cmi(3, {3}, (frozenset(), {1, 2}))
    assert parse_cmi("I(1,2;3|4)", 4) == parse_cmi("I( 1 , 2 ; 3 | 4 )", 4)


def test_parse_cmi_preserves_block_order():
    k = parse_cmi("I(2,3 ; 1 ; {} | 4)", 4)
    assert k.blocks == (frozenset({2, 3}), frozenset({1}), frozenset())


def test_parse_cmi_error_positions():
    cases = [
        ("J(1)", 5, 1, 1, "expected 'I'"),
        ("I(1,9 | 2)", 5, 1, 5, "outside the ground set"),
        ("I(1 ;; 2)", 5, 1, 6, "expected a variable index"),
        ("I(1 | 2) x", 5, 1, 10, "after statement"),
        ("I(1;2);", 3, 1, 7, "after statement"),
        ("I(1 ; \n 2,77 )", 9, 2, 4, "outside the ground set"),
        ("I(1", 5, 1, 4, "expected ')'"),
        ("I(1,)", 5, 1, 5, "expected a variable index"),
        ("I({)", 5, 1, 4, "expected '}'"),
        ("I 12", 5, 1, 3, "expected '(', found '1'"),
        ("I(12 x)", 20, 1, 6, "expected ')', found 'x'"),
        ("I(1 ", 5, 1, 5, "expected ')', found end of input"),
        ("I(1 ;\n  2 ; \u0663,\n   x)", 5, 3, 4, "expected a variable index, found 'x'"),
        ("I(1\u3000;\u001c2 x)", 3, 1, 9, "expected ')', found 'x'"),
        ("I(|)", 5, 1, 4, "expected a variable index, found ')'"),
        ("I(1 | 2 ; 3)", 5, 1, 9, "expected ')', found ';'"),
        ("I({1})", 5, 1, 4, "expected '}', found '1'"),
        ("I(1 2)", 5, 1, 5, "expected ')', found '2'"),
        ("I(1 ; {} ;)", 5, 1, 11, "expected a variable index, found ')'"),
    ]
    for text, n, line, column, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_cmi(text, n)
        assert (exc.value.line, exc.value.column) == (line, column), text
        assert fragment in str(exc.value)
        assert f"line {line}, column {column}:" in str(exc.value)
    # U+3000 (ideographic space) and U+001C (file separator) are whitespace.
    assert parse_cmi("I(1\u3000;\u001c2)", 3) == Cmi(3, set(), ({1}, {2}))
    assert parse_cmi("I(1 ; 2\u3000|\u001c3)", 3) == Cmi(3, {3}, ({1}, {2}))


def test_parse_cmi_validates_ground_set_size():
    with pytest.raises(ValueError, match="1..64"):
        parse_cmi("I()", 0)
    with pytest.raises(ValueError, match="1..64"):
        parse_cmi("I()", 65)
    # A non-integer size raises, as in the constructors; a bool is stored as an int.
    for bad in (3.0, 2.5, "3", Fraction(3, 1)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            parse_cmi("I(1 ; 2)", bad)
    k = parse_cmi("I(1 ; 1)", True)
    assert k == Cmi(1, set(), ({1}, {1})) and type(k.n) is int


def test_whitespace_splits_and_decimal_digits_join_tokens():
    # Each code point c is tried between two digits, as "x1c1": exactly the
    # str.isspace characters split the run, exactly the str.isdecimal ones
    # join it, and every other character is a token of its own.
    for lo in range(0, len(CODE_POINTS), 1 << 16):
        chunk = CODE_POINTS[lo : lo + (1 << 16)]
        expected = []
        for c in chunk:
            if c.isspace():
                expected += ["x", "1", "1"]
            elif c.isdecimal():
                expected += ["x", f"1{c}1"]
            else:
                expected += ["x", "1", c, "1"]
        assert re.findall(_TOKEN, "".join(f"x1{c}1" for c in chunk)) == expected, hex(lo)
    ws = SPACES
    text = f"{ws}I{ws}({ws}1{ws};{ws}2{ws}|{ws}3{ws}){ws}"
    assert parse_cmi(text, 3) == Cmi(3, {3}, ({1}, {2}))
    for d in (c for c in CODE_POINTS if c.isdecimal()):
        assert parse_cmi(f"I(1{d})", 19) == Cmi(19, set(), ({10 + int(d)},)), hex(ord(d))


def test_str_split_and_the_word_pattern_agree_on_whitespace():
    # parse_distribution accepts rows with str.split() and locates errors with
    # \S+, so both must split at exactly the str.isspace characters.
    # Every code point sits between two x's, so each space character adds one word.
    text = "x" + "".join(f"{c}x" for c in CODE_POINTS)
    assert text.split() == _WORD.findall(text)
    assert len(text.split()) == len(SPACES) + 1


def test_render_cmi_goldens():
    assert render_cmi(Cmi(5, {1}, ({1, 2}, {2, 3}, {4}, {5}))) == "I(4 ; 5 ; 1,2 ; 2,3 | 1)"
    assert render_cmi(Cmi(5, {1}, ({2}, {2}, {3}, {4}, {5}))) == "I(2 ; 2 ; 3 ; 4 ; 5 | 1)"
    assert render_cmi(Cmi(4, set(), ())) == "I()"
    assert render_cmi(Cmi(4, {3}, ())) == "I(| 3)"
    assert render_cmi(Cmi(3, {3}, (frozenset(), {1, 2}))) == "I({} ; 1,2 | 3)"
    assert render_cmi(Cmi(3, set(), ({3}, {1, 2}))) == "I(3 ; 1,2)"


def test_render_cmi_orders_blocks_by_size_then_members():
    k = Cmi(5, set(), ({4, 5}, {1}, {2, 3}, {2}))
    assert render_cmi(k) == "I(1 ; 2 ; 2,3 ; 4,5)"


def respell(text, rng):
    """``text`` with random whitespace of any kind between its tokens and some
    ASCII digits swapped for their Arabic-Indic forms (U+0660..U+0669)."""
    out = ["".join(rng.choices(SPACES, k=rng.randint(0, 2)))]
    for ch, nxt in zip(text, text[1:] + ")"):
        if ch == " ":
            out.append("".join(rng.choices(SPACES, k=rng.randint(0, 3))))
            continue
        out.append(chr(0x660 + int(ch)) if ch.isdigit() and rng.random() < 0.3 else ch)
        if not (ch.isdigit() and nxt.isdigit()):  # a split digit run is two indices
            out.append("".join(rng.choices(SPACES, k=rng.randint(0, 2))))
    return "".join(out)


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_parse_render_round_trip_statements(seed, n):
    rng = random.Random(seed)
    k = random_cmi(rng, n)
    text = render_cmi(k)
    assert parse_cmi(text, n) == k
    assert parse_cmi(respell(text, rng), n) == k


def test_parse_distribution_with_comments_and_blanks():
    p = parse_distribution(
        """# joint of two copies of one bit
        vars: A:2 B:2   # names are positional only

        0 0 : 1/2
        1 1 : 1/2   # the other half
        """
    )
    assert p == JointDistribution((2, 2), {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})


def test_parse_distribution_accepts_explicit_zero_rows():
    p = parse_distribution("vars: A:2\n0 : 1/1\n1 : 0/4\n")
    assert p.pmf == {(0,): Fraction(1)}
    assert parse_distribution("vars: A:2\n0:1/1\n") == p


def test_parse_distribution_error_lines():
    cases = [
        ("0 0 : 1/2\n", 1, 1, "expected 'vars:'"),
        ("vars:\n", 1, 1, "at least one variable"),
        ("vars: A:x\n", 1, 7, "bad variable declaration"),
        ("vars: A:0\n", 1, 7, "alphabet size"),
        ("vars: A:2 B:2\n0 : 1/2\n", 2, 1, "expected 2 symbols"),
        ("vars: A:2\n2 : 1/1\n", 2, 1, "outside its alphabet"),
        ("vars: A:2\n0 : 0.5\n", 2, 5, "malformed probability"),
        ("vars: A:2\n0 : 1/0\n", 2, 5, "denominator is zero"),
        ("vars: A:2\n0 : 1/2 extra\n", 2, 9, "after probability"),
        ("vars: A:2\nx : 1/1\n", 2, 1, "bad symbol"),
        ("vars: A:2\n0 1 : 1/1\n", 2, 1, "expected 1 symbols"),
        ("vars: A:2\n0 1/1\n", 2, 1, "expected 'SYMBOLS : PROBABILITY'"),
        ("vars: A:2\n0 : 1/2\n0 : 1/2\n", 3, 1, "duplicate row"),
        ("vars: A:2\n0 : 1/3\n1 : 1/3\n", 1, 1, "sum to 2/3"),
        ("", 1, 1, "missing 'vars:'"),
        # The last colon splits a row, so an earlier one belongs to a symbol.
        ("vars: A:2\n0:1 : 1/1\n", 2, 1, "bad symbol '0:1'"),
        ("vars: A:2\n0:1/1\n0:1/1\n", 3, 1, "duplicate row for outcome 0"),
        ("vars: A:2\n 0 : 1/2\n\t0 : 1/2\n", 3, 2, "duplicate row for outcome 0"),
        ("vars: A:2\n0 :\n", 2, 4, "missing probability after ':'"),
        ("vars: A:2\n0 : 1/2/3\n", 2, 5, "malformed probability '1/2/3'"),
        ("vars: A:2\n0 : /2\n", 2, 5, "malformed probability '/2'"),
        ("vars: A:2\n0 : 0/0\n", 2, 5, "denominator is zero"),
        ("vars: A:2\n0 : 1/1 x", 2, 9, "after probability"),
        ("\tvars: A:x\n", 1, 8, "bad variable declaration 'A:x'"),
        ("vars: A:2\n  0 1/1\n", 2, 3, "expected 'SYMBOLS : PROBABILITY'"),
        ("vars: A:2 B:2\n\t0 0 : 1/2\n\t1 x : 1/2\n", 3, 4, "bad symbol 'x'"),
        ("vars: A:2 B:2\n0\u30000 : 1/2\n1\u3000x : 1/2\n", 3, 3, "bad symbol 'x'"),
        # A header with no rows, or with zero rows only, has no mass.
        ("vars: A:2\n", 1, 1, "sum to 0, expected 1"),
        ("vars: A:2 B:3", 1, 1, "sum to 0, expected 1"),
        ("vars: A:2\n0 : 0/1\n1 : 0/3\n", 1, 1, "sum to 0, expected 1"),
        # No final newline.
        ("vars: A:2\n0 : 1/2\n2 : 1/2", 3, 1, "symbol 2 of variable 1 outside"),
        ("vars: A:2\n0 : 1/2\n1 : 1/3", 1, 1, "sum to 5/6"),
        # Two errors on one row, then on two rows: the first is reported.
        ("vars: A:2 B:2\n2 x : 1/2\n", 2, 1, "symbol 2 of variable 1 outside"),
        ("vars: A:2 B:2\n0 5 : 1/2/3\n", 2, 3, "symbol 5 of variable 2 outside"),
        ("vars: A:2\n0 : 1/0 x\n", 2, 9, "after probability"),
        ("vars: A:2\n0 : 1/0\nx : 1/2\n", 2, 5, "denominator is zero"),
        ("vars: A:2\n0 : 1/1\n1 : 2/0\n1 : 1/0 x\n", 3, 5, "denominator is zero"),
    ]
    for text, line, column, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_distribution(text)
        assert (exc.value.line, exc.value.column) == (line, column), text
        assert fragment in str(exc.value), text
        assert f"line {line}, column {column}:" in str(exc.value), text


def test_non_decimal_digits_are_parse_errors():
    # str.isdigit() accepts superscripts, which int() rejects; they must give a
    # ParseError with a position, not a bare ValueError from int().
    cases = [
        (lambda: parse_cmi("I(²;1)", 3), 1, 3, "expected a variable index, found '²'"),
        (lambda: parse_cmi("I(1 ; 2 | ³)", 5), 1, 11, "expected a variable index, found '³'"),
        (lambda: parse_distribution("vars: X:²\n0 : 1/1\n"), 1, 7, "bad variable declaration"),
        (lambda: parse_distribution("vars: X:2\n² : 1/1\n"), 2, 1, "bad symbol '²'"),
    ]
    for parse, line, column, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse()
        assert (exc.value.line, exc.value.column) == (line, column), fragment
        assert fragment in str(exc.value)


# Python's int() refuses a decimal string of more than 4,300 digits by default.
LONG = "1" * 5000


@pytest.mark.parametrize(
    "parse, line, column, message",
    [
        pytest.param(lambda: parse_cmi(f"I(1 ; 2 | {LONG})", 5), 1, 11, None, id="index"),
        pytest.param(lambda: parse_distribution(f"vars: X:2 Y:{LONG}\n0 0 : 1/1\n"), 1, 11, None, id="alphabet size"),
        pytest.param(lambda: parse_distribution(f"vars: X:2 Y:2\n0 {LONG} : 1/1\n"), 2, 3, None, id="symbol"),
        pytest.param(lambda: parse_distribution(f"vars: X:2\n0 : {LONG}/2\n1 : 1/2\n"), 2, 5, None, id="numerator"),
        pytest.param(lambda: parse_distribution(f"vars: X:2\n0 : 1/2\n1 :  1/{LONG}\n"), 3, 6, None, id="denominator"),
        # The numerator is read last, after the zero-denominator and duplicate checks.
        pytest.param(
            lambda: parse_distribution(f"vars: X:2\n0 : {LONG}/0\n"), 2, 5,
            "probability denominator is zero", id="numerator after a zero denominator",
        ),
        pytest.param(
            lambda: parse_distribution(f"vars: X:2\n0 : 1/2\n0 : {LONG}/2\n"), 3, 1,
            "duplicate row for outcome 0", id="numerator after a duplicate",
        ),
    ],
)
def test_digit_runs_too_long_for_int_are_parse_errors(parse, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse()
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"line {line}, column {column}: {message or 'number too long (5000 digits)'}"


def test_decimal_digits_of_other_scripts_parse():
    assert parse_cmi("I(1;٣)", 3) == Cmi(3, set(), ({1}, {3}))
    p = parse_distribution("vars: X:٢\n٠ : 1/2\n١ : 1/2\n")
    assert p.alphabet_sizes == (2,) and p.pmf == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}


def test_render_distribution_golden():
    p = JointDistribution(
        (2, 3), {(1, 2): Fraction(1, 2), (0, 0): Fraction(2, 8), (0, 2): Fraction(1, 4)}
    )
    assert render_distribution(p) == (
        "vars: X1:2 X2:3\n"
        "0 0 : 1/4\n"
        "0 2 : 1/4\n"
        "1 2 : 1/2\n"
    )


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.sampled_from((1, 3, 16)),
)
def test_parse_render_round_trip_distributions(seed, n, grain):
    rng = random.Random(seed)
    sizes = tuple(rng.randint(1, 4) for _ in range(n))
    p = random_distribution(n, sizes, seed=seed, mass_grain=grain)
    text = render_distribution(p)
    assert parse_distribution(text) == p
    assert render_distribution(parse_distribution(text)) == text

"""Statement and distribution text formats: goldens, positions, round-trips."""

import random
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
        ("I(1 ; \n 2,77 )", 9, 2, 4, "outside the ground set"),
        ("I(1", 5, 1, 4, "expected ')'"),
        ("I(1,)", 5, 1, 5, "expected a variable index"),
        ("I({)", 5, 1, 4, "expected '}'"),
    ]
    for text, n, line, column, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_cmi(text, n)
        assert (exc.value.line, exc.value.column) == (line, column), text
        assert fragment in str(exc.value)
        assert f"line {line}, column {column}:" in str(exc.value)


def test_parse_cmi_validates_ground_set_size():
    with pytest.raises(ValueError, match="1..64"):
        parse_cmi("I()", 0)
    with pytest.raises(ValueError, match="1..64"):
        parse_cmi("I()", 65)


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


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_parse_render_round_trip_statements(seed, n):
    k = random_cmi(random.Random(seed), n)
    assert parse_cmi(render_cmi(k), n) == k


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


def test_parse_distribution_error_lines():
    cases = [
        ("0 0 : 1/2\n", 1, "expected 'vars:'"),
        ("vars:\n", 1, "at least one variable"),
        ("vars: A:x\n", 1, "bad variable declaration"),
        ("vars: A:0\n", 1, "alphabet size"),
        ("vars: A:2 B:2\n0 : 1/2\n", 2, "expected 2 symbols"),
        ("vars: A:2\n2 : 1/1\n", 2, "outside its alphabet"),
        ("vars: A:2\n0 : 0.5\n", 2, "malformed probability"),
        ("vars: A:2\n0 : 1/0\n", 2, "denominator is zero"),
        ("vars: A:2\n0 : 1/2 extra\n", 2, "after probability"),
        ("vars: A:2\nx : 1/1\n", 2, "bad symbol"),
        ("vars: A:2\n0 1 : 1/1\n", 2, "expected 1 symbols"),
        ("vars: A:2\n0 1/1\n", 2, "expected 'SYMBOLS : PROBABILITY'"),
        ("vars: A:2\n0 : 1/2\n0 : 1/2\n", 3, "duplicate row"),
        ("vars: A:2\n0 : 1/3\n1 : 1/3\n", 1, "sum to 2/3"),
        ("", 1, "missing 'vars:'"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_distribution(text)
        assert exc.value.line == line, text
        assert fragment in str(exc.value), text


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

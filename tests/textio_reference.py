"""Reference parsers for the differential tests in ``test_parse_differential.py``.

``parse_cmi`` below is the statement parser as it was before the single-loop
one: a token walk with ``peek``/``accept``/``expect`` and one helper call per
block and per index list.  The differential test holds the library parser to
it: an equal statement with its blocks in the same written order, or a
``ParseError`` with the same line, column and message.

``parse_distribution`` below is the parser as it was before the column-wise
accept path: one loop over the lines that checks, packs and stores each row
in turn.  ``_common_denominator`` is the row-wise helper it used.  The
differential test holds the library parser to it: an equal distribution, or
a ``ParseError`` with the same line, column and message.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable

from cmikit import Cmi, JointDistribution, ParseError
from cmikit.statements import MAX_GROUND_SET

_TOKEN = re.compile(r"\d+|\S")


class _Tokens:
    """A statement's tokens, ``""`` last for end of input, with 1-based line/column errors."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.i = 0

    def error(self, message: str) -> ParseError:
        # Positions are only needed here, so they are found again on error.
        at = ([m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)])[self.i]
        return ParseError(self.text.count("\n", 0, at) + 1, at - self.text.rfind("\n", 0, at), message)

    def peek(self) -> str:
        return self.tokens[self.i]

    def accept(self, what: str) -> bool:
        hit = self.tokens[self.i] == what
        self.i += hit
        return hit

    def expect(self, what: str) -> None:
        if not self.accept(what):
            raise self.error(f"expected {what!r}, found {self.found()}")

    def found(self) -> str:
        token = self.tokens[self.i]
        return repr(token[0]) if token else "end of input"


def _parse_indices(tok: _Tokens, n: int) -> int:
    """Mask of ``INDEX , ... , INDEX``, each checked against the ground set at its token."""
    mask = 0
    while True:
        token = tok.peek()
        if not token.isdecimal():
            raise tok.error(f"expected a variable index, found {tok.found()}")
        try:
            value = int(token)
        except ValueError:  # more digits than Python converts (4,300 by default)
            raise tok.error(f"number too long ({len(token)} digits)") from None
        if not 1 <= value <= n:
            raise tok.error(f"index {value} outside the ground set 1..{n}")
        mask |= 1 << (value - 1)
        tok.i += 1
        if not tok.accept(","):
            return mask


def _parse_block(tok: _Tokens, n: int) -> int:
    if not tok.accept("{"):
        return _parse_indices(tok, n)
    tok.expect("}")
    return 0


def parse_cmi(text: str, n: int) -> Cmi:
    """Parse statement syntax ``I(BLOCK ; ... ; BLOCK | COND)`` over ``{1..n}``.

    Blocks are kept in written order (they are a multiset, but block-positional
    transforms care); indices are validated against the ground set at their
    source position.
    """
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground-set size must be in 1..{MAX_GROUND_SET}, got {n}")
    tok = _Tokens(text)
    tok.expect("I")
    tok.expect("(")
    blocks: list[int] = []
    if tok.peek() not in ("|", ")"):
        blocks.append(_parse_block(tok, n))
        while tok.accept(";"):
            blocks.append(_parse_block(tok, n))
    cond = _parse_indices(tok, n) if tok.accept("|") else 0
    tok.expect(")")
    if tok.peek():
        raise tok.error("unexpected text after statement")
    return Cmi._from_masks(n, cond, blocks)


_WORD = re.compile(r"\S+")


def _common_denominator(rows: Iterable[tuple[int, int, int]]) -> tuple[dict[int, int], int]:
    """Integer weights of ``(code, numerator, denominator)`` rows over the lcm of
    their denominators.  Zero rows are dropped; repeated codes add up."""
    rows = [row for row in rows if row[1]]
    denominator = math.lcm(*(den for _, _, den in rows))
    weights: dict[int, int] = {}
    for code, num, den in rows:
        weights[code] = weights.get(code, 0) + num * (denominator // den)
    return weights, denominator


def parse_distribution(text: str) -> JointDistribution:
    """Parse the line-oriented distribution format.

    First non-comment line must be ``vars: NAME:SIZE ...`` (names are
    positional and discarded); each following line is ``s1 .. sn : NUM/DEN``.
    Explicit zero rows are allowed; duplicate rows, symbols outside their
    alphabet, malformed probabilities and total mass != 1 are errors.
    """
    # Imported here, so that statement-only callers never load the distribution layer.
    from fractions import Fraction

    from cmikit.distributions import JointDistribution, _width

    sizes: list[int] | None = None
    rows: dict[int, tuple[int, int]] = {}  # by packed outcome code
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        body = line.lstrip()
        if not body:
            continue
        indent = len(line) - len(body)
        if sizes is None:
            if not body.startswith("vars:"):
                raise ParseError(lineno, indent + 1, "expected 'vars:' header line")
            sizes = []
            for m in _WORD.finditer(line, indent + len("vars:")):
                name, sep, size_text = m.group().rpartition(":")
                col = m.start() + 1
                if not sep or not name or not size_text.isdecimal():
                    raise ParseError(
                        lineno, col, f"bad variable declaration {m.group()!r}; expected NAME:SIZE"
                    )
                try:
                    size = int(size_text)
                except ValueError:  # as for an index
                    raise ParseError(lineno, col, f"number too long ({len(size_text)} digits)") from None
                if size < 1:
                    raise ParseError(lineno, col, f"alphabet size must be >= 1, got {size}")
                sizes.append(size)
            if not sizes:
                raise ParseError(lineno, indent + 1, "expected at least one variable declaration")
            width = _width(sizes)
            shifts = range(0, width * len(sizes), width)  # variable i packs at bit width * (i - 1)
            continue
        colon = line.rfind(":")
        if colon == -1:
            raise ParseError(lineno, indent + 1, "expected 'SYMBOLS : PROBABILITY' row")
        sym_tokens = list(_WORD.finditer(line, 0, colon))
        if len(sym_tokens) != len(sizes):
            raise ParseError(
                lineno, indent + 1, f"expected {len(sizes)} symbols, got {len(sym_tokens)}"
            )
        code = 0
        for m, size, shift in zip(sym_tokens, sizes, shifts):
            col, word = m.start() + 1, m.group()
            if not word.isdecimal():
                raise ParseError(lineno, col, f"bad symbol {word!r}; expected an integer")
            try:
                s = int(word)
            except ValueError:  # as for an index
                raise ParseError(lineno, col, f"number too long ({len(word)} digits)") from None
            if s >= size:
                raise ParseError(
                    lineno, col, f"symbol {s} of variable {shift // width + 1} outside its alphabet 0..{size - 1}"
                )
            code |= s << shift
        rat = _WORD.search(line, colon + 1)
        if rat is None:
            raise ParseError(lineno, colon + 2, "missing probability after ':'")
        extra = _WORD.search(line, rat.end())
        if extra is not None:
            raise ParseError(lineno, extra.start() + 1, "unexpected text after probability")
        num, slash, den = rat.group().partition("/")
        if not (slash and num.isdecimal() and den.isdecimal()):
            raise ParseError(
                lineno, rat.start() + 1, f"malformed probability {rat.group()!r}; expected NUM/DEN"
            )
        try:
            den = int(den)
        except ValueError:  # as for an index
            raise ParseError(lineno, rat.start() + 1, f"number too long ({len(den)} digits)") from None
        if den == 0:
            raise ParseError(lineno, rat.start() + 1, "probability denominator is zero")
        if code in rows:
            outcome = " ".join(str(int(m.group())) for m in sym_tokens)
            raise ParseError(lineno, indent + 1, f"duplicate row for outcome {outcome}")
        try:
            rows[code] = (int(num), den)
        except ValueError:  # as for an index
            raise ParseError(lineno, rat.start() + 1, f"number too long ({len(num)} digits)") from None
    if sizes is None:
        raise ParseError(1, 1, "missing 'vars:' header line")
    weights, denominator = _common_denominator((code, num, den) for code, (num, den) in rows.items())
    total = sum(weights.values())
    if total != denominator:
        raise ParseError(1, 1, f"probabilities sum to {Fraction(total, denominator)}, expected 1")
    return JointDistribution._from_weights(tuple(sizes), weights, denominator)

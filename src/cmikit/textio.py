"""Text formats for CMI statements and for exact joint distributions.

Statements use the surface syntax ``I(1,2 ; 3 | 4)``: semicolon-separated
index blocks, an optional ``|``-prefixed conditioning list and ``{}`` for an
explicitly empty block.  Its tokens are runs of decimal digits
(``str.isdecimal``, so ``٣`` is 3) and single other characters; whitespace
(``str.isspace``) separates tokens and is otherwise ignored.  Distributions use
a line format with a ``vars:`` header declaring alphabet sizes followed by one
``symbols : probability`` row per support point; ``#`` starts a comment.
Rendering is canonical (sorted, lowest terms), so rendered text is stable.  A
rendered statement re-parses to an equal object, and so does a rendered
distribution over n >= 1 variables (over none, the ``vars:`` header is empty,
which the parser rejects).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .distributions import JointDistribution, _common_denominator
from .statements import MAX_GROUND_SET, Cmi, IndexSet


class ParseError(ValueError):
    """Syntax or consistency error in statement or distribution text."""

    def __init__(self, line: int, column: int, message: str) -> None:
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


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


def _parse_indices(tok: _Tokens, n: int) -> IndexSet:
    """``INDEX , ... , INDEX``, each checked against the ground set at its token."""
    indices = []
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
        indices.append(value)
        tok.i += 1
        if not tok.accept(","):
            return frozenset(indices)


def _parse_block(tok: _Tokens, n: int) -> IndexSet:
    if not tok.accept("{"):
        return _parse_indices(tok, n)
    tok.expect("}")
    return frozenset()


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
    blocks: list[IndexSet] = []
    cond: IndexSet = frozenset()
    if tok.peek() not in ("|", ")"):
        blocks.append(_parse_block(tok, n))
        while tok.accept(";"):
            blocks.append(_parse_block(tok, n))
    if tok.accept("|"):
        cond = _parse_indices(tok, n)
    tok.expect(")")
    if tok.peek():
        raise tok.error("unexpected text after statement")
    return Cmi(n, cond, tuple(blocks))


def _render_block(block: IndexSet) -> str:
    return ",".join(str(i) for i in sorted(block)) if block else "{}"


def render_cmi(k: Cmi) -> str:
    """Canonical statement text: blocks sorted, indices ascending, single spacing."""
    blocks = " ; ".join(_render_block(b) for b in k.sorted_blocks())
    if k.cond:
        cond = ",".join(str(i) for i in sorted(k.cond))
        inner = f"{blocks} | {cond}" if blocks else f"| {cond}"
    else:
        inner = blocks
    return f"I({inner})"


_WORD = re.compile(r"\S+")


def parse_distribution(text: str) -> JointDistribution:
    """Parse the line-oriented distribution format.

    First non-comment line must be ``vars: NAME:SIZE ...`` (names are
    positional and discarded); each following line is ``s1 .. sn : NUM/DEN``.
    Explicit zero rows are allowed; duplicate rows, symbols outside their
    alphabet, malformed probabilities and total mass != 1 are errors.
    """
    sizes: list[int] | None = None
    rows: dict[tuple[int, ...], tuple[int, int]] = {}
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
            continue
        colon = line.rfind(":")
        if colon == -1:
            raise ParseError(lineno, indent + 1, "expected 'SYMBOLS : PROBABILITY' row")
        sym_tokens = list(_WORD.finditer(line, 0, colon))
        if len(sym_tokens) != len(sizes):
            raise ParseError(
                lineno, indent + 1, f"expected {len(sizes)} symbols, got {len(sym_tokens)}"
            )
        outcome: list[int] = []
        for i, (m, size) in enumerate(zip(sym_tokens, sizes), start=1):
            col, word = m.start() + 1, m.group()
            if not word.isdecimal():
                raise ParseError(lineno, col, f"bad symbol {word!r}; expected an integer")
            try:
                s = int(word)
            except ValueError:  # as for an index
                raise ParseError(lineno, col, f"number too long ({len(word)} digits)") from None
            if s >= size:
                raise ParseError(
                    lineno, col, f"symbol {s} of variable {i} outside its alphabet 0..{size - 1}"
                )
            outcome.append(s)
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
        key = tuple(outcome)
        if key in rows:
            raise ParseError(lineno, indent + 1, f"duplicate row for outcome {' '.join(map(str, key))}")
        try:
            rows[key] = (int(num), den)
        except ValueError:  # as for an index
            raise ParseError(lineno, rat.start() + 1, f"number too long ({len(num)} digits)") from None
    if sizes is None:
        raise ParseError(1, 1, "missing 'vars:' header line")
    weights, denominator = _common_denominator((key, num, den) for key, (num, den) in rows.items())
    total = sum(weights.values())
    if total != denominator:
        raise ParseError(1, 1, f"probabilities sum to {Fraction(total, denominator)}, expected 1")
    return JointDistribution._from_weights(tuple(sizes), weights, denominator)


def render_distribution(p: JointDistribution) -> str:
    """Canonical distribution text: positional names, sorted rows, lowest terms."""
    header = "vars: " + " ".join(f"X{i}:{s}" for i, s in enumerate(p.alphabet_sizes, start=1))
    lines = [header.rstrip()]
    for outcome in sorted(p.pmf):
        q = p.pmf[outcome]
        lines.append(" ".join(str(s) for s in outcome) + f" : {q.numerator}/{q.denominator}")
    return "\n".join(lines) + "\n"

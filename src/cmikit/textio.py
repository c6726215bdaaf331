"""Text formats for CMI statements and for exact joint distributions.

Statements use the surface syntax ``I(1,2 ; 3 | 4)``: semicolon-separated
index blocks, an optional ``|``-prefixed conditioning list, ``{}`` for an
explicitly empty block, whitespace free.  Distributions use a line format
with a ``vars:`` header declaring alphabet sizes followed by one
``symbols : probability`` row per support point; ``#`` starts a comment.
Rendering is canonical (sorted, lowest terms), so rendered text is stable
and re-parses to an equal object.
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


class _Cursor:
    """Character cursor with 1-based line/column error reporting."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> "ParseError":
        at = self.pos if pos is None else pos
        prefix = self.text[:at]
        line = prefix.count("\n") + 1
        column = at - (prefix.rfind("\n") + 1) + 1
        return ParseError(line, column, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            found = repr(self.peek()) if self.peek() else "end of input"
            raise self.error(f"expected {ch!r}, found {found}")
        self.pos += 1


def _parse_index(cur: _Cursor, n: int) -> int:
    cur.skip_ws()
    start = cur.pos
    while cur.peek().isdecimal():
        cur.pos += 1
    if cur.pos == start:
        found = repr(cur.peek()) if cur.peek() else "end of input"
        raise cur.error(f"expected a variable index, found {found}")
    value = int(cur.text[start : cur.pos])
    if not 1 <= value <= n:
        raise cur.error(f"index {value} outside the ground set 1..{n}", pos=start)
    return value


def _parse_index_list(cur: _Cursor, n: int) -> list[int]:
    indices = [_parse_index(cur, n)]
    cur.skip_ws()
    while cur.peek() == ",":
        cur.take()
        indices.append(_parse_index(cur, n))
        cur.skip_ws()
    return indices


def _parse_block(cur: _Cursor, n: int) -> IndexSet:
    cur.skip_ws()
    if cur.peek() == "{":
        cur.take()
        cur.expect("}")
        return frozenset()
    return frozenset(_parse_index_list(cur, n))


def parse_cmi(text: str, n: int) -> Cmi:
    """Parse statement syntax ``I(BLOCK ; ... ; BLOCK | COND)`` over ``{1..n}``.

    Blocks are kept in written order (they are a multiset, but block-positional
    transforms care); indices are validated against the ground set at their
    source position.
    """
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground-set size must be in 1..{MAX_GROUND_SET}, got {n}")
    cur = _Cursor(text)
    cur.expect("I")
    cur.expect("(")
    cur.skip_ws()
    blocks: list[IndexSet] = []
    cond: IndexSet = frozenset()
    if cur.peek() not in ("|", ")"):
        blocks.append(_parse_block(cur, n))
        cur.skip_ws()
        while cur.peek() == ";":
            cur.take()
            blocks.append(_parse_block(cur, n))
            cur.skip_ws()
    if cur.peek() == "|":
        cur.take()
        cond = frozenset(_parse_index_list(cur, n))
    cur.expect(")")
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise cur.error("unexpected text after statement")
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


_RATIONAL = re.compile(r"(\d+)/(\d+)\Z")


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
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        if sizes is None:
            if not line.strip().startswith("vars:"):
                raise ParseError(lineno, indent + 1, "expected 'vars:' header line")
            specs = list(re.finditer(r"\S+", line.split("vars:", 1)[1]))
            if not specs:
                raise ParseError(lineno, indent + 1, "expected at least one variable declaration")
            offset = line.index("vars:") + len("vars:")
            sizes = []
            for m in specs:
                name, sep, size_text = m.group().rpartition(":")
                col = offset + m.start() + 1
                if not sep or not name or not size_text.isdecimal():
                    raise ParseError(
                        lineno, col, f"bad variable declaration {m.group()!r}; expected NAME:SIZE"
                    )
                size = int(size_text)
                if size < 1:
                    raise ParseError(lineno, col, f"alphabet size must be >= 1, got {size}")
                sizes.append(size)
            continue
        colon = line.rfind(":")
        if colon == -1:
            raise ParseError(lineno, indent + 1, "expected 'SYMBOLS : PROBABILITY' row")
        sym_tokens = list(re.finditer(r"\S+", line[:colon]))
        if len(sym_tokens) != len(sizes):
            raise ParseError(
                lineno, indent + 1, f"expected {len(sizes)} symbols, got {len(sym_tokens)}"
            )
        outcome: list[int] = []
        for i, m in enumerate(sym_tokens):
            col = m.start() + 1
            if not m.group().isdecimal():
                raise ParseError(lineno, col, f"bad symbol {m.group()!r}; expected an integer")
            s = int(m.group())
            if not 0 <= s < sizes[i]:
                raise ParseError(
                    lineno, col, f"symbol {s} of variable {i + 1} outside its alphabet 0..{sizes[i] - 1}"
                )
            outcome.append(s)
        rat = re.search(r"\S+", line[colon + 1 :])
        if rat is None:
            raise ParseError(lineno, colon + 2, "missing probability after ':'")
        rat_col = colon + 1 + rat.start() + 1
        extra = re.search(r"\S", line[colon + 1 + rat.end() :])
        if extra is not None:
            raise ParseError(
                lineno, colon + 1 + rat.end() + extra.start() + 1, "unexpected text after probability"
            )
        m2 = _RATIONAL.match(rat.group())
        if m2 is None:
            raise ParseError(
                lineno, rat_col, f"malformed probability {rat.group()!r}; expected NUM/DEN"
            )
        num, den = int(m2.group(1)), int(m2.group(2))
        if den == 0:
            raise ParseError(lineno, rat_col, "probability denominator is zero")
        key = tuple(outcome)
        if key in rows:
            raise ParseError(
                lineno, sym_tokens[0].start() + 1, f"duplicate row for outcome {' '.join(map(str, key))}"
            )
        rows[key] = (num, den)
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

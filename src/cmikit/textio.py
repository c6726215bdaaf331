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
from itertools import chain, cycle, repeat
from operator import itemgetter, lshift, lt

from .statements import MAX_GROUND_SET, Cmi, _indices, _mask_key


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


def render_cmi(k: Cmi) -> str:
    """Canonical statement text: blocks sorted, indices ascending, single spacing."""
    blocks = " ; ".join(",".join(map(str, _indices(b))) or "{}" for b in sorted(k._blocks, key=_mask_key))
    if k._cond:
        blocks += (" | " if blocks else "| ") + ",".join(map(str, _indices(k._cond)))
    return f"I({blocks})"


_WORD = re.compile(r"\S+")


def parse_distribution(text: str) -> JointDistribution:
    """Parse the line-oriented distribution format.

    ``#`` starts a comment to the end of its line; a line of only whitespace
    (``str.isspace``) is skipped.  The first other line is the header
    ``vars: NAME:SIZE ...`` (names are positional and discarded); each later
    one is a row ``s1 .. sn : NUM/DEN``, split at its last ``:``.  Whitespace
    separates words; symbols, sizes, NUM and DEN are decimal digit runs
    (``str.isdecimal``, so ``٢`` is 2), and the probability is one word.
    Explicit zero rows are allowed; duplicate rows, symbols outside their
    alphabet, malformed probabilities, a zero DEN and total mass != 1 are
    errors.  The first error in line order is reported, the mass last.
    """
    # Imported here, so that statement-only callers never load the distribution layer.
    from fractions import Fraction

    from .distributions import JointDistribution, _common_denominator, _width

    lines = [line for line, _, _ in map(str.partition, text.split("\n"), repeat("#"))]
    for lineno, line in enumerate(lines, start=1):
        body = line.lstrip()
        if body:
            break
    else:
        raise ParseError(1, 1, "missing 'vars:' header line")
    indent = len(line) - len(body)
    if not body.startswith("vars:"):
        raise ParseError(lineno, indent + 1, "expected 'vars:' header line")
    sizes = []
    for m in _WORD.finditer(line, indent + len("vars:")):
        name, sep, size_text = m.group().rpartition(":")
        col = m.start() + 1
        if not sep or not name or not size_text.isdecimal():
            raise ParseError(lineno, col, f"bad variable declaration {m.group()!r}; expected NAME:SIZE")
        size = _int(size_text, lineno, col)
        if size < 1:
            raise ParseError(lineno, col, f"alphabet size must be >= 1, got {size}")
        sizes.append(size)
    if not sizes:
        raise ParseError(lineno, indent + 1, "expected at least one variable declaration")
    width = _width(sizes)  # variable i packs at bit width * (i - 1)
    try:
        columns = _columns(list(filter(str.strip, lines[lineno:])), sizes, range(0, width * len(sizes), width))
    except ValueError:  # some row is malformed: find the first one
        _raise_row_error(lines, lineno, sizes)
        raise AssertionError("a column check failed, but every row parses") from None
    weights, denominator = _common_denominator(*columns)
    total = sum(weights.values())
    if total != denominator:
        raise ParseError(1, 1, f"probabilities sum to {Fraction(total, denominator)}, expected 1")
    return JointDistribution._from_weights(tuple(sizes), weights, denominator)


def _int(digits: str, line: int, column: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than Python converts, as for an index
        raise ParseError(line, column, f"number too long ({len(digits)} digits)") from None


def _columns(rows: list[str], sizes: list[int], shifts: range) -> tuple[list[int], list[int], list[int]]:
    """Packed codes, numerators and denominators of the rows, each rule checked on
    a whole column in C-level passes; ``ValueError`` when some row breaks one."""
    n = len(sizes)
    halves = list(map(str.rpartition, rows, repeat(":")))
    words = list(map(str.split, map(itemgetter(0), halves)))
    probs = list(map(str.split, map(itemgetter(2), halves)))
    fracs = list(map(str.partition, chain.from_iterable(probs), repeat("/")))
    digits = list(chain.from_iterable(words)), list(map(itemgetter(0), fracs)), list(map(itemgetter(2), fracs))
    symbols, nums, dens = (list(map(int, column)) for column in digits)
    codes = list(map(sum, zip(*[map(lshift, symbols, cycle(shifts))] * n)))
    if not (
        all(map(itemgetter(1), halves)) and all(map(n.__eq__, map(len, words)))
        and all(map((1).__eq__, map(len, probs))) and all(map(itemgetter(1), fracs))
        and all(map(str.isdecimal, chain(*digits))) and all(map(lt, symbols, cycle(sizes)))
        and all(dens) and len(set(codes)) == len(codes)
    ):
        raise ValueError("malformed row")
    return codes, nums, dens


def _raise_row_error(lines: list[str], header: int, sizes: list[int]) -> None:
    """Raise the error of the first malformed row after the header on line ``header``."""
    seen: set[tuple[int, ...]] = set()
    for lineno, line in enumerate(lines[header:], start=header + 1):
        body = line.lstrip()
        if not body:
            continue
        indent = len(line) - len(body)
        colon = line.rfind(":")
        if colon == -1:
            raise ParseError(lineno, indent + 1, "expected 'SYMBOLS : PROBABILITY' row")
        sym_tokens = list(_WORD.finditer(line, 0, colon))
        if len(sym_tokens) != len(sizes):
            raise ParseError(lineno, indent + 1, f"expected {len(sizes)} symbols, got {len(sym_tokens)}")
        for i, (m, size) in enumerate(zip(sym_tokens, sizes), start=1):
            col, word = m.start() + 1, m.group()
            if not word.isdecimal():
                raise ParseError(lineno, col, f"bad symbol {word!r}; expected an integer")
            s = _int(word, lineno, col)
            if s >= size:
                raise ParseError(lineno, col, f"symbol {s} of variable {i} outside its alphabet 0..{size - 1}")
        rat = _WORD.search(line, colon + 1)
        if rat is None:
            raise ParseError(lineno, colon + 2, "missing probability after ':'")
        extra = _WORD.search(line, rat.end())
        if extra is not None:
            raise ParseError(lineno, extra.start() + 1, "unexpected text after probability")
        num, slash, den = rat.group().partition("/")
        if not (slash and num.isdecimal() and den.isdecimal()):
            raise ParseError(lineno, rat.start() + 1, f"malformed probability {rat.group()!r}; expected NUM/DEN")
        if _int(den, lineno, rat.start() + 1) == 0:
            raise ParseError(lineno, rat.start() + 1, "probability denominator is zero")
        outcome = tuple(int(m.group()) for m in sym_tokens)
        if outcome in seen:
            raise ParseError(lineno, indent + 1, f"duplicate row for outcome {' '.join(map(str, outcome))}")
        seen.add(outcome)
        _int(num, lineno, rat.start() + 1)


def render_distribution(p: JointDistribution) -> str:
    """Canonical distribution text: positional names, sorted rows, lowest terms."""
    header = "vars: " + " ".join(f"X{i}:{s}" for i, s in enumerate(p.alphabet_sizes, start=1))
    lines = [header.rstrip()]
    for outcome, q in sorted(p.pmf.items()):
        lines.append(" ".join(str(s) for s in outcome) + f" : {q.numerator}/{q.denominator}")
    return "\n".join(lines) + "\n"

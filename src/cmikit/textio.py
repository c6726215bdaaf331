"""Text formats for CMI statements and for exact joint distributions.

Statements use the surface syntax ``I(1,2 ; 3 | 4)``: semicolon-separated
index blocks, an optional ``|``-prefixed conditioning list and ``{}`` for an
explicitly empty block.  Its tokens are runs of decimal digits
(``str.isdecimal``, so ``٣`` is 3) and single other characters; whitespace
(``str.isspace``) separates tokens and is otherwise ignored.  ``parse_cmi``
reads the tokens in one loop that builds each block's mask as it goes, and
finds an error's line and column only when it raises.  Distributions use
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

from .statements import MAX_GROUND_SET, Cmi, _indices


class ParseError(ValueError):
    """Syntax or consistency error in statement or distribution text."""

    def __init__(self, line: int, column: int, message: str) -> None:
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


_TOKEN = re.compile(r"\d+|\S")


def _error(text: str, i: int, message: str) -> ParseError:
    """The error at the ``i``-th token, or at the end of input past the last, with its 1-based line and column."""
    # Positions are only needed here, so they are found again on error.
    at = ([m.start() for m in _TOKEN.finditer(text)] + [len(text)])[i]
    return ParseError(text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at), message)


def _found(token: str) -> str:
    return repr(token[0]) if token else "end of input"


def parse_cmi(text: str, n: int) -> Cmi:
    """Parse statement syntax ``I(BLOCK ; ... ; BLOCK | COND)`` over ``{1..n}``.

    Blocks are kept in written order (they are a multiset, but block-positional
    transforms care); indices are validated against the ground set at their
    source position.  One loop reads the tokens, ``""`` last for end of input:
    each turn reads an index (or a ``{}`` block) and the token after it, and
    ORs the index into the mask of the block or condition being read.
    """
    if not 1 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground-set size must be in 1..{MAX_GROUND_SET}, got {n}")
    tokens = _TOKEN.findall(text)
    tokens.append("")
    if tokens[0] != "I" or tokens[1] != "(":
        i = tokens[0] == "I"
        raise _error(text, i, f"expected {'I('[i]!r}, found {_found(tokens[i])}")
    blocks: list[int] = []
    mask, i, token = 0, 2, tokens[2]
    in_cond = token == "|"  # "I(|" starts the condition; "I()" reads nothing
    i += in_cond
    while token != ")" or in_cond:
        token = tokens[i]
        if token.isdecimal():
            try:
                value = int(token)
            except ValueError:  # more digits than Python converts (4,300 by default)
                raise _error(text, i, f"number too long ({len(token)} digits)") from None
            if not 0 < value <= n:
                raise _error(text, i, f"index {value} outside the ground set 1..{n}")
            mask |= 1 << (value - 1)
            i += 1
            token = tokens[i]
            if token == ",":
                i += 1
                continue
        elif token == "{" and not in_cond and tokens[i - 1] != ",":  # "{}" is a whole, empty block
            i += 1
            if tokens[i] != "}":
                raise _error(text, i, f"expected '}}', found {_found(tokens[i])}")
            i += 1
            token = tokens[i]
        else:
            raise _error(text, i, f"expected a variable index, found {_found(token)}")
        if in_cond:  # the condition ends the statement
            break
        blocks.append(mask)
        mask = 0
        if token == "|":
            in_cond = True
        elif token != ";":
            break
        i += 1
    if token != ")":
        raise _error(text, i, f"expected ')', found {_found(token)}")
    if tokens[i + 1]:
        raise _error(text, i + 1, "unexpected text after statement")
    return Cmi._from_masks(n, mask, blocks)  # mask: the condition, 0 when none was read


def render_cmi(k: Cmi) -> str:
    """Canonical statement text: blocks sorted, indices ascending, single spacing.

    Each block is decoded once; sorting the index tuples by value and then,
    stably, by length is the ``_mask_key`` order of the masks.
    """
    decoded = sorted(sorted(map(_indices, k._written)), key=len)
    blocks = " ; ".join(",".join(map(str, b)) or "{}" for b in decoded)
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

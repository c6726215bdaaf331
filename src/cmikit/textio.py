"""Text formats for CMI statements and for exact joint distributions.

Statements use the surface syntax ``I(1,2 ; 3 | 4)``: semicolon-separated
index blocks, an optional ``|``-prefixed conditioning list and ``{}`` for an
explicitly empty block.  Its tokens are runs of decimal digits
(``str.isdecimal``, so ``٣`` is 3) and single other characters; whitespace
(``str.isspace``) separates tokens and is otherwise ignored.  ``parse_cmi``
reads a well-formed statement by one pattern match and ``str.split``; only a
text it rejects is walked token by token, to find the first error's line and
column.  Distributions use
a line format with a ``vars:`` header declaring alphabet sizes followed by one
``symbols : probability`` row per support point; ``#`` starts a comment.  Their
parser converts each distinct spelling once, per symbol column and per probability.
Rendering is canonical (sorted, lowest terms), so rendered text is stable.  A
rendered statement re-parses to an equal object, and so does a rendered
distribution over n >= 1 variables (over none, the ``vars:`` header is empty,
which the parser rejects).
"""

from __future__ import annotations

import math
import re
from itertools import chain, repeat
from operator import index, itemgetter, lshift

from .statements import MAX_GROUND_SET, Cmi, _indices


class ParseError(ValueError):
    """Syntax or consistency error in statement or distribution text."""

    def __init__(self, line: int, column: int, message: str) -> None:
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


_TOKEN = r"\d+|\S"  # compiled, through re's own cache, only to explain an error
_SHAPE = re.compile(r"\s*I\s*\(([\d\s,;{}]*)(?:\|([\d\s,]*))?\)\s*")  # I( blocks [| condition] )


def _error(text: str, i: int, message: str) -> ParseError:
    """The error at the ``i``-th token, or at the end of input past the last, with its 1-based line and column."""
    # Positions are only needed here, so they are found again on error.
    at = ([m.start() for m in re.finditer(_TOKEN, text)] + [len(text)])[i]
    return ParseError(text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at), message)


def _found(token: str) -> str:
    return repr(token[0]) if token else "end of input"


def parse_cmi(text: str, n: int) -> Cmi:
    """Parse statement syntax ``I(BLOCK ; ... ; BLOCK | COND)`` over ``{1..n}``.

    Blocks are kept in written order (they are a multiset, but block-positional
    transforms care).  Every text the grammar accepts is read by one match of its
    shape, then ``str.split`` on ``;`` and ``,``: each stripped index word is converted,
    range-checked and ORed into its block's mask.  Any other text goes to
    ``_raise_statement_error``, whose token walk raises the first error at its position.
    """
    if not 1 <= (n := index(n)) <= MAX_GROUND_SET:
        raise ValueError(f"ground-set size must be in 1..{MAX_GROUND_SET}, got {n}")
    shape = _SHAPE.fullmatch(text)
    if shape is None:
        _raise_statement_error(text, n)
    body, cond = shape.groups()
    parts = body.split(";") if body.strip() else []  # "I()" and "I(| ...)" have no blocks
    if cond is not None:
        parts.append(cond)
    masks = []
    try:
        for part in parts:
            mask = 0
            if "{" not in part or "".join(part.split()) != "{}":  # "{}" is a whole, empty block
                for word in part.split(","):  # a brace out of place fails int()
                    value = int(word.strip())  # int() alone keeps U+001C..U+001F, which str.strip drops
                    if not 0 < value <= n:
                        raise ValueError("index outside the ground set")
                    mask |= 1 << (value - 1)
            masks.append(mask)
    except ValueError:  # also a digit run longer than int() converts
        _raise_statement_error(text, n)
    return Cmi._from_masks(n, masks.pop() if cond is not None else 0, masks)


def _raise_statement_error(text: str, n: int) -> None:
    """Raise the first error of ``text``: each turn of one loop over its tokens (``""`` last,
    for end of input) reads an index (or a ``{}`` block) and the token after it."""
    tokens = re.findall(_TOKEN, text)
    tokens.append("")
    if tokens[0] != "I" or tokens[1] != "(":
        i = tokens[0] == "I"
        raise _error(text, i, f"expected {'I('[i]!r}, found {_found(tokens[i])}")
    i, token = 2, tokens[2]
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
        if token == "|":
            in_cond = True
        elif token != ";":
            break
        i += 1
    if token != ")":
        raise _error(text, i, f"expected ')', found {_found(token)}")
    if tokens[i + 1]:
        raise _error(text, i + 1, "unexpected text after statement")
    raise AssertionError(f"the statement shape rejects {text!r}, but its tokens parse")


def render_cmi(k: Cmi) -> str:
    """Canonical statement text: blocks sorted, indices ascending, single spacing.

    Each block is decoded once; sorting the index tuples by value and then,
    stably, by length is the ``_mask_key`` order of the masks.
    """
    decoded = sorted(sorted(map(_indices, k._written)), key=len)
    blocks = " ; ".join([",".join(map(str, b)) or "{}" for b in decoded])
    if k._cond:
        blocks += (" | " if blocks else "| ") + ",".join(map(str, _indices(k._cond)))
    return f"I({blocks})"


_WORD = r"\S+"  # compiled, through re's own cache, only when a distribution is read


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
    errors.  The first error in line order is reported, the mass last.  Each column's
    distinct spellings are converted and range-checked once; only an error walks the rows.
    """
    # Imported here, so that statement-only callers never load the distribution layer.
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
    for m in re.compile(_WORD).finditer(line, indent + len("vars:")):
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
        from fractions import Fraction
        raise ParseError(1, 1, f"probabilities sum to {Fraction(total, denominator)}, expected 1")
    return JointDistribution._from_weights(tuple(sizes), weights, denominator)


def _int(digits: str, line: int, column: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than Python converts, as for an index
        raise ParseError(line, column, f"number too long ({len(digits)} digits)") from None


def _columns(rows: list[str], sizes: list[int], shifts: range) -> tuple[list[int], list[int], list[int]]:
    """Packed codes, numerators and denominators of the rows; ``ValueError`` when some row
    breaks a rule.  Each distinct spelling in a symbol column, range-checked against that
    column's own size, and each distinct probability word is converted and checked once."""
    halves = list(map(str.rpartition, rows, repeat(":")))
    words = list(map(str.split, map(itemgetter(0), halves)))
    probs = list(map(str.split, map(itemgetter(2), halves)))
    fields = []  # per column, each row's symbol shifted into its field
    for column, size, shift in zip(zip(*words), sizes, shifts):
        values = {w: int(w) for w in set(column)}
        if not (all(map(str.isdecimal, values)) and max(values.values()) < size):
            raise ValueError("malformed row")
        fields.append(map(dict(zip(values, map(lshift, values.values(), repeat(shift)))).__getitem__, column))
    codes = list(map(sum, zip(*fields)))
    rationals = list(chain.from_iterable(probs))
    spelled = list(set(rationals))
    fracs = list(map(str.partition, spelled, repeat("/")))  # without a "/", the denominator is empty
    nums, dens = list(map(itemgetter(0), fracs)), list(map(itemgetter(2), fracs))
    num_of, den_of = dict(zip(spelled, map(int, nums))), dict(zip(spelled, map(int, dens)))
    if not (
        all(map(itemgetter(1), halves)) and all(map(len(sizes).__eq__, map(len, words)))
        and all(map((1).__eq__, map(len, probs))) and all(map(str.isdecimal, chain(nums, dens)))
        and all(den_of.values()) and len(set(codes)) == len(codes)
    ):
        raise ValueError("malformed row")
    return codes, list(map(num_of.__getitem__, rationals)), list(map(den_of.__getitem__, rationals))


def _raise_row_error(lines: list[str], header: int, sizes: list[int]) -> None:
    """Raise the error of the first malformed row after the header on line ``header``."""
    seen: set[tuple[int, ...]] = set()
    words = re.compile(_WORD)
    for lineno, line in enumerate(lines[header:], start=header + 1):
        body = line.lstrip()
        if not body:
            continue
        indent = len(line) - len(body)
        colon = line.rfind(":")
        if colon == -1:
            raise ParseError(lineno, indent + 1, "expected 'SYMBOLS : PROBABILITY' row")
        sym_tokens = list(words.finditer(line, 0, colon))
        if len(sym_tokens) != len(sizes):
            raise ParseError(lineno, indent + 1, f"expected {len(sizes)} symbols, got {len(sym_tokens)}")
        for i, (m, size) in enumerate(zip(sym_tokens, sizes), start=1):
            col, word = m.start() + 1, m.group()
            if not word.isdecimal():
                raise ParseError(lineno, col, f"bad symbol {word!r}; expected an integer")
            s = _int(word, lineno, col)
            if s >= size:
                raise ParseError(lineno, col, f"symbol {s} of variable {i} outside its alphabet 0..{size - 1}")
        rat = words.search(line, colon + 1)
        if rat is None:
            raise ParseError(lineno, colon + 2, "missing probability after ':'")
        extra = words.search(line, rat.end())
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
    """Canonical distribution text: positional names, sorted rows, lowest terms (by ``math.gcd``: no ``Fraction``)."""
    header = "vars: " + " ".join(f"X{i}:{s}" for i, s in enumerate(p.alphabet_sizes, start=1))
    lines, d = [header.rstrip()], p._denominator
    for outcome, w in sorted(zip(p.pmf, p._weights.values())):
        g = math.gcd(w, d)
        lines.append(" ".join(str(s) for s in outcome) + f" : {w // g}/{d // g}")
    return "\n".join(lines) + "\n"

"""The row-by-row distribution parser, kept as a reference for ``parse_distribution``.

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

from cmikit import JointDistribution, ParseError

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

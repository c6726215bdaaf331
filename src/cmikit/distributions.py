"""Exact finite joint distributions and the semantic side of CMI statements.

A distribution is stored as integer weights over a common denominator: the
lcm ``D`` of its reduced probability denominators, so every marginal is a
table of integer counts and validity of a statement on a distribution is
decided by exact integer identities (no thresholds).  Each support point is
one packed ``int``: variable ``i`` holds its symbol in bits ``[W*(i-1), W*i)``,
the field width ``W`` being the bit length of the largest symbol (at least 1).
A marginal on a variable mask keys its counts by ``code & F(mask)``, ``F``
giving the mask's fields, so projecting a point is one ``&``.  ``pmf`` and
``marginal`` decode to tuples and present the probabilities as ``Fraction``
values.  Entropies are reported as floats in bits; they are only used for
diagnostics and cross-checks, never inside the validity decision.
"""

from __future__ import annotations

import math
import random
from collections.abc import ItemsView, Iterable, Iterator, Mapping, Sequence, ValuesView
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import and_, index, mul, or_

from .statements import Cmi, _indices, _mask_of

Assignment = tuple[int, ...]

#: Slack used when comparing float entropy expressions against exact verdicts.
TOLERANCE = 1e-9


#: Marginal tables one distribution keeps, its full pmf included, and also
#: the ``is_valid`` verdicts it keeps.  All 2**8 marginals of a distribution
#: over up to 8 variables fit (a planted oracle distribution holds 58-103
#: after its 24 queries), so only wider ones drop back to the full table.
#: That bounds what a long-lived one, such as a witness template, holds.
MARGINAL_CACHE_SIZE = 256


def _width(sizes: Sequence[int]) -> int:
    """Bits per variable in a packed outcome: the bit length of the largest symbol, at least 1."""
    return (max(sizes) - 1 if sizes else 0).bit_length() or 1


def _pack(outcome: Assignment, sizes: tuple[int, ...], width: int) -> int:
    """Pack an outcome, rejecting a wrong arity or a symbol that would spill into the next field."""
    if len(outcome) != len(sizes):
        raise ValueError(f"outcome {outcome} has arity {len(outcome)}, expected {len(sizes)}")
    code = 0
    for i, (s, size) in enumerate(zip(outcome, sizes)):
        if not 0 <= s < size:
            raise ValueError(f"symbol {s} of variable {i + 1} outside its alphabet 0..{size - 1}")
        code |= s << width * i
    return code


@lru_cache(maxsize=1024)
def _fields(mask: int, width: int) -> int:
    """Bits of a packed outcome that ``mask``'s variables hold; all 2**8 masks fit at 4 widths."""
    return sum(((1 << width) - 1) << width * (i - 1) for i in _indices(mask))


def _unpack(codes: Iterable[int], width: int, mask: int) -> Iterator[Assignment]:
    """Symbol tuples of packed outcomes over the variables of ``mask``, in index order."""
    ones, shifts = (1 << width) - 1, [width * (i - 1) for i in _indices(mask)]
    for code in codes:
        yield tuple([code >> s & ones for s in shifts])


def _common_denominator(codes: list[int], nums: list[int], dens: list[int]) -> tuple[dict[int, int], int]:
    """Integer weights of rows, given as columns of distinct codes, numerators and denominators ``d``,
    over the lcm ``D`` of non-zero rows' ``d``; zero rows are dropped.  Each distinct ``d`` is read once."""
    denominator = math.lcm(*set(compress(dens, nums)))
    scale = {d: denominator // d for d in set(dens)}
    return dict(compress(zip(codes, map(mul, nums, map(scale.__getitem__, dens))), nums)), denominator


class _PmfView(Mapping):
    """Read-only ``Fraction`` view, keyed by outcome tuples, of code-keyed integer weights
    over a common denominator.  It packs and unpacks codes itself: no reference back."""

    __slots__ = ("_weights", "_denominator", "_sizes", "_width")

    def __init__(self, weights: dict[int, int], denominator: int, sizes: tuple[int, ...], width: int) -> None:
        self._weights = weights
        self._denominator = denominator
        self._sizes = sizes
        self._width = width

    def __getitem__(self, outcome: Assignment) -> Fraction:
        try:  # a non-tuple, a wrong arity or a bad symbol is no key
            if isinstance(outcome, tuple):
                return Fraction(self._weights[_pack(outcome, self._sizes, self._width)], self._denominator)
        except (KeyError, TypeError, ValueError):
            pass
        raise KeyError(outcome)

    def __iter__(self) -> Iterator[Assignment]:
        return _unpack(self._weights, self._width, (1 << len(self._sizes)) - 1)

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return repr(self._as_dict())

    def items(self) -> ItemsView[Assignment, Fraction]:
        return self._as_dict().items()

    def values(self) -> ValuesView[Fraction]:
        return self._as_dict().values()

    def _as_dict(self) -> dict[Assignment, Fraction]:
        """Decoded outcomes zipped with their weights' fractions: no lookup packs a tuple again."""
        return dict(zip(self, map(Fraction, self._weights.values(), repeat(self._denominator))))


class JointDistribution:
    """Sparse exact pmf over ``n`` finite variables with given alphabet sizes.

    Outcomes are tuples ``(s_1, ..., s_n)`` with ``0 <= s_i < alphabet_sizes[i]``.
    Zero-probability outcomes are dropped; total mass must be exactly 1.  The
    probabilities are held as positive integer weights over the least common
    denominator, keyed by packed outcome codes; ``pmf`` maps each support
    point to its ``Fraction``.
    """

    __slots__ = ("n", "alphabet_sizes", "pmf", "_weights", "_denominator", "_width", "_counts", "_live", "_verdicts")

    def __init__(self, alphabet_sizes: Sequence[int], pmf: Mapping[Assignment, Fraction]) -> None:
        sizes = tuple(map(index, alphabet_sizes))
        for s in sizes:
            if s < 1:
                raise ValueError(f"alphabet sizes must be >= 1, got {s}")
        width = _width(sizes)
        codes, nums, dens = [], [], []  # the rows, by column
        for outcome, prob in pmf.items():
            outcome = tuple(map(index, outcome))
            codes.append(_pack(outcome, sizes, width))
            q = Fraction(prob)
            if q.numerator < 0:
                raise ValueError(f"negative probability {q} for outcome {outcome}")
            nums.append(q.numerator)
            dens.append(q.denominator)
        weights, denominator = _common_denominator(codes, nums, dens)
        if sum(weights.values()) != denominator:
            raise ValueError("probabilities must sum to exactly 1")
        self._setup(sizes, weights, denominator)

    @classmethod
    def _from_weights(cls, sizes: tuple[int, ...], weights: dict[int, int], denominator: int) -> JointDistribution:
        """Build from positive integer weights, keyed by the packed codes of valid
        outcomes (field width ``_width(sizes)``), that sum to ``denominator``.

        The caller guarantees those invariants; the weights need not be in
        lowest terms.
        """
        self = cls.__new__(cls)
        self._setup(sizes, weights, denominator)
        return self

    def _setup(self, sizes: tuple[int, ...], weights: dict[int, int], denominator: int) -> None:
        # Reduce to the least common denominator, so equal pmfs store equal weights.
        g = math.gcd(denominator, *weights.values())
        if g > 1:
            weights = {code: w // g for code, w in weights.items()}
            denominator //= g
        self.n = n = len(sizes)
        self.alphabet_sizes = sizes
        self._width = width = _width(sizes)
        self.pmf = _PmfView(weights, denominator, sizes, width)
        self._weights = weights
        self._denominator = denominator
        # Marginal counts by variable mask (index i is bit i - 1).
        self._counts: dict[int, dict[int, int]] = {(1 << n) - 1: weights}
        # The variables with two or more values on the support: those whose field
        # holds a bit that is set in some code and clear in another.
        diff, ones, live = reduce(or_, weights) ^ reduce(and_, weights), (1 << width) - 1, 0
        while diff:  # one live field at a time, cleared once found
            i = ((diff & -diff).bit_length() - 1) // width
            live, diff = live | 1 << i, diff & ~(ones << width * i)
        self._live = live
        self._verdicts: dict[tuple[int, ...], bool] = {}  # is_valid's, by erased shape

    def _mask(self, indices: Iterable[int]) -> int:
        return _mask_of(sorted(map(index, indices)), self.n, "variable index")

    def _marginal_counts(self, mask: int) -> dict[int, int]:
        """Integer weights of the marginal on ``mask``, keyed by ``code & _fields(mask, width)`` (cached)."""
        counts = self._counts.get(mask)
        if counts is not None:
            return counts
        if len(self._counts) >= MARGINAL_CACHE_SIZE:
            self._counts = {(1 << self.n) - 1: self._weights}
        # Sum out of the smallest cached marginal that covers ``mask``; the full pmf,
        # cached first, always qualifies.  Search only when the full table has more rows
        # than the cache has tables (else walking it costs less), and search a copy made in
        # one C call: another thread may add a table to a shared template's cache, even inside list(d.items()).
        src = self._weights
        if len(src) > len(self._counts):
            for m, c in self._counts.copy().items():
                if len(c) < len(src) and not mask & ~m:
                    src = c
        f = _fields(mask, self._width)
        counts = {}
        for code, w in src.items():
            sub = code & f
            counts[sub] = counts.get(sub, 0) + w
        self._counts[mask] = counts
        return counts

    def marginal(self, indices: Iterable[int]) -> dict[Assignment, Fraction]:
        """Marginal pmf of the 1-based variables ``indices``, keyed by sorted order."""
        d, mask = self._denominator, self._mask(indices)
        counts = self._marginal_counts(mask)
        return {o: Fraction(c, d) for o, c in zip(_unpack(counts, self._width, mask), counts.values())}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return (self.alphabet_sizes, self._denominator, self._weights) == (
            other.alphabet_sizes,
            other._denominator,
            other._weights,
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"JointDistribution(sizes={self.alphabet_sizes}, support={len(self._weights)})"


def require_matching_arity(p: JointDistribution, k: Cmi) -> None:
    """Raise unless the statement's ground set is the distribution's variable set."""
    if k.n != p.n:
        raise ValueError(f"statement ground set {k.n} does not match distribution arity {p.n}")


def entropy(p: JointDistribution, indices: Iterable[int]) -> float:
    """Shannon entropy in bits of the marginal on ``indices``."""
    return _entropy(p, p._mask(indices))


def _entropy(p: JointDistribution, mask: int) -> float:
    d = p._denominator
    total = 0.0
    for c in p._marginal_counts(mask).values():
        # Integer true division is correctly rounded, as float(Fraction(c, d)) is.
        q = c / d
        total -= q * math.log2(q)
    return total + 0.0  # normalize -0.0 away


def cond_entropy(p: JointDistribution, a: Iterable[int], c: Iterable[int]) -> float:
    """Conditional entropy H(X_a | X_c) in bits."""
    a, c = p._mask(a), p._mask(c)
    return _entropy(p, a | c) - _entropy(p, c)


def cond_mutual_info(
    p: JointDistribution,
    a: Iterable[int],
    b: Iterable[int],
    c: Iterable[int] = frozenset(),
) -> float:
    """Conditional mutual information I(X_a ; X_b | X_c) in bits."""
    a, b, c = p._mask(a), p._mask(b), p._mask(c)
    return _entropy(p, a | c) + _entropy(p, b | c) - _entropy(p, a | b | c) - _entropy(p, c)


def j_value(p: JointDistribution, k: Cmi) -> float:
    """Defect functional: sum of per-block conditional entropies minus the joint one.

    Zero exactly when ``k`` is valid on ``p`` (for two or more blocks it is
    non-negative); statements with at most one block give literally ``0.0``.
    """
    if k.n != p.n:
        require_matching_arity(p, k)
    if len(k._written) <= 1:
        return 0.0
    c, hc = k._cond, _entropy(p, k._cond)
    total = -(_entropy(p, reduce(or_, k._written, c)) - hc)
    for b in k._written:  # in written order: the float sum depends on it
        total += _entropy(p, b | c) - hc
    return total + 0.0


def is_valid(p: JointDistribution, k: Cmi) -> bool:
    """Exact decision: does ``p`` satisfy the statement ``k``?

    Reads the statement as written, ``(C, <B_1..B_b>)`` (blocks may overlap),
    with integer counts ``c`` over the common denominator.  It holds exactly
    when every support point ``(z, y)`` of the blocks' union, ``y`` its
    condition assignment, satisfies

        c(z, y) * c(y)^(b-1) == prod_B c(z_B, y).

    One walk over the joint support suffices.  Summed over the support of
    class ``y``, the left side is ``c(y)^b``; the right side is at most the
    sum over every combination of block values, which is ``c(y)^b``.  The two
    are equal only when the support fills the product of the block supports,
    so every combination outside the support has both sides zero; an index
    that two blocks share then takes one value per class.

    Variables constant on the support are first erased from C and every
    block, and C from every block: both are fixed by ``y``, so no count
    changes, and a block they empty contributes a factor ``c(y)`` that
    cancels one power of ``c(y)``, so it is dropped; at most one block left
    holds trivially.  A witness template's check thus reads only marginals of
    its 1-3 pivots.

    The verdict thus depends only on ``p`` and the erased shape ``(C, *blocks)``,
    which ``p`` memoises (at most ``MARGINAL_CACHE_SIZE`` shapes, then it drops
    back to empty).  The walk reads the joint table first, then each ``C|block``,
    then ``C``: each may sum out of a smaller cached table, to the same integer
    counts in the full table's first-occurrence order, so ``j_value`` is unmoved.
    """
    if k.n != p.n:  # the guard inline: ``require_matching_arity`` only raises
        require_matching_arity(p, k)
    live, blocks = p._live, []
    cond, keep = k._cond & live, live & ~k._cond
    for b in k._written:  # a loop, not a comprehension: CPython 3.11 calls each comprehension
        if b & keep:
            blocks.append(b & keep)
    if len(blocks) <= 1:
        return True
    verdict = p._verdicts.get(key := (cond, *blocks))
    if verdict is not None:
        return verdict
    joint = p._marginal_counts(reduce(or_, blocks, cond))  # blocks may overlap
    width, lookups, scale, power = p._width, [], {}, len(blocks) - 1
    for b in blocks:  # plain loops, as above
        lookups.append((_fields(cond | b, width), p._marginal_counts(cond | b)))
    for y, cy in p._marginal_counts(cond).items():
        scale[y] = cy**power
    cond_field, verdict = _fields(cond, width), True
    for code, czy in joint.items():
        rhs = 1
        for field, counts in lookups:
            rhs *= counts[code & field]
        if czy * scale[code & cond_field] != rhs:
            verdict = False
            break
    if len(p._verdicts) >= MARGINAL_CACHE_SIZE:
        p._verdicts = {}
    p._verdicts[key] = verdict
    return verdict


#: Most variables ``random_distribution`` samples over.
RANDOM_MAX_N = 8


def random_distribution(
    n: int,
    alphabet_sizes: Sequence[int],
    seed: int,
    mass_grain: int = 16,
) -> JointDistribution:
    """Deterministic random pmf: throw ``mass_grain`` unit masses into outcome bins.

    Every probability is a multiple of ``1/mass_grain``, so downstream
    arithmetic stays exact and the family of reachable distributions is
    finite.  ``mass_grain=1`` gives a random point mass.
    """
    if not 0 <= n <= RANDOM_MAX_N:
        raise ValueError(f"random_distribution supports n in 0..{RANDOM_MAX_N}, got {n}")
    sizes = tuple(map(index, alphabet_sizes))
    if len(sizes) != n:
        raise ValueError(f"expected {n} alphabet sizes, got {len(sizes)}")
    for s in sizes:
        if not 1 <= s <= 4:
            raise ValueError(f"alphabet sizes must be in 1..4, got {s}")
    if mass_grain < 1:
        raise ValueError(f"mass_grain must be >= 1, got {mass_grain}")
    rng, width, total = random.Random(seed), _width(sizes), math.prod(sizes)
    counts: dict[int, int] = {}
    for _ in range(mass_grain):
        # ``choice``'s draw from every outcome in itertools.product order, decoded.
        r, o = rng.randrange(total), 0
        for i in range(n - 1, -1, -1):
            r, v = divmod(r, sizes[i])
            o |= v << width * i
        counts[o] = counts.get(o, 0) + 1
    return JointDistribution._from_weights(sizes, counts, mass_grain)

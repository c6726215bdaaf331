"""Symbolic algebra for conditional mutual independence (CMI) statements.

A statement ``K = (C, <Q_1, ..., Q_k>)`` over the ground set ``{1, ..., n}``
asserts that the variable blocks ``X_{Q_1}, ..., X_{Q_k}`` are mutually
independent given ``X_C``.  This module provides the pure and canonical normal
forms, the residual construction, exact decision procedures for equivalence
and single-premise implication, and the sound statement transforms (weakening,
decomposition into a chain of pairwise conditional independencies).

Index sets are stored only as ``int`` bitmasks (index ``i`` is bit ``i - 1``),
blocks once, in written order; each read of a public ``frozenset`` field builds
fresh, equal sets from them.  Each class writes its slots only in ``_from_masks``.
Equality and hashing (blocks sorted), ``canonicalize`` and one clause function
read the masks; the clause function names the first failing clause of the
sub-CMI test and the witness template and pivots it plans.  ``implies`` asks
whether none fails.  A statement computes its canonical form once, on first use;
it is freed with the statement.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from operator import index

IndexSet = frozenset[int]

#: Hard cap on the ground-set size; keeps index sets machine-word sized.
MAX_GROUND_SET = 64


def _check_ground(n: int) -> None:
    if not 0 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground-set size must be in 0..{MAX_GROUND_SET}, got {n}")


def _coerce_index_set(members: Iterable[int]) -> IndexSet:
    return frozenset(map(index, members))


def _mask_of(members: Iterable[int], n: int, what: str) -> int:
    """Bitmask of ``members`` (index ``i`` is bit ``i - 1``); a non-integer raises
    ``TypeError``, the first outside ``1..n`` "<what> <i> outside the ground set 1..<n>"."""
    mask = 0
    for i in members:
        i = index(i)
        if not 1 <= i <= n:
            raise ValueError(f"{what} {i} outside the ground set 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def _indices(mask: int) -> tuple[int, ...]:
    """Members of ``mask`` in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _view(mask: int) -> IndexSet:
    """``mask`` as a frozenset, its members inserted in increasing order."""
    return frozenset(_indices(mask))


def _low(mask: int) -> int:
    """Smallest member of a non-empty ``mask``."""
    return (mask & -mask).bit_length()


def block_key(block: IndexSet) -> tuple[int, tuple[int, ...]]:
    """Total order on index sets: cardinality first, then members lexicographically."""
    return (len(block), tuple(sorted(block)))


def _mask_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return (mask.bit_count(), _indices(mask))


class _Frozen:
    """Immutable ``__slots__`` value; its repr and copies read ``_fields``, the
    constructor's parameters in order, and equality and hashing read ``_key()``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Cmi(_Frozen):
    """A CMI statement ``(cond, <blocks>)`` over the ground set ``{1..n}``.

    ``blocks`` is a multiset: equality ignores order but counts repeats.  The
    blocks keep the order they were written in, so transforms that address
    blocks by position (``weaken``) stay well-defined.  Blocks may be empty and
    may overlap ``cond``; purity is not required at this level.  Only masks are
    stored: ``_cond`` and the blocks once, in ``_written``, which equality and
    hashing sort.  Each read of ``cond`` or ``blocks`` builds fresh frozensets.
    """

    __slots__ = ("n", "_cond", "_written", "_canon")  # _canon: None until canonicalize
    _fields = ("n", "cond", "blocks")

    def __new__(cls, n: int, cond: Iterable[int] = frozenset(), blocks: Iterable[Iterable[int]] = ()) -> Cmi:
        _check_ground(n)
        cond_mask = _mask_of(cond, n, "conditioning set contains index")
        return cls._from_masks(n, cond_mask, [_mask_of(b, n, "block contains index") for b in blocks])

    @classmethod
    def _from_masks(cls, n: int, cond: int, blocks: Sequence[int]) -> Cmi:
        """Build from masks inside ``1..n``; blocks keep the given order.  The only slot writer; ``canonicalize`` sets ``_canon``."""
        k, set_ = object.__new__(cls), object.__setattr__
        set_(k, "n", n)
        set_(k, "_cond", cond)
        set_(k, "_written", tuple(blocks))
        set_(k, "_canon", None)
        return k

    cond = property(lambda self: _view(self._cond))
    blocks = property(lambda self: tuple(map(_view, self._written)))

    def _key(self) -> tuple:
        return self.n, self._cond, tuple(sorted(self._written))


class CanonicalCmi(_Frozen):
    """Canonical form ``(cond, repeated, parts)`` with a distinguished degenerate value.

    Structural equality of canonical forms decides statement equivalence.
    Invariants: ``cond``, ``repeated`` and the parts are pairwise disjoint,
    every part is non-empty, parts are stored sorted, the part count is never
    exactly 1, and a non-degenerate form has a repeated set or at least two
    parts.  The degenerate value (true under every distribution) is normalized
    to carry no indices at all.  Only the masks ``_cond``, ``_rep`` and ``_parts``
    are stored, which equality and hashing read; each read of ``cond``,
    ``repeated`` or ``parts`` builds fresh frozensets.
    """

    __slots__ = ("n", "degenerate", "_cond", "_rep", "_parts")  # _parts sorted by _mask_key
    _fields = ("n", "cond", "repeated", "parts", "degenerate")

    def __new__(
        cls, n: int, cond: Iterable[int] = frozenset(), repeated: Iterable[int] = frozenset(),
        parts: Iterable[Iterable[int]] = (), degenerate: bool = False
    ) -> CanonicalCmi:
        _check_ground(n)
        cond = _coerce_index_set(cond)
        rep = _coerce_index_set(repeated)
        parts = sorted((_coerce_index_set(p) for p in parts), key=block_key)
        if degenerate and (cond or rep or parts):
            raise ValueError("the degenerate canonical form carries no indices")
        masks = [_mask_of(cond, n, "conditioning set contains index"), _mask_of(rep, n, "repeated set contains index")]
        for p in parts:
            masks.append(_mask_of(p, n, "part contains index"))
            if not p:
                raise ValueError("canonical parts must be non-empty")
        # Adding masks carries exactly where two of them share an index.
        if sum(m.bit_count() for m in masks) != sum(masks).bit_count():
            raise ValueError("condition, repeated set and parts must be pairwise disjoint")
        if len(parts) == 1:
            raise ValueError("a canonical form never has exactly one part")
        if not (degenerate or rep or parts):
            raise ValueError("a non-degenerate canonical form needs a repeated set or parts")
        return cls._from_masks(n, masks[0], masks[1], masks[2:], degenerate)

    @classmethod
    def _from_masks(cls, n: int, cond: int, rep: int, parts: Iterable[int], degenerate: bool = False) -> CanonicalCmi:
        """Build from masks that meet the invariants, parts in any order.  The only slot writer."""
        c, set_ = object.__new__(cls), object.__setattr__
        set_(c, "n", n)
        set_(c, "degenerate", degenerate)
        set_(c, "_cond", cond)
        set_(c, "_rep", rep)
        set_(c, "_parts", tuple(sorted(parts, key=_mask_key)))
        return c

    cond = property(lambda self: _view(self._cond))
    repeated = property(lambda self: _view(self._rep))
    parts = property(lambda self: tuple(map(_view, self._parts)))

    def _key(self) -> tuple:
        return self.n, self.degenerate, self._cond, self._rep, self._parts

    @classmethod
    def degenerate_form(cls, n: int) -> "CanonicalCmi":
        _check_ground(n)
        return cls._from_masks(n, 0, 0, (), True)

    def as_cmi(self) -> Cmi:
        """The statement this canonical form denotes, in its general block shape
        (``(∅, <>)`` for the degenerate form, whose masks are all empty)."""
        rep = (self._rep, self._rep) if self._rep else ()
        return Cmi._from_masks(self.n, self._cond, rep + self._parts)


def pure_form(k: Cmi) -> Cmi:
    """Strip the conditioning set out of every block and drop emptied blocks."""
    free = ~k._cond
    return Cmi._from_masks(k.n, k._cond, [b & free for b in k._written if b & free])


def is_pure(k: Cmi) -> bool:
    """True when every block is non-empty and disjoint from the condition."""
    return all(b and not b & k._cond for b in k._written)


def canonicalize(k: Cmi) -> CanonicalCmi:
    """Normal form whose structural equality decides statement equivalence.

    On the masks: ``pure_form``, then the indices found in two or more blocks
    (the repeated set) are split off the parts.  Computed once per statement.
    """
    if k._canon is None:
        object.__setattr__(k, "_canon", _canonical_form(k))
    return k._canon


def _canonical_form(k: Cmi) -> CanonicalCmi:
    free = ~k._cond
    blocks = [b & free for b in k._written if b & free]
    if len(blocks) <= 1:
        return CanonicalCmi.degenerate_form(k.n)
    seen = rep = 0
    for b in blocks:
        rep |= seen & b
        seen |= b
    parts = [b & ~rep for b in blocks if b & ~rep]
    if rep and len(parts) <= 1:
        # Once the repeated indices are pinned to the condition, a lone
        # leftover part constrains nothing (its independence from the repeated
        # pair is automatic), so it is dropped.
        parts = []
    return CanonicalCmi._from_masks(k.n, k._cond, rep, parts)


def is_degenerate(k: Cmi) -> bool:
    """True when the statement holds under every distribution."""
    return canonicalize(k).degenerate


def _require_same_ground(k: Cmi, k2: Cmi) -> None:
    if k.n != k2.n:
        raise ValueError(f"ground-set sizes differ: {k.n} != {k2.n}")


def _residual_masks(c: CanonicalCmi, c2: CanonicalCmi) -> tuple[int, int, list[int]]:
    """``(cond, repeated, parts)`` of the residual of ``c2`` on ``c``, all empty when it is
    degenerate.  Parts keep ``c2``'s order, and there are none or at least two."""
    d = c2._rep & ~c._rep
    left = [p & ~c._rep for p in c2._parts if p & ~c._rep]
    if not d and len(left) <= 1:
        return 0, 0, []
    return c2._cond & ~c._rep, d, left if len(left) >= 2 else []


def residual(k: Cmi, k2: Cmi) -> Cmi:
    """The statement "k2 conditioning on k": k2 with k's repeated indices erased.

    Erases k's repeated indices from k2's condition, repeated set and parts
    (working on the canonical forms of both), and returns the result in
    canonical general shape.  Implication of k2 by k reduces to implication of
    this residual.  If k is degenerate the residual is just k2's canonical
    form.
    """
    _require_same_ground(k, k2)
    cond, d, left = _residual_masks(canonicalize(k), canonicalize(k2))
    return Cmi._from_masks(k.n, cond, ((d, d) if d else ()) + tuple(left))


# Verdicts of the sub-CMI test: it holds, or the first clause that fails.
HOLDS = "holds"
CONDITION = "condition not contained"
REPEATED = "repeated set not covered"
OUTSIDE = "residual part outside the premise's parts"
SANDWICH = "condition sandwich violated"
SHARED = "two residual parts sharing a premise part"

# Witness templates a failed clause plans (built in ``witnesses``): one uniform
# bit, two or three copies of it, or two independent bits and their parity.
SINGLE = "SINGLE"
COPY2 = "COPY2"
COPY3 = "COPY3"
XOR = "XOR"


def _sub_cmi_clause(k: Cmi, k2: Cmi) -> tuple[str, str | None, tuple[int, ...]]:
    """The first failing clause of "k implies k2", its witness template and pivots.

    ``HOLDS`` when k2 is degenerate, or when k's condition is inside k2's, k's
    repeated set covers k2's, and the residual of k2 on k is degenerate or has
    its parts inside k's parts, its condition between k's condition and all k
    mentions outside those residual parts, and any two indices from distinct
    residual parts in distinct parts of k.  A failed clause names the template,
    and the pivots to place it at, of a distribution that satisfies k and
    violates k2.  ``HOLDS`` comes with no template and no pivots.
    """
    _require_same_ground(k, k2)
    c2 = canonicalize(k2)
    if c2.degenerate:
        return HOLDS, None, ()
    c = canonicalize(k)
    rep2, parts2 = c2._rep, c2._parts
    missing = c._cond & ~c2._cond
    if missing:
        # Pivots that all copy one bit seen at m0 in k's condition keep k
        # valid; k2 does not condition on m0.
        bit = missing & -missing
        m0 = bit.bit_length()
        if rep2:
            if bit & rep2:
                return CONDITION, SINGLE, (m0,)
            return CONDITION, COPY2, (m0, _low(rep2))
        hit = next((j for j, part in enumerate(parts2) if bit & part), None)
        if hit is None:
            return CONDITION, COPY3, (m0, _low(parts2[0]), _low(parts2[1]))
        return CONDITION, COPY2, (m0, _low(parts2[1 if hit == 0 else 0]))
    if rep2 & ~c._rep:
        return REPEATED, SINGLE, (_low(rep2 & ~c._rep),)
    rcond, _, left = _residual_masks(c, c2)  # no repeated set: k's covers k2's
    if not left:
        return HOLDS, None, ()
    left.sort(key=_mask_key)
    # Parts are pairwise disjoint, so their sum is their union.
    pset, ppset = sum(c._parts), sum(left)
    outside = ppset & ~pset
    if outside:
        if c.degenerate:  # no parts at all: tie k2's first two parts
            return OUTSIDE, COPY2, (_low(left[0]), _low(left[1]))
        j1 = next(j for j, part in enumerate(left) if part & outside & -outside)
        return OUTSIDE, COPY2, (_low(outside), _low(left[1 if j1 == 0 else 0]))
    extra = rcond & ~(c._cond | pset)  # it never meets the residual parts
    if extra:
        a, b = left[0] & -left[0], left[1] & -left[1]
        if any(part & a and part & b for part in c._parts):
            return SANDWICH, COPY2, (a.bit_length(), b.bit_length())
        return SANDWICH, XOR, (a.bit_length(), b.bit_length(), _low(extra))
    for q1, q2 in itertools.combinations(left, 2):
        for part in c._parts:
            if q1 & part and q2 & part:
                return SHARED, COPY2, (_low(q1 & part), _low(q2 & part))
    return HOLDS, None, ()


def implies(k: Cmi, k2: Cmi) -> bool:
    """Single-premise implication: every distribution satisfying k satisfies k2.

    Sound and complete: no clause of the sub-CMI test fails.
    """
    return _sub_cmi_clause(k, k2)[0] == HOLDS


def equivalent(k: Cmi, k2: Cmi) -> bool:
    """True when the statements hold on exactly the same distributions."""
    _require_same_ground(k, k2)
    return canonicalize(k) == canonicalize(k2)


def decompose_to_cis(k: Cmi) -> list[Cmi]:
    """Split into a functional-dependence pair plus a chain of two-block CIs.

    Works on the canonical form: first ``(C, <I, I>)`` if the repeated set I is
    non-empty, then for the disjoint parts ``P_1..P_t`` the chain statements
    ``(C ∪ I ∪ P_1 ∪ ... ∪ P_{i-1}, <P_i, P_{i+1} ∪ ... ∪ P_t>)``.  The input
    is valid on a distribution exactly when every returned statement is.
    Degenerate input yields an empty list.
    """
    c = canonicalize(k)  # the degenerate form's masks are all empty
    out = [Cmi._from_masks(c.n, c._cond, (c._rep, c._rep))] if c._rep else []
    acc = c._cond | c._rep
    for i, part in enumerate(c._parts[:-1]):
        out.append(Cmi._from_masks(c.n, acc, (part, sum(c._parts[i + 1 :]))))  # disjoint parts
        acc |= part
    return out


def weaken(
    k: Cmi,
    sub_blocks: Sequence[Iterable[int]],
    grouping: Sequence[Iterable[int]],
    extra_cond: Iterable[int] = frozenset(),
) -> Cmi:
    """Sound weakening: shrink blocks, merge groups of them, condition on the rest.

    ``sub_blocks[i]`` must be contained in block i of the pure statement ``k``;
    ``grouping`` lists disjoint sets of 1-based block positions, each merged
    into one new block; ``extra_cond`` may only use indices from the original
    blocks that no merged group retains.  The result is always implied by
    ``k``.
    """
    if not is_pure(k):
        raise ValueError("weaken expects a pure statement; apply pure_form first")
    blocks = k.blocks
    subs = [_coerce_index_set(w) for w in sub_blocks]
    if len(subs) != len(blocks):
        raise ValueError(f"expected {len(blocks)} sub-blocks, got {len(subs)}")
    for i, (w, q) in enumerate(zip(subs, blocks), start=1):
        if not w <= q:
            raise ValueError(f"sub-block {i} is not contained in block {i}")
    groups = [_coerce_index_set(a) for a in grouping]
    seen: set[int] = set()
    for a in groups:
        for i in a:
            if not 1 <= i <= len(blocks):
                raise ValueError(
                    f"grouping refers to block position {i}, valid range is 1..{len(blocks)}"
                )
            if i in seen:
                raise ValueError(f"block position {i} appears in two groups")
            seen.add(i)
    merged = tuple(frozenset().union(*(subs[i - 1] for i in a)) if a else frozenset() for a in groups)
    r = _coerce_index_set(extra_cond)
    all_blocks = frozenset().union(*blocks)
    used = frozenset().union(*merged) if merged else frozenset()
    if not r <= all_blocks - used:
        raise ValueError(
            "extra conditioning indices must come from the original blocks and avoid every merged group"
        )
    return Cmi(k.n, k.cond | r, merged)


def _submasks(mask: int) -> Iterator[int]:
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _disjoint_families(avail: int, t: int) -> Iterator[tuple[int, ...]]:
    """Unordered families of ``t`` pairwise-disjoint non-empty submasks of ``avail``.

    Each family is produced exactly once: a part holding the lowest index of
    ``avail`` comes first, and families without that index come before it.
    """
    if t == 0:
        yield ()
    elif avail:
        low = avail & -avail
        yield from _disjoint_families(avail ^ low, t)
        for sub in _submasks(avail ^ low):
            for others in _disjoint_families(avail ^ low ^ sub, t - 1):
                yield (low | sub, *others)


def enumerate_canonical(n: int, max_blocks: int) -> list[CanonicalCmi]:
    """All distinct canonical forms over ``{1..n}`` with at most ``max_blocks`` parts.

    Includes the degenerate form exactly once; deterministically ordered.
    Meant for exhaustive desk-scale checks, hence the tight bounds.
    """
    if not 0 <= n <= 5:
        raise ValueError(f"enumerate_canonical supports n in 0..5, got {n}")
    if not 0 <= max_blocks <= 4:
        raise ValueError(f"enumerate_canonical supports max_blocks in 0..4, got {max_blocks}")
    full = (1 << n) - 1
    out = [CanonicalCmi.degenerate_form(n)]
    for cond in range(full + 1):
        for rep in _submasks(full & ~cond):
            if rep:
                out.append(CanonicalCmi._from_masks(n, cond, rep, ()))
            for t in range(2, max_blocks + 1):
                for parts in _disjoint_families(full & ~cond & ~rep, t):
                    out.append(CanonicalCmi._from_masks(n, cond, rep, parts))
    parts_key = lambda c: [*map(_mask_key, c._parts)]
    out.sort(key=lambda c: (not c.degenerate, _indices(c._cond), _indices(c._rep), parts_key(c)))
    return out

"""Symbolic algebra for conditional mutual independence (CMI) statements.

A statement ``K = (C, <Q_1, ..., Q_k>)`` over the ground set ``{1, ..., n}``
asserts that the variable blocks ``X_{Q_1}, ..., X_{Q_k}`` are mutually
independent given ``X_C``.  This module provides the pure and canonical normal
forms, the residual construction, exact decision procedures for equivalence
and single-premise implication, and the sound statement transforms (weakening,
decomposition into a chain of pairwise conditional independencies).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

IndexSet = frozenset[int]

#: Hard cap on the ground-set size; keeps index sets machine-word sized.
MAX_GROUND_SET = 64


def _coerce_index_set(members: Iterable[int]) -> IndexSet:
    return frozenset(int(i) for i in members)


def _check_subset(members: IndexSet, n: int, what: str) -> None:
    for i in members:
        if not 1 <= i <= n:
            raise ValueError(f"{what} contains index {i} outside the ground set 1..{n}")


def block_key(block: IndexSet) -> tuple[int, tuple[int, ...]]:
    """Total order on index sets: cardinality first, then members lexicographically."""
    return (len(block), tuple(sorted(block)))


@dataclass(frozen=True, eq=False)
class Cmi:
    """A CMI statement ``(cond, <blocks>)`` over the ground set ``{1..n}``.

    ``blocks`` is a multiset: equality ignores order but counts repeats.  The
    stored tuple preserves the order the blocks were written in, so transforms
    that address blocks by position (``weaken``) stay well-defined.  Blocks may
    be empty and may overlap ``cond``; purity is not required at this level.
    """

    n: int
    cond: IndexSet = frozenset()
    blocks: tuple[IndexSet, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_GROUND_SET:
            raise ValueError(f"ground-set size must be in 0..{MAX_GROUND_SET}, got {self.n}")
        object.__setattr__(self, "cond", _coerce_index_set(self.cond))
        object.__setattr__(self, "blocks", tuple(_coerce_index_set(b) for b in self.blocks))
        _check_subset(self.cond, self.n, "conditioning set")
        for b in self.blocks:
            _check_subset(b, self.n, "block")

    def sorted_blocks(self) -> tuple[IndexSet, ...]:
        return tuple(sorted(self.blocks, key=block_key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cmi):
            return NotImplemented
        return (self.n, self.cond, self.sorted_blocks()) == (
            other.n,
            other.cond,
            other.sorted_blocks(),
        )

    def __hash__(self) -> int:
        return hash((self.n, self.cond, self.sorted_blocks()))


@dataclass(frozen=True)
class CanonicalCmi:
    """Canonical form ``(cond, repeated, parts)`` with a distinguished degenerate value.

    Structural equality of canonical forms decides statement equivalence.
    Invariants: ``cond``, ``repeated`` and the parts are pairwise disjoint,
    every part is non-empty, parts are stored sorted, the part count is never
    exactly 1, and a non-degenerate form has a repeated set or at least two
    parts.  The degenerate value (true under every distribution) is normalized
    to carry no indices at all.
    """

    n: int
    cond: IndexSet = frozenset()
    repeated: IndexSet = frozenset()
    parts: tuple[IndexSet, ...] = ()
    degenerate: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_GROUND_SET:
            raise ValueError(f"ground-set size must be in 0..{MAX_GROUND_SET}, got {self.n}")
        object.__setattr__(self, "cond", _coerce_index_set(self.cond))
        object.__setattr__(self, "repeated", _coerce_index_set(self.repeated))
        object.__setattr__(
            self,
            "parts",
            tuple(sorted((_coerce_index_set(p) for p in self.parts), key=block_key)),
        )
        if self.degenerate:
            if self.cond or self.repeated or self.parts:
                raise ValueError("the degenerate canonical form carries no indices")
            return
        _check_subset(self.cond, self.n, "conditioning set")
        _check_subset(self.repeated, self.n, "repeated set")
        for p in self.parts:
            _check_subset(p, self.n, "part")
            if not p:
                raise ValueError("canonical parts must be non-empty")
        groups = (self.cond, self.repeated, *self.parts)
        for a, b in itertools.combinations(range(len(groups)), 2):
            if groups[a] & groups[b]:
                raise ValueError("condition, repeated set and parts must be pairwise disjoint")
        if len(self.parts) == 1:
            raise ValueError("a canonical form never has exactly one part")
        if not self.repeated and not self.parts:
            raise ValueError("a non-degenerate canonical form needs a repeated set or parts")

    @classmethod
    def degenerate_form(cls, n: int) -> "CanonicalCmi":
        return cls(n, frozenset(), frozenset(), (), True)

    def as_cmi(self) -> Cmi:
        """The statement this canonical form denotes, in its general block shape."""
        if self.degenerate:
            return Cmi(self.n, frozenset(), ())
        blocks = ((self.repeated, self.repeated) if self.repeated else ()) + self.parts
        return Cmi(self.n, self.cond, blocks)


def pure_form(k: Cmi) -> Cmi:
    """Strip the conditioning set out of every block and drop emptied blocks."""
    return Cmi(k.n, k.cond, tuple(b - k.cond for b in k.blocks if b - k.cond))


def is_pure(k: Cmi) -> bool:
    """True when every block is non-empty and disjoint from the condition."""
    return all(b and not (b & k.cond) for b in k.blocks)


def repeated_indices(k: Cmi) -> IndexSet:
    """Indices appearing in two or more blocks, counted over block positions.

    A valid statement forces each such index to be a function of the
    conditioning variables.  Statements with fewer than two blocks have no
    repeated indices.
    """
    if not is_pure(k):
        raise ValueError("repeated_indices expects a pure statement; apply pure_form first")
    if len(k.blocks) <= 1:
        return frozenset()
    counts = Counter(itertools.chain.from_iterable(k.blocks))
    return frozenset(i for i, c in counts.items() if c >= 2)


#: Canonical forms kept by ``canonicalize``: a bound, so long runs over fresh
#: statements keep memory flat, well above the 1,077 classes over n=5.
CANONICAL_CACHE_SIZE = 4096


@lru_cache(maxsize=CANONICAL_CACHE_SIZE)
def canonicalize(k: Cmi) -> CanonicalCmi:
    """Normal form whose structural equality decides statement equivalence."""
    p = pure_form(k)
    if len(p.blocks) <= 1:
        return CanonicalCmi.degenerate_form(k.n)
    rep = repeated_indices(p)
    parts = tuple(b - rep for b in p.blocks if b - rep)
    if rep and len(parts) <= 1:
        # Once the repeated indices are pinned to the condition, a lone
        # leftover part constrains nothing (its independence from the repeated
        # pair is automatic), so it is dropped.
        parts = ()
    return CanonicalCmi(k.n, p.cond, rep, parts)


def is_degenerate(k: Cmi) -> bool:
    """True when the statement holds under every distribution."""
    return canonicalize(k).degenerate


def _require_same_ground(k: Cmi, k2: Cmi) -> None:
    if k.n != k2.n:
        raise ValueError(f"ground-set sizes differ: {k.n} != {k2.n}")


def residual(k: Cmi, k2: Cmi) -> Cmi:
    """The statement "k2 conditioning on k": k2 with k's repeated indices erased.

    Erases k's repeated indices from k2's condition, repeated set and parts
    (working on the canonical forms of both), and returns the result in
    canonical general shape.  Implication of k2 by k reduces to implication of
    this residual.  If k is degenerate the residual is just k2's canonical
    form.
    """
    _require_same_ground(k, k2)
    ck = canonicalize(k)
    ck2 = canonicalize(k2)
    if ck.degenerate:
        return ck2.as_cmi()
    rep = ck.repeated
    cond = ck2.cond - rep
    d = ck2.repeated - rep
    leftovers = tuple(p - rep for p in ck2.parts if p - rep)
    if not d and len(leftovers) <= 1:
        return Cmi(k.n, frozenset(), ())
    if not d:
        return Cmi(k.n, cond, leftovers)
    if len(leftovers) <= 1:
        return Cmi(k.n, cond, (d, d))
    return Cmi(k.n, cond, (d, d) + leftovers)


def is_sub_cmi(k: Cmi, k2: Cmi) -> bool:
    """Exact combinatorial test that k2 is a consequence of k.

    True when (i) k2 is degenerate; or (ii) the residual of k2 on k is
    degenerate and k's condition is contained in k2's; or (iii) the residual
    has no repeated indices, its parts sit inside k's parts, its condition
    sits between k's condition and everything k mentions outside those
    residual parts, and any two indices from distinct residual parts lie in
    distinct parts of k.
    """
    _require_same_ground(k, k2)
    ck2 = canonicalize(k2)
    if ck2.degenerate:
        return True
    ck = canonicalize(k)
    ckk = canonicalize(residual(k, k2))
    if ckk.degenerate:
        return ck.cond <= ck2.cond
    if ckk.repeated:
        return False
    pset = frozenset().union(*ck.parts) if ck.parts else frozenset()
    ppset = frozenset().union(*ckk.parts)
    if not ppset <= pset:
        return False
    s = ck.cond | pset
    if not (ck.cond <= ckk.cond and ckk.cond <= s - ppset):
        return False
    # "Any two indices from distinct residual parts lie in distinct parts of
    # k": the set of k-parts covering each residual part must be pairwise
    # disjoint across residual parts.  (A single residual part may span
    # several k-parts — that is an allowed merge.)
    covers = [
        frozenset(i for i, p in enumerate(ck.parts) if p & part) for part in ckk.parts
    ]
    for a, b in itertools.combinations(covers, 2):
        if a & b:
            return False
    return True


def implies(k: Cmi, k2: Cmi) -> bool:
    """Single-premise implication: every distribution satisfying k satisfies k2.

    Sound and complete; equivalent to ``is_sub_cmi(k, k2)``.
    """
    return is_sub_cmi(k, k2)


def equivalent(k: Cmi, k2: Cmi) -> bool:
    """True when the statements hold on exactly the same distributions."""
    _require_same_ground(k, k2)
    return canonicalize(k) == canonicalize(k2)


def set_implies(premises: Sequence[Cmi], conclusions: Sequence[Cmi]) -> bool:
    """True when every conclusion is a consequence of at least one premise.

    Sound for any premise count, but complete only for a single premise; the
    general multi-premise implication problem is out of scope.
    """
    premises = list(premises)
    conclusions = list(conclusions)
    if not premises:
        raise ValueError("at least one premise is required")
    for stmt in itertools.chain(premises[1:], conclusions):
        _require_same_ground(premises[0], stmt)
    return all(any(is_sub_cmi(p, c) for p in premises) for c in conclusions)


def decompose_to_cis(k: Cmi) -> list[Cmi]:
    """Split into a functional-dependence pair plus a chain of two-block CIs.

    Works on the canonical form: first ``(C, <I, I>)`` if the repeated set I is
    non-empty, then for the disjoint parts ``P_1..P_t`` the chain statements
    ``(C ∪ I ∪ P_1 ∪ ... ∪ P_{i-1}, <P_i, P_{i+1} ∪ ... ∪ P_t>)``.  The input
    is valid on a distribution exactly when every returned statement is.
    Degenerate input yields an empty list.
    """
    c = canonicalize(k)
    if c.degenerate:
        return []
    out: list[Cmi] = []
    if c.repeated:
        out.append(Cmi(c.n, c.cond, (c.repeated, c.repeated)))
    acc = c.cond | c.repeated
    for i, part in enumerate(c.parts[:-1]):
        rest = frozenset().union(*c.parts[i + 1 :])
        out.append(Cmi(c.n, acc, (part, rest)))
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
    subs = [_coerce_index_set(w) for w in sub_blocks]
    if len(subs) != len(k.blocks):
        raise ValueError(f"expected {len(k.blocks)} sub-blocks, got {len(subs)}")
    for i, (w, q) in enumerate(zip(subs, k.blocks), start=1):
        if not w <= q:
            raise ValueError(f"sub-block {i} is not contained in block {i}")
    groups = [_coerce_index_set(a) for a in grouping]
    seen: set[int] = set()
    for a in groups:
        for i in a:
            if not 1 <= i <= len(k.blocks):
                raise ValueError(
                    f"grouping refers to block position {i}, valid range is 1..{len(k.blocks)}"
                )
            if i in seen:
                raise ValueError(f"block position {i} appears in two groups")
            seen.add(i)
    merged = tuple(frozenset().union(*(subs[i - 1] for i in a)) if a else frozenset() for a in groups)
    r = _coerce_index_set(extra_cond)
    all_blocks = frozenset().union(*k.blocks) if k.blocks else frozenset()
    used = frozenset().union(*merged) if merged else frozenset()
    if not r <= all_blocks - used:
        raise ValueError(
            "extra conditioning indices must come from the original blocks and avoid every merged group"
        )
    return Cmi(k.n, k.cond | r, merged)


def _subsets(items: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _disjoint_families(avail: tuple[int, ...], t: int) -> Iterator[tuple[IndexSet, ...]]:
    """Unordered families of ``t`` pairwise-disjoint non-empty subsets of ``avail``.

    Each family is produced exactly once: its parts are emitted in increasing
    order of their minimum element.
    """
    if t == 0:
        yield ()
        return
    if not avail:
        return
    a, rest = avail[0], avail[1:]
    yield from _disjoint_families(rest, t)
    for s in _subsets(rest):
        part = frozenset((a, *s))
        remaining = tuple(x for x in rest if x not in part)
        for others in _disjoint_families(remaining, t - 1):
            yield (part, *others)


def _canonical_key(c: CanonicalCmi):
    return (
        0 if c.degenerate else 1,
        tuple(sorted(c.cond)),
        tuple(sorted(c.repeated)),
        tuple(block_key(p) for p in c.parts),
    )


def enumerate_canonical(n: int, max_blocks: int) -> list[CanonicalCmi]:
    """All distinct canonical forms over ``{1..n}`` with at most ``max_blocks`` parts.

    Includes the degenerate form exactly once; deterministically ordered.
    Meant for exhaustive desk-scale checks, hence the tight bounds.
    """
    if not 0 <= n <= 5:
        raise ValueError(f"enumerate_canonical supports n in 0..5, got {n}")
    if not 0 <= max_blocks <= 4:
        raise ValueError(f"enumerate_canonical supports max_blocks in 0..4, got {max_blocks}")
    ground = tuple(range(1, n + 1))
    out = [CanonicalCmi.degenerate_form(n)]
    for cond_members in _subsets(ground):
        rest1 = tuple(i for i in ground if i not in cond_members)
        for rep_members in _subsets(rest1):
            rest2 = tuple(i for i in rest1 if i not in rep_members)
            if rep_members:
                out.append(CanonicalCmi(n, frozenset(cond_members), frozenset(rep_members), ()))
            for t in range(2, max_blocks + 1):
                for parts in _disjoint_families(rest2, t):
                    out.append(
                        CanonicalCmi(n, frozenset(cond_members), frozenset(rep_members), parts)
                    )
    out.sort(key=_canonical_key)
    return out

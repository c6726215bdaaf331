"""Separating distributions for failed implications between CMI statements.

When ``implies(k, k2)`` is false there is always a small counterexample built
from one or two independent uniform bits placed at a handful of pivot
variables (every other variable pinned to 0).  The planner walks the same
case analysis the implication test uses and picks pivots from the first
failing clause; every candidate is re-checked against the exact validity
oracle before being returned, with a brute-force search over the template
family as a safety net.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .distributions import JointDistribution, is_valid
from .statements import Cmi, canonicalize, equivalent, implies, residual

SINGLE = "SINGLE"
COPY2 = "COPY2"
COPY3 = "COPY3"
XOR = "XOR"

TEMPLATES = (SINGLE, COPY2, COPY3, XOR)

_ARITY = {SINGLE: 1, COPY2: 2, COPY3: 3, XOR: 3}


def template_distribution(n: int, template: str, pivots: tuple[int, ...]) -> JointDistribution:
    """Binary-valued distribution with the named dependence at the pivot variables.

    ``SINGLE``: one uniform bit.  ``COPY2``/``COPY3``: two or three perfect
    copies of one uniform bit.  ``XOR``: two independent uniform bits and
    their parity.  All non-pivot variables are constant 0.
    """
    if template not in _ARITY:
        raise ValueError(f"unknown template {template!r}")
    if len(pivots) != _ARITY[template]:
        raise ValueError(f"{template} takes {_ARITY[template]} pivots, got {len(pivots)}")
    if len(set(pivots)) != len(pivots):
        raise ValueError(f"pivot indices must be distinct, got {pivots}")
    for m in pivots:
        if not 1 <= m <= n:
            raise ValueError(f"pivot index {m} outside the ground set 1..{n}")
    weights: dict[tuple[int, ...], int] = {}
    if template == XOR:
        for u, v in itertools.product((0, 1), repeat=2):
            row = [0] * n
            row[pivots[0] - 1] = u
            row[pivots[1] - 1] = v
            row[pivots[2] - 1] = u ^ v
            weights[tuple(row)] = 1
    else:
        for u in (0, 1):
            row = [0] * n
            for m in pivots:
                row[m - 1] = u
            weights[tuple(row)] = 1
    # Every row weighs the same: a uniform pmf over the rows built above.
    return JointDistribution._from_weights((2,) * n, weights, len(weights))


@dataclass(frozen=True)
class Witness:
    """A verified separating distribution for the ordered pair ``direction``.

    The distribution satisfies ``direction[0]`` and violates ``direction[1]``.
    """

    distribution: JointDistribution
    direction: tuple[Cmi, Cmi]
    template: str
    pivot_indices: tuple[int, ...]


def _try(k: Cmi, k2: Cmi, template: str, pivots: tuple[int, ...]) -> Witness | None:
    d = template_distribution(k.n, template, pivots)
    if is_valid(d, k) and not is_valid(d, k2):
        return Witness(d, (k, k2), template, pivots)
    return None


def _planned(k: Cmi, k2: Cmi) -> tuple[str, tuple[int, ...]] | None:
    """Pivot choice mirroring the clause of the implication test that failed."""
    ck = canonicalize(k)
    ck2 = canonicalize(k2)
    if ck.degenerate:
        if ck2.repeated:
            return SINGLE, (min(ck2.repeated),)
        return COPY2, (min(ck2.parts[0]), min(ck2.parts[1]))
    if not ck.cond <= ck2.cond:
        # Conditioning on k pins every variable (the pivots all copy one bit
        # seen at m0 in k's condition), so k holds; k2 cannot see m0.
        m0 = min(ck.cond - ck2.cond)
        if m0 in ck2.repeated:
            return SINGLE, (m0,)
        if ck2.repeated:
            return COPY2, (m0, min(ck2.repeated))
        hit = next((j for j, part in enumerate(ck2.parts) if m0 in part), None)
        if hit is not None:
            other = 1 if hit == 0 else 0
            return COPY2, (m0, min(ck2.parts[other]))
        return COPY3, (m0, min(ck2.parts[0]), min(ck2.parts[1]))
    if not ck2.repeated <= ck.repeated:
        return SINGLE, (min(ck2.repeated - ck.repeated),)
    ckk = canonicalize(residual(k, k2))
    if ckk.degenerate or ckk.repeated or len(ckk.parts) < 2:
        return None  # implication would have held; unreachable given the precondition
    pset = frozenset().union(*ck.parts) if ck.parts else frozenset()
    ppset = frozenset().union(*ckk.parts)
    if not ppset <= pset:
        m1 = min(ppset - pset)
        j1 = next(j for j, part in enumerate(ckk.parts) if m1 in part)
        j2 = next(j for j in range(len(ckk.parts)) if j != j1)
        return COPY2, (m1, min(ckk.parts[j2]))
    s = ck.cond | pset
    if not ckk.cond <= s - ppset:
        m3 = min(ckk.parts[0])
        m4 = min(ckk.parts[1])
        same = any(m3 in part and m4 in part for part in ck.parts)
        if same:
            return COPY2, (m3, m4)
        return XOR, (m3, m4, min(ckk.cond - (s - ppset)))
    for j1, j2 in itertools.combinations(range(len(ckk.parts)), 2):
        for part in ck.parts:
            hit1 = ckk.parts[j1] & part
            hit2 = ckk.parts[j2] & part
            if hit1 and hit2:
                return COPY2, (min(hit1), min(hit2))
    return None


def witness_non_implication(k: Cmi, k2: Cmi) -> Witness:
    """A distribution satisfying ``k`` but not ``k2``; raises if ``k`` implies ``k2``."""
    if implies(k, k2):
        raise ValueError("implication holds; no separating distribution exists")
    plan = _planned(k, k2)
    if plan is not None:
        w = _try(k, k2, *plan)
        if w is not None:
            return w
    # Safety net: sweep the whole template family over the mentioned indices
    # (plus one fresh index for the parity slot, when available).
    mentioned = set(k.cond) | set(k2.cond)
    for b in itertools.chain(k.blocks, k2.blocks):
        mentioned |= b
    fresh = next((i for i in range(1, k.n + 1) if i not in mentioned), None)
    candidates = sorted(mentioned) + ([fresh] if fresh is not None else [])
    for template in TEMPLATES:
        for pivots in itertools.permutations(candidates, _ARITY[template]):
            w = _try(k, k2, template, pivots)
            if w is not None:
                return w
    raise RuntimeError(
        "internal consistency failure: implication test says no, but no witness verified"
    )


def witness_non_equivalence(k: Cmi, k2: Cmi) -> Witness:
    """A distribution satisfying one statement but not the other; raises if equivalent."""
    if equivalent(k, k2):
        raise ValueError("the statements are equivalent; no separating distribution exists")
    if not implies(k, k2):
        return witness_non_implication(k, k2)
    return witness_non_implication(k2, k)

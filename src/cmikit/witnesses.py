"""Separating distributions for failed implications between CMI statements.

When ``implies(k, k2)`` is false there is always a small counterexample built
from one or two independent uniform bits placed at a handful of pivot
variables (every other variable pinned to 0).  There is no separate planner:
the implication test's clause function names the first failing clause, the
template and its pivots.  Every candidate is re-checked against the exact
validity oracle before being returned, with a brute-force search over the
template family as a safety net.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .distributions import JointDistribution, is_valid
from .statements import COPY2, COPY3, HOLDS, SINGLE, XOR
from .statements import Cmi, _sub_cmi_clause, equivalent, implies

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


def witness_non_implication(k: Cmi, k2: Cmi) -> Witness:
    """A distribution satisfying ``k`` but not ``k2``; raises if ``k`` implies ``k2``."""
    clause, template, pivots = _sub_cmi_clause(k, k2)
    if clause == HOLDS:
        raise ValueError("implication holds; no separating distribution exists")
    w = _try(k, k2, template, pivots)
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

"""Definitional validity decider, independent of the oracle it checks.

``brute_valid`` re-decides a statement straight from the definition: the
block tuples must factorize given every conditioning assignment, checked in
exact ``Fraction`` arithmetic over the full outcome grid.  It ignores the
canonical form and builds its marginals from ``p.pmf`` alone, so it shares no
code with ``is_valid``'s integer counts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from cmikit import Cmi, JointDistribution


def fraction_marginal(p: JointDistribution, key: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """Marginal of ``p.pmf`` on the sorted 1-based indices ``key``, in Fraction sums."""
    out: dict[tuple[int, ...], Fraction] = {}
    for outcome, prob in p.pmf.items():
        sub = tuple(outcome[i - 1] for i in key)
        out[sub] = out.get(sub, Fraction(0)) + prob
    return out


def brute_valid(p: JointDistribution, k: Cmi) -> bool:
    """Validity straight from the definition, ignoring the canonical form."""
    if len(k.blocks) <= 1:
        return True
    cond = tuple(sorted(k.cond))
    union = tuple(sorted(frozenset().union(*k.blocks)))
    both = tuple(sorted(set(cond) | set(union)))
    blocks = []
    for b in k.blocks:
        key = tuple(sorted(set(cond) | b))
        blocks.append((key, fraction_marginal(p, key)))
    joint = fraction_marginal(p, both)
    t = len(k.blocks)
    for y, py in fraction_marginal(p, cond).items():
        ydict = dict(zip(cond, y))
        for w in itertools.product(*(range(p.alphabet_sizes[i - 1]) for i in union)):
            wdict = dict(zip(union, w))
            pick = lambda key: tuple(ydict.get(i, wdict.get(i)) for i in key)
            lhs = joint.get(pick(both), Fraction(0)) * py ** (t - 1)
            rhs = Fraction(1)
            for key, marg in blocks:
                rhs *= marg.get(pick(key), Fraction(0))
            if lhs != rhs:
                return False
    return True

"""Definitional deciders, independent of the library code they check.

``brute_valid`` re-decides a statement straight from the definition: the
block tuples must factorize given every conditioning assignment, checked in
exact ``Fraction`` arithmetic over the full outcome grid.  It ignores the
canonical form and builds its marginals from ``p.pmf`` alone, so it shares no
code with ``is_valid``'s integer counts.

``separating_member`` sweeps the witness template family for a pair of
statements: every template at every pivot set drawn from the indices the pair
mentions, plus one fresh index for the parity slot.  It builds each member
through the public ``JointDistribution`` constructor and decides it with
``brute_valid``, so it shares no code with the clause function, with
``template_distribution`` or with ``is_valid``.
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


#: Arity of each witness template; every template is symmetric in its pivots.
TEMPLATE_ARITY = {"SINGLE": 1, "COPY2": 2, "COPY3": 3, "XOR": 3}


def family_distribution(n: int, template: str, pivots) -> JointDistribution:
    """Uniform over the rows that put the template's bits at the pivots, 0 elsewhere."""
    if template == "XOR":
        rows = [(u, v, u ^ v) for u in (0, 1) for v in (0, 1)]
    else:
        rows = [(u,) * len(pivots) for u in (0, 1)]
    pmf = {}
    for bits in rows:
        outcome = [0] * n
        for m, bit in zip(pivots, bits):
            outcome[m - 1] = bit
        pmf[tuple(outcome)] = Fraction(1, len(rows))
    return JointDistribution((2,) * n, pmf)


def template_family(candidates) -> list[tuple[str, tuple[int, ...]]]:
    """Every ``(template, pivot set)`` over the sorted ``candidates``, in a fixed order."""
    return [
        (template, pivots)
        for template, arity in TEMPLATE_ARITY.items()
        for pivots in itertools.combinations(sorted(candidates), arity)
    ]


def separating_member(k: Cmi, k2: Cmi) -> tuple[str, tuple[int, ...]] | None:
    """The first family member that satisfies ``k`` and violates ``k2``, or None."""
    mentioned = set(k.cond) | set(k2.cond) | set().union(*k.blocks, *k2.blocks)
    fresh = [i for i in range(1, k.n + 1) if i not in mentioned][:1]
    for template, pivots in template_family(mentioned.union(fresh)):
        p = family_distribution(k.n, template, pivots)
        if brute_valid(p, k) and not brute_valid(p, k2):
            return template, pivots
    return None

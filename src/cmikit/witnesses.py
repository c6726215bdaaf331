"""Separating distributions for failed implications between CMI statements.

When ``implies(k, k2)`` is false there is always a small counterexample built
from one or two independent uniform bits placed at a handful of pivot
variables (every other variable pinned to 0).  There is no separate planner:
the implication test's clause function names the first failing clause, the
template and its pivots.  The planned distribution is checked against the
exact validity oracle on both statements before it is returned, and a plan
that fails that check is an internal error.  That check erases the constant
variables, so it costs what the 1-3 pivots cost, whatever the ground set.
Template distributions are memoised, so one object, its cached marginals and
its ``is_valid`` verdicts (at most 256, by erased shape) serve every pair that
plans the same template at the same pivots.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

from .distributions import JointDistribution, is_valid
from .statements import COPY2, COPY3, HOLDS, SINGLE, XOR
from .statements import Cmi, _Frozen, _sub_cmi_clause

TEMPLATES = (SINGLE, COPY2, COPY3, XOR)

_ARITY = {SINGLE: 1, COPY2: 2, COPY3: 3, XOR: 3}

#: Distributions kept by ``template_distribution``.  Every ordered pair of the
#: 1,077 canonical classes over 5 variables plans one of 135 distinct
#: ``(n, template, pivots)`` keys, and one 8,000-pair census pass asks for
#: 112-119 of them; all fit.
TEMPLATE_CACHE_SIZE = 256


@lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def template_distribution(n: int, template: str, pivots: tuple[int, ...]) -> JointDistribution:
    """Binary-valued distribution with the named dependence at the pivot variables.

    ``SINGLE``: one uniform bit.  ``COPY2``/``COPY3``: two or three perfect
    copies of one uniform bit.  ``XOR``: two independent uniform bits and
    their parity.  All non-pivot variables are constant 0.  Repeated calls
    with the same arguments return the same (read-only) object, so the
    pivots must be a hashable tuple: a list raises ``TypeError``.
    """
    if template not in _ARITY:
        raise ValueError(f"unknown template {template!r}")
    if len(pivots) != _ARITY[template]:
        raise ValueError(f"{template} takes {_ARITY[template]} pivots, got {len(pivots)}")
    if len(set(pivots)) != len(pivots):
        raise ValueError(f"pivot indices must be distinct, got {pivots}")
    for m in pivots:
        if not 1 <= index(m) <= n:
            raise ValueError(f"pivot index {m} outside the ground set 1..{n}")
    # Binary alphabets pack one bit per variable: a row's code is the mask of its
    # 1-valued pivots.  XOR's rows are (u, v, u ^ v) in itertools.product order.
    bits = [1 << index(m) - 1 for m in pivots]
    if template == XOR:
        u, v, parity = bits
        codes = [0, v | parity, u | parity, u | v]
    else:
        codes = [0, sum(bits)]
    # Every row weighs the same: a uniform pmf over the rows built above.
    return JointDistribution._from_weights((2,) * n, dict.fromkeys(codes, 1), len(codes))


class Witness(_Frozen):
    """A verified separating distribution for the ordered pair ``direction``.

    The distribution satisfies ``direction[0]`` and violates ``direction[1]``.
    Equality is field-wise.
    """

    __slots__ = _fields = ("distribution", "direction", "template", "pivot_indices")

    def __init__(
        self, distribution: JointDistribution, direction: tuple[Cmi, Cmi], template: str, pivot_indices: tuple[int, ...]
    ) -> None:
        # The only slot writer: past the write guard, one slot at a time.
        _set = object.__setattr__
        _set(self, "distribution", distribution)
        _set(self, "direction", direction)
        _set(self, "template", template)
        _set(self, "pivot_indices", pivot_indices)

    def _key(self) -> tuple:
        return self.distribution, self.direction, self.template, self.pivot_indices

    __hash__ = None  # a JointDistribution is unhashable, so a Witness is too


def _try(k: Cmi, k2: Cmi, template: str, pivots: tuple[int, ...]) -> Witness:
    d = template_distribution(k.n, template, pivots)
    if is_valid(d, k) and not is_valid(d, k2):
        return Witness(d, (k, k2), template, pivots)
    raise RuntimeError(
        "internal consistency failure: implication test says no, but no witness verified"
    )


def witness_non_implication(k: Cmi, k2: Cmi) -> Witness:
    """A distribution satisfying ``k`` but not ``k2``; raises if ``k`` implies ``k2``."""
    clause, template, pivots = _sub_cmi_clause(k, k2)
    if clause == HOLDS:
        raise ValueError("implication holds; no separating distribution exists")
    return _try(k, k2, template, pivots)


def witness_non_equivalence(k: Cmi, k2: Cmi) -> Witness:
    """A distribution satisfying one statement but not the other, preferring ``k``
    over ``k2``; raises if they are equivalent (each implies the other)."""
    for premise, conclusion in ((k, k2), (k2, k)):
        clause, template, pivots = _sub_cmi_clause(premise, conclusion)
        if clause != HOLDS:
            return _try(premise, conclusion, template, pivots)
    raise ValueError("the statements are equivalent; no separating distribution exists")

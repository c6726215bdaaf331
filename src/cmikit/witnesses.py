"""Separating distributions for failed implications between CMI statements.

When ``implies(k, k2)`` is false there is always a small counterexample built
from one or two independent uniform bits placed at a handful of pivot
variables (every other variable pinned to 0).  There is no separate planner:
the implication test's clause function names the first failing clause, the
template and its pivots; after a failing ``implies`` on the same two objects
that plan is a lookup, not a second run.  ``witness_non_equivalence`` asks
``implies`` first and builds with ``witness_non_implication`` too.  The planned
distribution is checked against the exact validity oracle on both statements
before it is returned, and a plan that fails that check is an internal error.
That check erases the constant variables, so it costs what the 1-3 pivots cost,
whatever the ground set.  Template distributions are memoised by pivot set,
not pivot order (each template is symmetric in its pivots), so one object, its
cached marginals and its ``is_valid`` verdicts (at most 256, by erased shape)
serve every pair that plans the same template on the same pivots.
"""

from __future__ import annotations

from functools import lru_cache

from .distributions import JointDistribution, is_valid
from .statements import COPY2, COPY3, HOLDS, SINGLE, XOR
from .statements import Cmi, _Frozen, _indices, _mask_of, _sub_cmi_clause, implies

_ARITY = {SINGLE: 1, COPY2: 2, COPY3: 3, XOR: 3}

TEMPLATES = tuple(_ARITY)

#: Keys kept by ``template_distribution``, and distributions kept by its pivot-set
#: cache.  Every ordered pair of the 1,077 canonical classes over 5 variables plans
#: one of 135 ``(n, template, pivots)`` keys on 35 pivot sets (35 distributions);
#: one 8,000-pair census pass asks for 111-121 of the keys; all fit.
TEMPLATE_CACHE_SIZE = 256


@lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def template_distribution(n: int, template: str, pivots: tuple[int, ...]) -> JointDistribution:
    """Binary-valued distribution with the named dependence at the pivot variables.

    ``SINGLE``: one uniform bit.  ``COPY2``/``COPY3``: two or three perfect
    copies of one uniform bit.  ``XOR``: two independent uniform bits and
    their parity, rows in product order of the *sorted* pivots.  All non-pivot
    variables are constant 0.  Each template is symmetric in its pivots, so
    every order of one pivot set returns the same (read-only) object.  The
    pivots must be a hashable tuple: a list raises ``TypeError``.
    """
    if template not in _ARITY:
        raise ValueError(f"unknown template {template!r}")
    if len(pivots) != _ARITY[template]:
        raise ValueError(f"{template} takes {_ARITY[template]} pivots, got {len(pivots)}")
    if len(set(pivots)) != len(pivots):
        raise ValueError(f"pivot indices must be distinct, got {pivots}")
    return _on_pivot_set(n, template, _mask_of(pivots, n, "pivot index"))


@lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _on_pivot_set(n: int, template: str, mask: int) -> JointDistribution:
    # Binary alphabets pack one bit per variable: a row's code is the mask of its
    # 1-valued pivots.  XOR's rows (u, v, u ^ v) in itertools.product order: after
    # the zero row, each clears one pivot of the all-ones mask, lowest first.
    codes = [0, *(mask ^ 1 << i - 1 for i in _indices(mask))] if template == XOR else [0, mask]
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
        # The only slot writer: past the write guard, through the slots' own setters.
        _w_distribution(self, distribution)
        _w_direction(self, direction)
        _w_template(self, template)
        _w_pivots(self, pivot_indices)

    def _key(self) -> tuple:
        return self.distribution, self.direction, self.template, self.pivot_indices

    __hash__ = None  # a JointDistribution is unhashable, so a Witness is too


_w_distribution, _w_direction, _w_template, _w_pivots = Witness._setters()


def witness_non_implication(k: Cmi, k2: Cmi) -> Witness:
    """A distribution satisfying ``k`` but not ``k2``; raises if ``k`` implies ``k2``."""
    clause, template, pivots = _sub_cmi_clause(k, k2)
    if clause == HOLDS:
        raise ValueError("implication holds; no separating distribution exists")
    d = template_distribution(k.n, template, pivots)
    if is_valid(d, k) and not is_valid(d, k2):
        return Witness(d, (k, k2), template, pivots)
    raise RuntimeError(
        "internal consistency failure: implication test says no, but no witness verified"
    )


def witness_non_equivalence(k: Cmi, k2: Cmi) -> Witness:
    """A distribution satisfying one statement but not the other, preferring ``k``
    over ``k2``; raises if they are equivalent (each implies the other)."""
    for premise, conclusion in ((k, k2), (k2, k)):
        if not implies(premise, conclusion):
            return witness_non_implication(premise, conclusion)
    raise ValueError("the statements are equivalent; no separating distribution exists")

"""Differential guard: the integer-count oracle against the definitional decider.

Every drawn (distribution, statement) pair must get the same verdict from
``is_valid`` and from ``brute_valid``, and the float defect ``j_value`` must
agree with it through the tolerance bridge (``|J| <= TOLERANCE`` iff valid).
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracle_reference import brute_valid
from samplers import random_cmi, random_joint
from cmikit import (
    TOLERANCE,
    Cmi,
    JointDistribution,
    canonicalize,
    is_valid,
    j_value,
    template_distribution,
)


def assert_agree(p: JointDistribution, k: Cmi) -> None:
    valid = is_valid(p, k)
    assert valid == brute_valid(p, k), (p.pmf, k)
    assert (abs(j_value(p, k)) <= TOLERANCE) == valid, (p.pmf, k)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_is_valid_matches_brute_force_on_sampled_joints(seed, n):
    rng = random.Random(seed)
    p = random_joint(rng, n, seed)
    assert_agree(p, random_cmi(rng, n))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 5))
def test_the_canonical_form_preserves_validity(seed, n):
    # ``is_valid`` reads the written blocks, so this checks ``canonicalize``
    # against the definitional decider, not against itself.
    rng = random.Random(seed)
    p = random_joint(rng, n, seed)
    k = random_cmi(rng, n)
    assert is_valid(p, k) == is_valid(p, canonicalize(k).as_cmi()) == brute_valid(p, k), (p.pmf, k)


@st.composite
def sixths_pmfs(draw):
    """Pmfs built from sixths over 2 or 3 variables, listing every outcome (zero rows too).

    Products of independent per-variable marginals make valid statements
    common.  Two shapes break them: moving mass between two support points
    shifts the marginals too, while a twist (+d, +d on two points, -d, -d on
    the two points that swap one of their coordinates) keeps every
    single-variable marginal and breaks the factorization only on those four
    cells, so checking a few support points is not enough.  The probabilities
    mix denominators 2, 3, 4, 6, 9, 12, 18, ..., so the common denominator is
    a real lcm.
    """
    n = draw(st.integers(2, 3))
    sizes = tuple(draw(st.integers(1, 3)) for _ in range(n))
    outcomes = list(itertools.product(*(range(s) for s in sizes)))

    def sixths(count):
        cuts = sorted(draw(st.lists(st.integers(0, 6), min_size=count - 1, max_size=count - 1)))
        return [Fraction(b - a, 6) for a, b in zip([0, *cuts], [*cuts, 6])]

    shape = draw(st.sampled_from(("free", "product", "moved", "twisted")))
    if shape == "free":
        return JointDistribution(sizes, dict(zip(outcomes, sixths(len(outcomes)))))
    marginals = [sixths(s) for s in sizes]
    pmf = {o: math.prod((m[s] for m, s in zip(marginals, o)), start=Fraction(1)) for o in outcomes}
    support = [o for o in outcomes if pmf[o]]
    if shape == "moved" and len(support) >= 2:
        a, b = draw(st.lists(st.sampled_from(support), min_size=2, max_size=2, unique=True))
        delta = min(pmf[a], pmf[b]) / 2
        pmf[a] -= delta
        pmf[b] += delta
    corners = [(a, b) for a, b in itertools.combinations(support, 2) if a[0] != b[0] and a[1:] != b[1:]]
    if shape == "twisted" and corners:
        a, b = draw(st.sampled_from(corners))
        c, d = (a[0], *b[1:]), (b[0], *a[1:])
        delta = min(pmf[c], pmf[d]) / 2
        pmf[a] += delta
        pmf[b] += delta
        pmf[c] -= delta
        pmf[d] -= delta
    return JointDistribution(sizes, pmf)


@st.composite
def statements(draw, n):
    """Statements over ``{1..n}``, n >= 2, with two disjoint non-empty blocks at least.

    Two drawn indices seed blocks 1 and 2; every other index goes to the
    condition, to one of three blocks or nowhere.  One index may also join a
    second block, so repeated sets occur too.
    """
    order = draw(st.permutations(range(1, n + 1)))
    roles = {order[0]: 1, order[1]: 2}
    roles.update((i, draw(st.integers(0, 4))) for i in order[2:])
    cond = {i for i, role in roles.items() if role == 0}
    blocks = [{i for i, role in roles.items() if role == b} for b in (1, 2, 3)]
    if draw(st.booleans()):
        blocks[draw(st.integers(0, 2))].add(draw(st.sampled_from(order)))
    return Cmi(n, cond, tuple(blocks))


@settings(max_examples=400, deadline=None)
@given(sixths_pmfs(), st.data())
def test_is_valid_matches_brute_force_on_mixed_denominators(p, data):
    assert_agree(p, data.draw(statements(p.n)))


# --- one conditioning class: an empty or a constant condition -----------------


def one_class(p: JointDistribution, k: Cmi) -> bool:
    """True when the canonical condition of ``k`` takes one value on the support of ``p``."""
    cond = sorted(canonicalize(k).cond)
    return len({tuple(o[i - 1] for i in cond) for o in p.pmf}) == 1


def test_is_valid_matches_brute_force_on_every_small_template():
    rng = random.Random(20261018)
    verdicts = Counter()
    for n in range(1, 5):
        for template, arity in (("SINGLE", 1), ("COPY2", 2), ("COPY3", 3), ("XOR", 3)):
            for pivots in itertools.permutations(range(1, n + 1), arity):
                p = template_distribution(n, template, pivots)
                for _ in range(12):
                    k = random_cmi(rng, n)
                    valid = is_valid(p, k)
                    assert valid == brute_valid(p, k), (template, pivots, k)
                    if len(k.blocks) >= 2:
                        verdicts[one_class(p, k), valid] += 1
    # Both verdicts, with one conditioning class and with several.
    assert min(verdicts[key] for key in itertools.product((True, False), repeat=2)) >= 30, verdicts


@st.composite
def constant_condition_cases(draw):
    """A sixths pmf widened by one constant variable, and a statement on it whose
    condition is empty or that constant variable."""
    p = draw(sixths_pmfs())
    at = draw(st.integers(0, p.n))
    size = draw(st.integers(1, 3))
    value = draw(st.integers(0, size - 1))
    sizes = (*p.alphabet_sizes[:at], size, *p.alphabet_sizes[at:])
    wide = JointDistribution(sizes, {(*o[:at], value, *o[at:]): q for o, q in p.pmf.items()})
    k = draw(statements(p.n))
    shift = lambda s: {i + (i > at) for i in s}
    cond = draw(st.sampled_from((set(), {at + 1})))
    return wide, Cmi(p.n + 1, cond, tuple(shift(b) for b in k.blocks))


@settings(max_examples=300, deadline=None)
@given(constant_condition_cases())
def test_is_valid_matches_brute_force_under_an_empty_or_constant_condition(case):
    p, k = case
    assert one_class(p, k)
    assert_agree(p, k)


# --- variables that are constant on the support ---------------------------------


@st.composite
def constant_variable_cases(draw):
    """A sixths pmf widened by 1-3 constant variables, and a statement that puts
    each constant in the condition, in a block of its own, in one other block,
    in two blocks (so in the repeated set) or nowhere.  A constant has alphabet
    size 1-3 and may sit at any of its symbols."""
    p = draw(sixths_pmfs())
    width = draw(st.integers(1, 3))
    n = p.n + width
    at = draw(st.lists(st.integers(0, n - 1), min_size=width, max_size=width, unique=True))
    sizes = [draw(st.integers(1, 3)) if j in at else None for j in range(n)]
    values = {j: draw(st.integers(0, sizes[j] - 1)) for j in at}
    others = [j for j in range(n) if j not in at]
    for old, j in enumerate(others):
        sizes[j] = p.alphabet_sizes[old]

    def widen(o):
        row = [values.get(j) for j in range(n)]
        for old, j in enumerate(others):
            row[j] = o[old]
        return tuple(row)

    wide = JointDistribution(sizes, {widen(o): q for o, q in p.pmf.items()})
    k = draw(statements(p.n))
    cond = {others[i - 1] + 1 for i in k.cond}
    blocks = [{others[i - 1] + 1 for i in b} for b in k.blocks]
    for j in at:
        role = draw(st.sampled_from(("condition", "own block", "one block", "two blocks", "nowhere")))
        if role == "condition":
            cond.add(j + 1)
        elif role == "own block":
            blocks.append({j + 1})
        elif role == "one block":
            blocks[draw(st.integers(0, len(blocks) - 1))].add(j + 1)
        elif role == "two blocks":
            for b in draw(st.lists(st.sampled_from(blocks), min_size=2, max_size=2, unique_by=id)):
                b.add(j + 1)
    return wide, Cmi(n, cond, tuple(blocks))


@settings(max_examples=400, deadline=None)
@given(constant_variable_cases())
def test_is_valid_matches_brute_force_with_constant_variables_anywhere(case):
    assert_agree(*case)


def test_is_valid_matches_brute_force_on_wide_templates():
    # Statements mention at most 8 of up to 64 indices, the pivots among them.
    rng = random.Random(20261019)
    verdicts = Counter()
    for n in (8, 16, 64):
        for template, arity in (("SINGLE", 1), ("COPY2", 2), ("COPY3", 3), ("XOR", 3)):
            for _ in range(10):
                pivots = tuple(rng.sample(range(1, n + 1), arity))
                p = template_distribution(n, template, pivots)
                mentioned = [*pivots, *rng.sample([i for i in range(1, n + 1) if i not in pivots], 8 - arity)]
                for _ in range(4):
                    pick = lambda chance: {i for i in mentioned if rng.random() < chance}
                    k = Cmi(n, pick(0.2), tuple(pick(0.4) for _ in range(rng.randint(2, 4))))
                    assert_agree(p, k)
                    verdicts[is_valid(p, k)] += 1
    assert min(verdicts[True], verdicts[False]) >= 100, verdicts


def test_hand_built_mixed_denominators_and_zero_rows():
    # X1 uniform and X2 ~ (1/3, 2/3, 0) independent: D = 6, one explicit zero column.
    pmf = {
        (a, b): Fraction(1, 2) * q
        for a in (0, 1)
        for b, q in enumerate((Fraction(1, 3), Fraction(2, 3), Fraction(0)))
    }
    p = JointDistribution((2, 3), pmf)
    assert is_valid(p, Cmi(2, set(), ({1}, {2})))
    # Move 1/6 of mass off the product: still full support at X2 < 2, not independent.
    skewed = dict(pmf)
    skewed[(0, 0)] += Fraction(1, 12)
    skewed[(1, 0)] -= Fraction(1, 12)
    q = JointDistribution((2, 3), skewed)
    assert not is_valid(q, Cmi(2, set(), ({1}, {2})))
    for dist in (p, q):
        for k in (
            Cmi(2, set(), ({1}, {2})),
            Cmi(2, {1}, ({2}, {2})),
            Cmi(2, {2}, ({1}, {1})),
            Cmi(2, set(), ({1, 2}, {1})),
        ):
            assert_agree(dist, k)


def test_empty_ground_set():
    p = JointDistribution((), {(): Fraction(1)})
    for k in (Cmi(0, set(), ()), Cmi(0, set(), (set(), set())), Cmi(0, set(), (set(),) * 3)):
        assert_agree(p, k)
        assert is_valid(p, k)

"""Packed outcome codes: the tuple boundary, field masks and the constancy scan.

A ``JointDistribution`` stores each support point as one ``int`` with a
fixed-width bit field per variable.  These tests pin that storage to plain
tuple arithmetic: the ``pmf`` view, ``marginal``, equality across every way
of building a distribution, ``is_valid`` on 128-bit codes, and the set of
variables ``is_valid`` may erase, with alphabet sizes that are not powers of
two.
"""

import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracle_reference import brute_valid
from cmikit import (
    Cmi,
    JointDistribution,
    is_valid,
    parse_distribution,
    random_distribution,
    render_distribution,
)
from cmikit.distributions import _fields


@st.composite
def small_pmfs(draw, min_n=0, max_n=4):
    """``(sizes, pmf)`` with alphabet sizes 1-5 and zero rows; the pmf is not reduced."""
    n = draw(st.integers(min_n, max_n))
    sizes = tuple(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    grid = list(itertools.product(*(range(s) for s in sizes)))
    support = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.integers(0, 6), min_size=len(support), max_size=len(support)))
    weights[0] = weights[0] or 1
    total = sum(weights)
    return sizes, {o: Fraction(w, total) for o, w in zip(support, weights)}


def reference_marginal(pmf, key):
    out = {}
    for outcome, q in pmf.items():
        sub = tuple(outcome[i - 1] for i in key)
        out[sub] = out.get(sub, Fraction(0)) + q
    return out


def reference_live(n, support):
    """The variables that take two or more values on ``support``, as a mask."""
    return sum(1 << i for i in range(n) if len({o[i] for o in support}) > 1)


@settings(max_examples=200, deadline=None)
@given(small_pmfs(), st.randoms(use_true_random=False))
def test_pmf_and_marginals_match_tuple_arithmetic(case, rng):
    sizes, pmf = case
    reduced = {o: q for o, q in pmf.items() if q}
    p = JointDistribution(sizes, pmf)
    assert list(p.pmf.items()) == list(reduced.items())
    assert dict(p.pmf) == reduced and len(p.pmf) == len(reduced)
    assert p._live == reference_live(len(sizes), reduced)
    for r in range(len(sizes) + 1):
        for key in itertools.combinations(range(1, len(sizes) + 1), r):
            indices = list(key)
            rng.shuffle(indices)
            # Same keys, values and first-appearance order as the tuple reference.
            assert list(p.marginal(indices).items()) == list(reference_marginal(reduced, key).items())


@settings(max_examples=100, deadline=None)
@given(small_pmfs())
def test_pmf_items_and_values_match_lookups_in_order(case):
    # items() and values() build each Fraction from its weight; lookups pack the tuple.
    p = JointDistribution(*case)
    looked_up = [(o, p.pmf[o]) for o in p.pmf]
    assert list(p.pmf.items()) == looked_up
    assert list(p.pmf.values()) == [q for _, q in looked_up]
    assert len(p.pmf.items()) == len(p.pmf.values()) == len(looked_up)
    assert looked_up[0] in p.pmf.items() and looked_up[0][1] in p.pmf.values()
    assert p.pmf.items() == dict(looked_up).items()
    assert repr(p.pmf) == repr(dict(looked_up))


@settings(max_examples=100, deadline=None)
@given(small_pmfs(min_n=1), st.randoms(use_true_random=False))
def test_equality_agrees_across_every_constructor(case, rng):
    # The text format declares at least one variable.
    sizes, pmf = case
    p = JointDistribution(sizes, pmf)
    # Hand-written text: rows shuffled, fractions not in lowest terms, zero rows kept.
    rows = list(pmf.items())
    rng.shuffle(rows)
    header = "vars: " + " ".join(f"V{i}:{s}" for i, s in enumerate(sizes, start=1))
    lines = [header] + [
        " ".join(map(str, o)) + f" : {3 * q.numerator}/{3 * q.denominator}" for o, q in rows
    ]
    by_hand = parse_distribution("\n".join(lines) + "\n")
    assert p == by_hand == parse_distribution(render_distribution(p))
    assert p == JointDistribution(sizes, dict(rows))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 4), min_size=1, max_size=4), st.sampled_from((1, 3, 16)))
def test_random_distribution_equals_its_other_builds(seed, sizes, grain):
    p = random_distribution(len(sizes), sizes, seed=seed, mass_grain=grain)
    assert p == JointDistribution(sizes, dict(p.pmf)) == parse_distribution(render_distribution(p))
    grid = list(itertools.product(*(range(s) for s in sizes)))
    assert set(p.pmf) <= set(grid)


def test_pmf_lookup_rejects_what_is_not_an_outcome():
    p = JointDistribution((3, 2), {(0, 1): Fraction(1, 2), (2, 0): Fraction(1, 2)})
    assert p.pmf[(0, 1)] == p.pmf[(2, 0)] == Fraction(1, 2)
    # (4, 0) packs to the code of (0, 1), and (3, 0) to that of (1, 1) when the
    # first field is one bit narrow; a range check must refuse both.
    for bad in [(3, 0), (4, 0), (-1, 0), (0, 2), (0,), (0, 1, 0), [0, 1], "01", 1, ("0", 1)]:
        with pytest.raises(KeyError):
            p.pmf[bad]
        assert bad not in p.pmf and p.pmf.get(bad) is None
    with pytest.raises(KeyError):
        p.pmf[(1, 1)]  # a valid outcome off the support


def test_field_masks_cover_each_variable_of_the_mask():
    assert _fields(0b101, 3) == 0b111_000_111
    assert _fields(0b110, 2) == 0b11_11_00
    assert _fields(0b1, 1) == 1 and _fields(0, 4) == 0
    assert _fields(1 << 63, 2) == 0b11 << 126


def test_live_does_not_depend_on_row_order():
    # In itertools.product order variable 2 first changes at row 257.
    sizes = (1,) + (2,) * 9
    rows = list(itertools.product(*(range(s) for s in sizes)))
    shuffled = rows[:]
    random.Random(512).shuffle(shuffled)
    ordered = JointDistribution(sizes, dict.fromkeys(rows, Fraction(1, 512)))
    mixed = JointDistribution(sizes, dict.fromkeys(shuffled, Fraction(1, 512)))
    assert ordered == mixed
    assert ordered._live == mixed._live == reference_live(10, rows) == 0b11_1111_1110


@pytest.mark.parametrize("sizes", [(3, 1, 3, 2), (1, 1, 5), (5, 3, 1)])
def test_live_matches_a_set_reference_on_sub_supports(sizes):
    rng = random.Random(sum(sizes))
    grid = list(itertools.product(*(range(s) for s in sizes)))
    for _ in range(50):
        support = rng.sample(grid, rng.randint(1, len(grid)))
        p = JointDistribution(sizes, dict.fromkeys(support, Fraction(1, len(support))))
        assert p._live == reference_live(len(sizes), support)


def test_pmf_view_holds_no_reference_to_its_distribution():
    class Probe(JointDistribution):  # a subclass without __slots__ can be weakly referenced
        pass

    gc.disable()
    try:
        d = Probe((3, 2), {(0, 1): Fraction(1, 2), (2, 0): Fraction(1, 2)})
        view, ref = d.pmf, weakref.ref(d)
        del d
        assert ref() is None  # freed by reference counting alone: no cycle
        assert dict(view) == {(0, 1): Fraction(1, 2), (2, 0): Fraction(1, 2)}
    finally:
        gc.enable()


def test_is_valid_on_wide_sparse_codes_matches_brute_force():
    # 64 variables at alphabet 3 pack into 128-bit codes.  Variables 4j+1 and
    # 4j+2 carry two independent trits u and v, 4j+3 carries (u + v) % 3 and
    # 4j+4 the constant 2, so statements both hold and fail.
    n, rng = 64, random.Random(64)
    pmf = {}
    for u, v in itertools.product(range(3), repeat=2):
        outcome = tuple((u, v, (u + v) % 3, 2)[i % 4] for i in range(n))
        pmf[outcome] = Fraction(1, 9)
    planted = JointDistribution((3,) * n, pmf)
    noisy_rows = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(12)]
    noisy = JointDistribution((3,) * n, dict.fromkeys(noisy_rows, Fraction(1, 12)))
    assert planted._live == sum(0b0111 << 4 * j for j in range(16))
    outcomes = {True: 0, False: 0}
    for p in (planted, noisy):
        for _ in range(150):
            mentioned = rng.sample(range(1, n + 1), rng.randint(2, 6))
            cond = frozenset(i for i in mentioned[2:] if rng.random() < 0.4)
            rest = [i for i in mentioned if i not in cond]
            blocks = [frozenset(rest[j::2]) for j in range(2)]
            if rng.random() < 0.3:
                blocks.append(blocks[0])
            k = Cmi(n, cond, tuple(blocks))
            verdict = is_valid(p, k)
            assert verdict == brute_valid(p, k), k
            outcomes[verdict] += 1
    assert min(outcomes.values()) > 20

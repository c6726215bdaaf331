"""Exact-distribution oracle tests: entropies, the defect functional, validity."""

import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracle_reference import fraction_marginal
from samplers import random_cmi, random_joint
from cmikit import (
    Cmi,
    JointDistribution,
    TOLERANCE,
    cond_entropy,
    cond_mutual_info,
    entropy,
    is_valid,
    j_value,
    parse_distribution,
    random_distribution,
    render_distribution,
)
from cmikit.distributions import MARGINAL_CACHE_SIZE

UNIFORM_BIT = JointDistribution((2,), {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
COPY2 = JointDistribution(
    (2, 2), {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
)
# Two independent bits and their parity: every variable is uniform, every
# pair is uniform, but the triple has only two bits of entropy.
XOR3 = JointDistribution(
    (2, 2, 2),
    {
        (0, 0, 0): Fraction(1, 4),
        (0, 1, 1): Fraction(1, 4),
        (1, 0, 1): Fraction(1, 4),
        (1, 1, 0): Fraction(1, 4),
    },
)


def test_constructor_validates_and_normalizes():
    with pytest.raises(ValueError, match="sum to exactly 1"):
        JointDistribution((2,), {(0,): Fraction(1, 3)})
    with pytest.raises(ValueError, match="negative"):
        JointDistribution((2,), {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})
    with pytest.raises(ValueError, match="arity"):
        JointDistribution((2, 2), {(0,): Fraction(1)})
    with pytest.raises(ValueError, match="alphabet"):
        JointDistribution((2,), {(2,): Fraction(1)})
    with pytest.raises(ValueError, match=">= 1"):
        JointDistribution((0,), {})
    # Zero-probability rows vanish from the stored support.
    p = JointDistribution((2,), {(0,): Fraction(1), (1,): Fraction(0)})
    assert p.pmf == {(0,): Fraction(1)}


def test_equality_compares_exact_pmfs():
    assert COPY2 == JointDistribution((2, 2), {(1, 1): Fraction(1, 2), (0, 0): Fraction(1, 2)})
    assert COPY2 != XOR3
    assert COPY2 != JointDistribution((2, 2), {(0, 0): Fraction(1, 4), (1, 1): Fraction(3, 4)})


def test_marginal_sums_out_and_keys_by_sorted_index():
    m = XOR3.marginal({3, 1})
    assert m == XOR3.marginal([1, 3])
    assert m == {
        (0, 0): Fraction(1, 4),
        (0, 1): Fraction(1, 4),
        (1, 0): Fraction(1, 4),
        (1, 1): Fraction(1, 4),
    }
    assert XOR3.marginal(()) == {(): Fraction(1)}
    with pytest.raises(ValueError, match="ground set"):
        XOR3.marginal({4})


def test_entropy_frozen_values():
    assert entropy(UNIFORM_BIT, {1}) == 1.0
    assert entropy(XOR3, ()) == 0.0
    for s in ({1}, {2}, {3}):
        assert entropy(XOR3, s) == pytest.approx(1.0, abs=1e-12)
    for s in ({1, 2}, {1, 3}, {2, 3}, {1, 2, 3}):
        assert entropy(XOR3, s) == pytest.approx(2.0, abs=1e-12)
    biased = JointDistribution((2,), {(0,): Fraction(1, 4), (1,): Fraction(3, 4)})
    assert entropy(biased, {1}) == pytest.approx(0.8112781244591328, abs=1e-12)
    third = JointDistribution((2,), {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    assert entropy(third, {1}) == pytest.approx(0.9182958340544896, abs=1e-12)


def test_entropy_of_point_mass_is_plus_zero():
    point = JointDistribution((2, 2), {(1, 0): Fraction(1)})
    h = entropy(point, {1, 2})
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_cond_entropy_and_cmi_frozen_values():
    assert cond_entropy(COPY2, {2}, {1}) == pytest.approx(0.0, abs=1e-12)
    assert cond_entropy(XOR3, {3}, {1, 2}) == pytest.approx(0.0, abs=1e-12)
    assert cond_entropy(XOR3, {2, 3}, {1}) == pytest.approx(1.0, abs=1e-12)
    assert cond_mutual_info(XOR3, {1}, {2}) == pytest.approx(0.0, abs=1e-12)
    assert cond_mutual_info(XOR3, {1}, {2}, {3}) == pytest.approx(1.0, abs=1e-12)
    assert cond_mutual_info(COPY2, {1}, {2}) == pytest.approx(1.0, abs=1e-12)


def test_j_value_frozen_values():
    assert j_value(COPY2, Cmi(2, set(), ({1}, {2}))) == pytest.approx(1.0, abs=1e-12)
    assert j_value(XOR3, Cmi(3, set(), ({1}, {2}))) == pytest.approx(0.0, abs=1e-12)
    assert j_value(XOR3, Cmi(3, {3}, ({1}, {2}))) == pytest.approx(1.0, abs=1e-12)
    assert j_value(XOR3, Cmi(3, set(), ({1}, {2}, {3}))) == pytest.approx(1.0, abs=1e-12)
    # Overlapping blocks double-count their intersection's entropy.
    assert j_value(XOR3, Cmi(3, set(), ({1, 2}, {2, 3}))) == pytest.approx(2.0, abs=1e-12)


def test_j_value_is_exactly_zero_below_two_blocks():
    assert j_value(COPY2, Cmi(2, set(), ())) == 0.0
    assert j_value(COPY2, Cmi(2, {1}, ({1, 2},))) == 0.0


def test_j_value_requires_matching_ground_set():
    with pytest.raises(ValueError, match="ground set"):
        j_value(COPY2, Cmi(3, set(), ({1}, {2})))


def test_is_valid_factorization_cases():
    uniform2 = JointDistribution(
        (2, 2), {(a, b): Fraction(1, 4) for a in (0, 1) for b in (0, 1)}
    )
    assert is_valid(uniform2, Cmi(2, set(), ({1}, {2})))
    assert not is_valid(COPY2, Cmi(2, set(), ({1}, {2})))
    assert is_valid(XOR3, Cmi(3, set(), ({1}, {2})))
    assert not is_valid(XOR3, Cmi(3, {3}, ({1}, {2})))
    assert not is_valid(XOR3, Cmi(3, set(), ({1}, {2}, {3})))
    assert not is_valid(XOR3, Cmi(3, set(), ({1, 2}, {3})))


def test_is_valid_functional_dependence_cases():
    # X2 is a copy of X1: pinned by {1}, not by nothing.
    assert is_valid(COPY2, Cmi(2, {1}, ({2}, {2})))
    assert not is_valid(COPY2, Cmi(2, set(), ({2}, {2})))
    assert not is_valid(COPY2, Cmi(2, set(), ({1, 2}, {1, 2})))
    assert is_valid(XOR3, Cmi(3, {1, 2}, ({3}, {3})))
    assert not is_valid(XOR3, Cmi(3, {1}, ({3}, {3})))


def test_is_valid_mixed_repeated_and_parts():
    # X1 uniform, X2 = X1, X3 an independent bit.
    p = JointDistribution(
        (2, 2, 2),
        {
            (0, 0, 0): Fraction(1, 4),
            (0, 0, 1): Fraction(1, 4),
            (1, 1, 0): Fraction(1, 4),
            (1, 1, 1): Fraction(1, 4),
        },
    )
    assert is_valid(p, Cmi(3, {1}, ({2}, {2})))
    assert is_valid(p, Cmi(3, set(), ({1, 2}, {3})))
    assert is_valid(p, Cmi(3, {1}, ({2, 1}, {3})))
    assert not is_valid(p, Cmi(3, set(), ({1}, {2})))
    assert not is_valid(p, Cmi(3, {3}, ({1}, {2})))


def test_is_valid_degenerate_and_trivial_alphabets():
    assert is_valid(COPY2, Cmi(2, set(), ()))
    assert is_valid(COPY2, Cmi(2, {2}, ({1, 2},)))
    one = JointDistribution((1, 3), {(0, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})
    # A size-1 variable is independent of everything.
    assert is_valid(one, Cmi(2, set(), ({1}, {2})))
    assert not is_valid(one, Cmi(2, set(), ({2}, {2})))


def test_is_valid_requires_matching_ground_set():
    with pytest.raises(ValueError, match="ground set"):
        is_valid(COPY2, Cmi(3, set(), ()))


def test_random_distribution_is_deterministic_and_exact():
    a = random_distribution(3, (2, 3, 2), seed=11, mass_grain=16)
    b = random_distribution(3, (2, 3, 2), seed=11, mass_grain=16)
    assert a == b
    assert sum(a.pmf.values(), Fraction(0)) == 1
    assert all(q.denominator <= 16 for q in a.pmf.values())
    assert a != random_distribution(3, (2, 3, 2), seed=12, mass_grain=16)


def test_random_distribution_grain_one_is_point_mass():
    p = random_distribution(2, (4, 4), seed=5, mass_grain=1)
    assert list(p.pmf.values()) == [Fraction(1)]


def test_random_distribution_validates_bounds():
    with pytest.raises(ValueError, match="n in 0..8"):
        random_distribution(9, (2,) * 9, seed=0)
    with pytest.raises(ValueError, match="alphabet sizes"):
        random_distribution(1, (5,), seed=0)
    with pytest.raises(ValueError, match="mass_grain"):
        random_distribution(1, (2,), seed=0, mass_grain=0)
    with pytest.raises(ValueError, match="expected 2"):
        random_distribution(2, (2,), seed=0)
    assert random_distribution(0, (), seed=0).pmf == {(): Fraction(1)}


def test_tolerance_is_pinned():
    assert TOLERANCE == 1e-9


@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from((1, 2, 4, 16)))
def test_entropy_is_nonnegative_and_monotone(seed, n, grain):
    sizes = tuple(2 + (seed + i) % 3 for i in range(n))
    p = random_distribution(n, sizes, seed=seed, mass_grain=grain)
    ground = frozenset(range(1, n + 1))
    h_all = entropy(p, ground)
    for i in range(1, n + 1):
        sub = ground - {i}
        assert 0.0 <= entropy(p, sub) <= h_all + TOLERANCE


@given(st.integers(0, 10_000))
def test_conditioning_never_raises_entropy(seed):
    p = random_distribution(3, (2, 2, 3), seed=seed, mass_grain=8)
    assert cond_entropy(p, {1}, {2, 3}) <= cond_entropy(p, {1}, {2}) + TOLERANCE
    assert cond_entropy(p, {1}, {2}) <= entropy(p, {1}) + TOLERANCE


# --- the integer-weight representation ---------------------------------------


def reference_entropy(p, indices):
    """Entropy as the Fraction oracle computed it: float(Fraction) per marginal cell."""
    total = 0.0
    for prob in fraction_marginal(p, tuple(sorted(set(indices)))).values():
        q = float(prob)
        total -= q * math.log2(q)
    return total + 0.0


def test_reducible_and_reduced_inputs_are_equal():
    halves = JointDistribution((2,), {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    quarters = parse_distribution("vars: A:2\n0 : 2/4\n1 : 2/4\n")
    assert quarters == halves
    assert quarters.pmf == halves.pmf == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    # Counts over the grain are reduced too: four unit masses on one point.
    point = random_distribution(1, (1,), seed=0, mass_grain=4)
    assert point == JointDistribution((1,), {(0,): 1})
    assert point.pmf == {(0,): Fraction(1)}


def test_pmf_values_are_fractions_in_lowest_terms():
    p = parse_distribution("vars: A:2 B:3\n0 0 : 2/12\n0 1 : 3/9\n0 2 : 0/7\n1 1 : 4/8\n")
    assert p.pmf == {(0, 0): Fraction(1, 6), (0, 1): Fraction(1, 3), (1, 1): Fraction(1, 2)}
    for q in p.pmf.values():
        assert type(q) is Fraction and math.gcd(q.numerator, q.denominator) == 1
    assert len(p.pmf) == 3 and list(p.pmf) == [(0, 0), (0, 1), (1, 1)]
    with pytest.raises(TypeError):
        p.pmf[(0, 0)] = Fraction(1)  # type: ignore[index]


@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_marginal_matches_fraction_reference(seed, n):
    rng = random.Random(seed)
    p = random_joint(rng, n, seed)
    for key in itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), r) for r in range(n + 1)
    ):
        m = p.marginal(key)
        assert m == fraction_marginal(p, key)
        assert all(type(q) is Fraction for q in m.values())


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_float_measures_are_bit_identical_to_fraction_floats(seed, n):
    rng = random.Random(seed)
    p = random_joint(rng, n, seed)
    ground = range(1, n + 1)
    a, b, c = (frozenset(i for i in ground if rng.random() < 0.5) for _ in range(3))
    assert entropy(p, a).hex() == reference_entropy(p, a).hex()
    expected_cmi = (
        reference_entropy(p, a | c)
        + reference_entropy(p, b | c)
        - reference_entropy(p, a | b | c)
        - reference_entropy(p, c)
    )
    assert cond_mutual_info(p, a, b, c).hex() == expected_cmi.hex()
    k = random_cmi(rng, n)
    if len(k.blocks) >= 2:
        ref_h = lambda s: reference_entropy(p, s | k.cond) - reference_entropy(p, k.cond)
        expected_j = -ref_h(frozenset().union(*k.blocks))
        for block in k.blocks:
            expected_j += ref_h(block)
        assert j_value(p, k).hex() == (expected_j + 0.0).hex()


def test_support_precheck_rejects_a_missing_combination():
    # Given X3 = 1, X1 and X2 are independent bits; given X3 = 0, X2 copies X1,
    # so the joint support there has 2 of the 2 x 2 part combinations.
    pmf = {(a, a, 0): Fraction(1, 4) for a in (0, 1)}
    pmf.update({(a, b, 1): Fraction(1, 8) for a in (0, 1) for b in (0, 1)})
    p = JointDistribution((2, 2, 2), pmf)
    assert not is_valid(p, Cmi(3, {3}, ({1}, {2})))
    # Restricted to the independent slice, the same statement holds.
    slice_ = JointDistribution((2, 2, 2), {o: 2 * q for o, q in pmf.items() if o[2] == 1})
    assert is_valid(slice_, Cmi(3, {3}, ({1}, {2})))


def test_render_distribution_is_byte_identical_for_mixed_denominators():
    text = "vars: A:2 B:3\n1 2 : 1/4\n0 0 : 2/12\n0 1 : 0/5\n0 2 : 5/12\n1 0 : 1/6\n"
    assert render_distribution(parse_distribution(text)) == (
        "vars: X1:2 X2:3\n"
        "0 0 : 1/6\n"
        "0 2 : 5/12\n"
        "1 0 : 1/6\n"
        "1 2 : 1/4\n"
    )


# int() would truncate each bad value to 1, a valid size, symbol and index.
@pytest.mark.parametrize("bad", [1.9, "1", Fraction(3, 2)], ids=["float", "str", "Fraction"])
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda x: JointDistribution([2, x], {(0, 0): 1}), id="sizes"),
        pytest.param(lambda x: JointDistribution([2, 2], {(x, 0): 1}), id="symbols"),
        pytest.param(lambda x: COPY2.marginal([x]), id="marginal"),
        pytest.param(lambda x: entropy(COPY2, [x]), id="entropy"),
        pytest.param(lambda x: cond_entropy(COPY2, [1], [x]), id="cond-entropy"),
        pytest.param(lambda x: random_distribution(2, [2, x], 0), id="random-sizes"),
    ],
)
def test_non_integral_sizes_symbols_and_indices_raise_type_error(build, bad):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build(bad)


def test_j_value_sums_its_terms_in_written_block_order():
    # Float addition does not associate: on some of these statements another
    # order of the same terms changes the last bits.
    rng = random.Random(7)
    for seed in range(300):
        n = rng.randint(3, 6)
        p = random_distribution(n, [rng.randint(2, 3) for _ in range(n)], seed, rng.choice((3, 7, 64)))
        k = random_cmi(rng, n, 5)
        if len(k.blocks) < 2:
            continue
        ref_h = lambda s: reference_entropy(p, s | k.cond) - reference_entropy(p, k.cond)
        expected = -ref_h(frozenset().union(*k.blocks))
        for block in k.blocks:
            expected += ref_h(block)
        assert j_value(p, k).hex() == (expected + 0.0).hex()


def fresh_copy(p):
    """The same pmf in a new object, with no cached marginal and no memoised verdict."""
    return JointDistribution(p.alphabet_sizes, p.pmf)


# x1, x2 and c are independent uniform bits; x3 = x5 = c and x4 = x1 ^ x2.
MEMO = JointDistribution(
    (2,) * 5, {(a, b, c, a ^ b, c): Fraction(1, 8) for a in (0, 1) for b in (0, 1) for c in (0, 1)}
)


@pytest.mark.parametrize(
    "holds, fails",
    [
        pytest.param(Cmi(5, {5}, ({1, 3}, {2, 3})), Cmi(5, {5}, ({1, 4}, {2, 4})), id="rep"),
        pytest.param(Cmi(5, {5}, ({3}, {1, 2})), Cmi(5, {5}, ({4}, {1, 2})), id="first-part"),
        pytest.param(Cmi(5, {5}, ({1}, {2, 3})), Cmi(5, {5}, ({1}, {2, 4})), id="last-part"),
        pytest.param(Cmi(5, set(), ({1}, {2})), Cmi(5, {4}, ({1}, {2})), id="cond"),
        pytest.param(Cmi(5, {5}, ({1}, {2})), Cmi(5, {5}, ({1}, {2}, {2})), id="multiplicity"),
    ],
)
def test_verdict_memo_tells_apart_shapes_that_differ_in_one_place(holds, fails):
    # As written, each pair differs only in an index two blocks share, in its
    # first or last block, in how often a block is written, or in its
    # condition, and every variable is live.  A memo key that left that out
    # would give the second statement asked the first one's verdict.
    for first, second in ((holds, fails), (fails, holds)):
        p = fresh_copy(MEMO)
        for k in (first, second, first, second):
            assert is_valid(p, k) == is_valid(fresh_copy(MEMO), k) == (k is holds)
        assert len(p._verdicts) == 2


def test_verdict_memo_stays_bounded_and_agrees_across_threads():
    p = random_distribution(8, (2,) * 8, seed=8, mass_grain=64)
    assert all(len(p.marginal([i])) == 2 for i in range(1, 9))  # nothing is erased
    rng = random.Random(8)
    shapes, sizes = set(), []
    for _ in range(1000):
        k = random_cmi(rng, 8)
        assert is_valid(p, k) == is_valid(fresh_copy(p), k)
        blocks = tuple(b - k.cond for b in k.blocks if b - k.cond)  # the memo's key: no constant to erase
        if len(blocks) >= 2:  # fewer blocks hold without a walk
            shapes.add((k.cond, *blocks))
        sizes.append(len(p._verdicts))
    assert len(shapes) > MARGINAL_CACHE_SIZE
    assert max(sizes) <= MARGINAL_CACHE_SIZE
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # it dropped back at least once
    # Four threads share one distribution: most calls add a verdict or a
    # marginal while others read them, and the memo drops back under them.
    shared = random_distribution(8, (2,) * 8, seed=9, mass_grain=64)
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                k = random_cmi(rng, 8)
                assert is_valid(shared, k) == is_valid(fresh_copy(shared), k)
        except Exception as exc:  # reported below, with the thread's seed
            errors.append((seed, repr(exc)))

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_j_value_is_bit_identical_whatever_was_asked_before():
    # Every marginal keeps its keys in first-occurrence order of the full
    # table, whichever cached table it was summed out of, so the float sums
    # do not depend on the queries a distribution answered earlier.
    rng = random.Random(11)
    for seed in range(300):
        n = rng.randint(2, 8)
        p = random_distribution(n, [rng.randint(1, 4) for _ in range(n)], seed, rng.choice((3, 7, 64, 256)))
        used = fresh_copy(p)
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.5:
                is_valid(used, random_cmi(rng, n))
            else:
                entropy(used, {i for i in range(1, n + 1) if rng.random() < 0.5})
        for _ in range(4):
            k = random_cmi(rng, n, 5)
            assert j_value(used, k).hex() == j_value(fresh_copy(p), k).hex()

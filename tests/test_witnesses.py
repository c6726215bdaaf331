"""Counterexample construction: template contents, planner cases, determinism."""

import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import cmikit.witnesses
from oracle_reference import separating_member
from samplers import random_cmi, wide_pairs
from cmikit import (
    Cmi,
    JointDistribution,
    Witness,
    canonicalize,
    entropy,
    implies,
    is_valid,
    template_distribution,
    witness_non_equivalence,
    witness_non_implication,
)
from cmikit.cli import main
from cmikit.distributions import MARGINAL_CACHE_SIZE
from cmikit.statements import _sub_cmi_clause


def separated(k, k2):
    w = witness_non_implication(k, k2)
    assert w.direction == (k, k2)
    assert w.distribution.alphabet_sizes == (2,) * k.n
    assert is_valid(w.distribution, k)
    assert not is_valid(w.distribution, k2)
    return w


def test_template_distribution_contents():
    single = template_distribution(3, "SINGLE", (2,))
    assert single.pmf == {(0, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(1, 2)}
    copy3 = template_distribution(3, "COPY3", (1, 2, 3))
    assert copy3.pmf == {(0, 0, 0): Fraction(1, 2), (1, 1, 1): Fraction(1, 2)}
    xor = template_distribution(4, "XOR", (1, 2, 4))
    assert xor.pmf == {
        (0, 0, 0, 0): Fraction(1, 4),
        (0, 1, 0, 1): Fraction(1, 4),
        (1, 0, 0, 1): Fraction(1, 4),
        (1, 1, 0, 0): Fraction(1, 4),
    }
    assert xor == JointDistribution((2,) * 4, dict(xor.pmf))  # the same packed codes


def test_template_distribution_validates_arguments():
    for _ in range(2):  # the memo caches no exception: every call raises
        with pytest.raises(ValueError, match="unknown template"):
            template_distribution(2, "PARITY", (1,))
        with pytest.raises(ValueError, match="takes 2 pivots"):
            template_distribution(3, "COPY2", (1, 2, 3))
        with pytest.raises(ValueError, match="distinct"):
            template_distribution(3, "COPY2", (1, 1))
        with pytest.raises(ValueError, match="ground set"):
            template_distribution(2, "COPY2", (1, 3))


def test_template_distribution_is_memoised():
    d = template_distribution(5, "XOR", (1, 3, 5))
    hits = template_distribution.cache_info().hits
    assert template_distribution(5, "XOR", (1, 3, 5)) is d
    assert template_distribution.cache_info().hits == hits + 1


def test_degenerate_premise_against_functional_dependence():
    w = separated(Cmi(2, set(), ()), Cmi(2, set(), ({1}, {1})))
    assert (w.template, w.pivot_indices) == ("SINGLE", (1,))


def test_degenerate_premise_against_factorization():
    w = separated(Cmi(2, set(), ({1, 2},)), Cmi(2, set(), ({1}, {2})))
    assert (w.template, w.pivot_indices) == ("COPY2", (1, 2))


def test_dropped_condition_with_pivot_in_repeated_set():
    w = separated(Cmi(3, {1}, ({2}, {3})), Cmi(3, set(), ({1}, {1})))
    assert (w.template, w.pivot_indices) == ("SINGLE", (1,))


def test_dropped_condition_against_repeated_set():
    w = separated(Cmi(3, {1}, ({2}, {3})), Cmi(3, set(), ({2}, {2})))
    assert (w.template, w.pivot_indices) == ("COPY2", (1, 2))


def test_dropped_condition_with_pivot_inside_a_part():
    w = separated(Cmi(3, {1}, ({2}, {3})), Cmi(3, set(), ({1}, {2})))
    assert (w.template, w.pivot_indices) == ("COPY2", (1, 2))


def test_dropped_condition_with_unmentioned_pivot():
    w = separated(Cmi(3, {1}, ({2}, {3})), Cmi(3, set(), ({2}, {3})))
    assert (w.template, w.pivot_indices) == ("COPY3", (1, 2, 3))


def test_unpinned_repeated_index():
    w = separated(Cmi(3, set(), ({1}, {2})), Cmi(3, set(), ({1}, {1})))
    assert (w.template, w.pivot_indices) == ("SINGLE", (1,))


def test_conclusion_part_outside_premise_parts():
    w = separated(Cmi(3, set(), ({1}, {2})), Cmi(3, set(), ({1}, {3})))
    assert (w.template, w.pivot_indices) == ("COPY2", (3, 1))


def test_extra_condition_inside_one_premise_part():
    # Both leading conclusion parts sit in the same premise block, so tying
    # them together stays consistent with the premise.
    w = separated(Cmi(4, set(), ({1, 2}, {3})), Cmi(4, {4}, ({1}, {2})))
    assert (w.template, w.pivot_indices) == ("COPY2", (1, 2))


def test_extra_condition_forces_parity_coupling():
    w = separated(Cmi(3, set(), ({1}, {2})), Cmi(3, {3}, ({1}, {2})))
    assert (w.template, w.pivot_indices) == ("XOR", (1, 2, 3))


def test_split_of_a_single_premise_part():
    w = separated(Cmi(3, set(), ({1, 2}, {3})), Cmi(3, set(), ({1}, {2})))
    assert (w.template, w.pivot_indices) == ("COPY2", (1, 2))


def test_witness_refuses_when_implication_holds():
    k = Cmi(3, {1}, ({2}, {3}))
    with pytest.raises(ValueError, match="implication holds"):
        witness_non_implication(k, k)
    with pytest.raises(ValueError, match="implication holds"):
        witness_non_implication(k, Cmi(3, set(), ()))


def test_witness_is_deterministic():
    k, k2 = Cmi(3, set(), ({1}, {2})), Cmi(3, {3}, ({1}, {2}))
    assert witness_non_implication(k, k2) == witness_non_implication(k, k2)


def test_witness_equality_is_field_wise_and_it_is_unhashable():
    k, k2 = Cmi(3, set(), ({1}, {2})), Cmi(3, set(), ({1}, {3}))
    w = witness_non_implication(k, k2)
    d = w.distribution
    assert repr(w) == (
        "Witness(distribution=JointDistribution(sizes=(2, 2, 2), support=2), "
        "direction=(Cmi(n=3, cond=frozenset(), blocks=(frozenset({1}), frozenset({2}))), "
        "Cmi(n=3, cond=frozenset(), blocks=(frozenset({1}), frozenset({3})))), "
        "template='COPY2', pivot_indices=(3, 1))"
    )
    same = Witness(distribution=d, direction=(k, k2), template="COPY2", pivot_indices=(3, 1))
    assert w == same and w == witness_non_implication(k, k2)
    # An equal distribution that is a different object still compares equal.
    assert w == Witness(template_distribution.__wrapped__(3, "COPY2", (3, 1)), (k, k2), "COPY2", (3, 1))
    assert w != Witness(template_distribution(3, "COPY2", (2, 1)), (k, k2), "COPY2", (3, 1))
    assert w != Witness(d, (k2, k), "COPY2", (3, 1))
    assert w != Witness(d, (k, k2), "COPY3", (3, 1))
    assert w != Witness(d, (k, k2), "COPY2", (1, 3))
    assert w.__eq__((d, (k, k2), "COPY2", (3, 1))) is NotImplemented
    with pytest.raises(TypeError):
        hash(w)
    with pytest.raises(AttributeError):
        w.template = "XOR"
    with pytest.raises(AttributeError):
        del w.direction
    assert w == same


def test_value_classes_never_compare_across_classes():
    # The shared equality checks the class before it compares keys.
    k, k2 = Cmi(3, set(), ({1}, {2})), Cmi(3, set(), ({1}, {3}))
    values = (k, canonicalize(k), witness_non_implication(k, k2))
    for a, b in itertools.permutations(values, 2):
        assert a.__eq__(b) is NotImplemented
        assert a != b and not a == b


def test_non_equivalence_prefers_forward_direction():
    k, k2 = Cmi(3, set(), ({1}, {2})), Cmi(3, {3}, ({1}, {2}))
    w = witness_non_equivalence(k, k2)
    assert w.direction == (k, k2)


def test_non_equivalence_falls_back_to_reverse_direction():
    k = Cmi(3, set(), ({1}, {2}, {3}))
    k2 = Cmi(3, set(), ({1, 2}, {3}))
    assert implies(k, k2)
    w = witness_non_equivalence(k, k2)
    assert w.direction == (k2, k)
    assert is_valid(w.distribution, k2)
    assert not is_valid(w.distribution, k)


def test_non_equivalence_refuses_equivalent_statements():
    with pytest.raises(ValueError, match="equivalent"):
        witness_non_equivalence(
            Cmi(3, set(), ({1}, {2})), Cmi(3, set(), ({2}, {1}))
        )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_every_failed_implication_gets_a_verified_witness(seed, n):
    rng = random.Random(seed)
    k, k2 = random_cmi(rng, n), random_cmi(rng, n)
    assume(not implies(k, k2))
    separated(k, k2)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_implication_agrees_with_the_independent_template_sweep(seed, n):
    # The sweep shares no code with the clause function or with is_valid.
    rng = random.Random(seed)
    k, k2 = random_cmi(rng, n), random_cmi(rng, n)
    member = separating_member(k, k2)
    assert implies(k, k2) == (member is None)
    if member is not None:
        separated(k, k2)


def test_a_planned_witness_that_fails_verification_is_an_internal_error(monkeypatch, capsys):
    # The clause function, as the witness functions see it, plans the parity
    # template at pivots where both statements hold; nothing searches around it.
    k, k2 = Cmi(4, set(), ({1}, {2})), Cmi(4, {3}, ({1}, {2}))
    assert _sub_cmi_clause(k, k2)[1:] == ("XOR", (1, 2, 3))
    monkeypatch.setattr(
        cmikit.witnesses, "_sub_cmi_clause", lambda a, b: (*_sub_cmi_clause(a, b)[:2], (2, 3, 4))
    )
    with pytest.raises(RuntimeError, match="no witness verified"):
        witness_non_implication(k, k2)
    with pytest.raises(RuntimeError, match="no witness verified"):
        witness_non_equivalence(k, k2)
    assert main(["implies", "I(1 ; 2)", "I(1 ; 2 | 3)", "--n", "4"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: internal consistency failure: implication test "
                          "says no, but no witness verified\n")


def test_non_equivalence_runs_the_clause_function_at_most_once_per_direction(monkeypatch):
    calls = []

    def clause(a, b):
        calls.append((a, b))
        return _sub_cmi_clause(a, b)

    monkeypatch.setattr(cmikit.witnesses, "_sub_cmi_clause", clause)
    forward = Cmi(3, set(), ({1}, {2})), Cmi(3, {3}, ({1}, {2}))
    reverse = Cmi(3, set(), ({1}, {2}, {3})), Cmi(3, set(), ({1, 2}, {3}))
    same = Cmi(3, set(), ({1}, {2})), Cmi(3, set(), ({2}, {1}))
    for (k, k2), expected in ((forward, [forward]), (reverse, [reverse, reverse[::-1]])):
        calls.clear()
        witness_non_equivalence(k, k2)
        assert calls == expected
    calls.clear()
    with pytest.raises(ValueError, match="equivalent"):
        witness_non_equivalence(*same)
    assert calls == [same, same[::-1]]


@settings(max_examples=10, deadline=None)
@given(st.lists(wide_pairs(), min_size=60, max_size=60))
def test_witness_caches_stay_bounded_up_to_n64(pairs):
    # ``held`` mirrors the template cache's recency order for the keys this
    # test uses, so its last ``maxsize`` entries are all in the cache.
    held = {}
    for k, k2 in pairs:
        if implies(k, k2):
            continue
        w = separated(k, k2)
        key = (k.n, w.template, w.pivot_indices)
        held.pop(key, None)
        held[key] = w.distribution
        assert len(w.distribution._counts) <= MARGINAL_CACHE_SIZE
        info = template_distribution.cache_info()
        assert info.currsize <= info.maxsize
        cached = list(held.values())[-info.maxsize :]
        assert sum(len(d._counts) for d in cached) <= info.maxsize * MARGINAL_CACHE_SIZE


def test_long_lived_template_keeps_a_bounded_marginal_cache():
    # Far more distinct marginals than one distribution may keep, all read
    # from one memoised template over 64 variables.  ``is_valid`` reads only
    # marginals of the 3 pivots, so the entropies of random index sets are
    # what fill the cache; a template that only ``is_valid`` reads keeps at
    # most its 2**3 pivot marginals and its full table.
    d = template_distribution(64, "XOR", (1, 32, 64))
    alone = template_distribution.__wrapped__(64, "XOR", (1, 32, 64))
    rng = random.Random(64)
    sizes = []
    for _ in range(300):
        k = random_cmi(rng, 64)
        fresh = template_distribution.__wrapped__(64, "XOR", (1, 32, 64))
        assert is_valid(d, k) == is_valid(fresh, k) == is_valid(alone, k)
        entropy(d, {i for i in range(1, 65) if rng.random() < 0.5})
        sizes.append(len(d._counts))
        assert len(alone._counts) <= 2**3 + 1
    assert max(sizes) <= MARGINAL_CACHE_SIZE
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # it dropped back at least once
    # More distinct keys than the template cache holds: it stays at its size.
    for pivots in itertools.islice(itertools.permutations(range(1, 65), 2), 300):
        template_distribution(64, "COPY2", pivots)
    info = template_distribution.cache_info()
    assert info.currsize == info.maxsize


def test_threads_share_one_memoised_template_safely():
    # Every thread reads marginals of the same cached distribution over 64
    # variables, so most reads add a table while others search the cache.
    # ``is_valid`` reads only the pivots' few marginals, so each thread also
    # reads marginals of random index sets.
    d = template_distribution(64, "COPY3", (2, 33, 63))
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(400):
                k = random_cmi(rng, 64)
                fresh = template_distribution.__wrapped__(64, "COPY3", (2, 33, 63))
                assert is_valid(d, k) == is_valid(fresh, k)
                for _ in range(2):
                    s = {i for i in range(1, 65) if rng.random() < 0.5}
                    assert d.marginal(s) == fresh.marginal(s)
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


@pytest.mark.parametrize("bad", [1.9, "1", Fraction(3, 2)], ids=["float", "str", "Fraction"])
def test_non_integral_pivots_raise_type_error(bad):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        template_distribution(3, "COPY2", (2, bad))

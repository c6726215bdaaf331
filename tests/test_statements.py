"""Frozen examples for the statement algebra: normal forms, implication, transforms."""

import copy
import gc
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings

from samplers import random_cmi, wide_pairs
import cmikit.statements
from cmikit import (
    CanonicalCmi,
    Cmi,
    canonicalize,
    decompose_to_cis,
    enumerate_canonical,
    equivalent,
    implies,
    is_degenerate,
    is_pure,
    pure_form,
    residual,
    weaken,
    witness_non_implication,
)
from cmikit.statements import _sub_cmi_clause

# The running example used throughout: blocks overlap the condition and each
# other, so every normalization stage does real work.
CHAIN = Cmi(5, {1}, ({1, 2}, {2, 3}, {4}, {5}))


def test_cmi_equality_is_multiset_on_blocks():
    assert Cmi(3, set(), ({1}, {2})) == Cmi(3, set(), ({2}, {1}))
    assert hash(Cmi(3, set(), ({1}, {2}))) == hash(Cmi(3, set(), ({2}, {1})))
    assert Cmi(3, set(), ({1}, {1}, {2})) != Cmi(3, set(), ({1}, {2}))
    assert Cmi(3, {3}, ({1}, {2})) != Cmi(3, set(), ({1}, {2}))
    assert Cmi(4, set(), ({1}, {2})) != Cmi(3, set(), ({1}, {2}))


def test_cmi_validates_indices():
    with pytest.raises(ValueError):
        Cmi(3, {4}, ())
    with pytest.raises(ValueError):
        Cmi(3, set(), ({0},))
    with pytest.raises(ValueError):
        Cmi(-1, set(), ())
    with pytest.raises(ValueError):
        Cmi(65, set(), ())


def test_pure_form_strips_condition_and_empty_blocks():
    assert pure_form(CHAIN) == Cmi(5, {1}, ({2}, {2, 3}, {4}, {5}))
    # Blocks fully inside the condition vanish outright.
    assert pure_form(Cmi(3, {1, 2}, ({1}, {1, 3}, {2}))) == Cmi(3, {1, 2}, ({3},))
    assert pure_form(Cmi(3, set(), (frozenset(), {1}))) == Cmi(3, set(), ({1},))
    p = pure_form(CHAIN)
    assert is_pure(p) and pure_form(p) == p


def test_pure_form_preserves_block_order():
    k = Cmi(4, {1}, ({1, 4}, {1, 2}, {3}))
    assert pure_form(k).blocks == (frozenset({4}), frozenset({2}), frozenset({3}))


def test_repeated_indices_counts_block_positions():
    assert canonicalize(pure_form(CHAIN)).repeated == {2}
    assert canonicalize(Cmi(3, set(), ({1, 2}, {1, 2}))).repeated == {1, 2}
    assert canonicalize(Cmi(3, set(), ({1},))).repeated == frozenset()
    assert canonicalize(Cmi(3, set(), ())).repeated == frozenset()


def test_canonicalize_running_example():
    c = canonicalize(CHAIN)
    assert c == CanonicalCmi(5, {1}, {2}, ({3}, {4}, {5}))
    assert not c.degenerate
    assert c.as_cmi() == Cmi(5, {1}, ({2}, {2}, {3}, {4}, {5}))


def test_canonicalize_few_blocks_is_degenerate():
    assert canonicalize(Cmi(4, {2}, ())) == CanonicalCmi.degenerate_form(4)
    assert canonicalize(Cmi(4, {2}, ({1, 3},))) == CanonicalCmi.degenerate_form(4)
    assert is_degenerate(Cmi(4, {2}, ({1, 3},)))
    assert not is_degenerate(CHAIN)
    assert CanonicalCmi.degenerate_form(4).as_cmi() == Cmi(4, set(), ())


def test_canonical_form_is_kept_by_its_statement_and_freed_with_it():
    # No cache outlives the statements: once they are dropped, so are their forms.
    rng = random.Random(63)
    for _ in range(5000):
        canonicalize(random_cmi(rng, 63))
    gc.collect()
    assert sum(type(o) is CanonicalCmi and o.n == 63 for o in gc.get_objects()) == 0
    k = random_cmi(rng, 63)
    assert canonicalize(k) is canonicalize(k)


def test_threads_canonicalize_shared_statements_consistently():
    rng = random.Random(300)
    shared = [random_cmi(rng, 12) for _ in range(300)]
    expected = [canonicalize(Cmi(k.n, k.cond, k.blocks)) for k in shared]
    results, errors = {}, []

    def work(offset):
        try:  # each thread walks the list from its own starting point
            order = range(offset, offset + len(shared))
            results[offset] = {i % len(shared): canonicalize(shared[i % len(shared)]) for i in order}
        except Exception as exc:  # reported below, with the thread's offset
            errors.append((offset, repr(exc)))

    threads = [threading.Thread(target=work, args=(offset,)) for offset in (0, 75, 150, 225)]
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
    assert len(results) == 4
    for forms in results.values():
        assert [forms[i] for i in range(len(shared))] == expected
    assert [canonicalize(k) for k in shared] == expected


def test_canonicalize_drops_lone_leftover_part():
    # Once {1} is pinned by the (empty) condition, the single remaining part
    # {2} carries no constraint, so only the repeated set survives.
    assert canonicalize(Cmi(3, set(), ({1, 2}, {1}))) == CanonicalCmi(3, set(), {1}, ())
    # ...but two leftover parts survive.
    assert canonicalize(Cmi(3, set(), ({1, 2}, {1, 3}))) == CanonicalCmi(
        3, set(), {1}, ({2}, {3})
    )


def test_canonicalize_is_idempotent_on_example():
    c = canonicalize(CHAIN)
    assert canonicalize(c.as_cmi()) == c


def test_canonical_invariants_are_enforced():
    with pytest.raises(ValueError):
        CanonicalCmi(3, {1}, {1}, ())  # cond/repeated overlap
    with pytest.raises(ValueError):
        CanonicalCmi(3, set(), set(), ({1}, {1, 2}))  # overlapping parts
    with pytest.raises(ValueError):
        CanonicalCmi(3, set(), set(), ({1},))  # exactly one part
    with pytest.raises(ValueError):
        CanonicalCmi(3, set(), set(), (frozenset(), {1}))  # empty part
    with pytest.raises(ValueError):
        CanonicalCmi(3, set(), set(), ())  # nothing asserted yet not degenerate
    with pytest.raises(ValueError):
        CanonicalCmi(3, {1}, set(), (), True)  # degenerate carries no indices


def test_canonical_constructor_reports_the_first_failed_check():
    # Condition and repeated set first, then each part in sorted order (range,
    # then emptiness), then the checks over the whole form.
    cases = [
        ({0}, set(), (frozenset(),), "conditioning set contains index 0 outside"),
        (set(), {4}, ({1}, {1}), "repeated set contains index 4 outside"),
        (set(), set(), (frozenset(), {9}), "canonical parts must be non-empty"),
        (set(), set(), ({9}, {1, 2}), "part contains index 9 outside"),
        (set(), set(), ({1}, {1, 9}), "part contains index 9 outside"),
        (set(), set(), ({1}, {1, 2}), "pairwise disjoint"),
    ]
    for cond, rep, parts, message in cases:
        with pytest.raises(ValueError, match=message):
            CanonicalCmi(3, cond, rep, parts)


def test_canonical_parts_are_stored_sorted():
    c = CanonicalCmi(4, set(), set(), ({3, 4}, {1}))
    assert c.parts == (frozenset({1}), frozenset({3, 4}))


def test_residual_running_example():
    k1 = Cmi(5, {1}, ({2}, {2}))
    k3 = Cmi(5, {1, 2}, ({1}, {3}, {4}))
    r1 = residual(CHAIN, k1)
    assert r1 == Cmi(5, set(), ()) and is_degenerate(r1)
    assert residual(CHAIN, k3) == Cmi(5, {1}, ({3}, {4}))


def test_residual_of_degenerate_premise_returns_conclusion():
    k2 = Cmi(3, {3}, ({1}, {2}))
    assert residual(Cmi(3, set(), ()), k2) == Cmi(3, {3}, ({1}, {2}))


def test_residual_reintroduces_repeated_pair():
    # The conclusion's own repeated indices survive as a two-block assertion.
    k = Cmi(3, set(), ({1}, {2}))
    k2 = Cmi(3, set(), ({3}, {3}))
    assert residual(k, k2) == Cmi(3, set(), ({3}, {3}))


def test_residual_requires_matching_ground_sets():
    with pytest.raises(ValueError, match="ground-set"):
        residual(Cmi(3, set(), ()), Cmi(4, set(), ()))


def test_sub_cmi_running_example():
    assert implies(CHAIN, Cmi(5, {1}, ({2}, {2})))
    assert implies(CHAIN, Cmi(5, {1, 3}, ({2}, {3}, {4})))
    assert implies(CHAIN, Cmi(5, {1, 2}, ({1}, {3}, {4})))


def test_sub_cmi_accepts_merged_parts():
    # Distinct parts of the premise may be merged into one conclusion block.
    assert implies(Cmi(3, set(), ({1}, {2}, {3})), Cmi(3, set(), ({1, 2}, {3})))


def test_sub_cmi_rejects_split_parts():
    # The reverse split is not sound: joint independence of {1,2} from {3}
    # says nothing about independence inside {1,2}.
    assert not implies(Cmi(3, set(), ({1, 2}, {3})), Cmi(3, set(), ({1}, {2})))


def test_sub_cmi_rejects_condition_changes_that_can_break():
    # Conditioning on a variable the premise never mentions can break it.
    assert not implies(Cmi(3, set(), ({1}, {2})), Cmi(3, {3}, ({1}, {2})))
    # Dropping the premise's own condition is equally unsound.
    assert not implies(Cmi(3, {1}, ({2}, {3})), Cmi(3, set(), ({2}, {3})))


def test_sub_cmi_allows_condition_move_into_consumed_parts():
    # Indices dropped from the premise's parts may be conditioned on.
    assert implies(Cmi(3, set(), ({1, 2}, {3})), Cmi(3, {2}, ({1}, {3})))
    assert implies(Cmi(4, set(), ({1, 2}, {3, 4})), Cmi(4, {2, 4}, ({1}, {3})))


def test_sub_cmi_degenerate_cases():
    assert implies(Cmi(3, {1}, ({2}, {3})), Cmi(3, set(), ()))
    assert implies(Cmi(3, set(), ()), Cmi(3, set(), ({1},)))
    assert not implies(Cmi(3, set(), ()), Cmi(3, set(), ({1}, {2})))
    # Degenerate-residual path still demands the premise condition be carried:
    # "X2 pinned by X1" does not make X2 outright constant.
    k = Cmi(3, {1}, ({2}, {2}, {3}))
    assert not implies(k, Cmi(3, set(), ({2}, {2})))
    assert implies(k, Cmi(3, {1}, ({2}, {2})))


def test_implies_matches_sub_cmi_and_is_reflexive():
    pairs = [
        (CHAIN, Cmi(5, {1}, ({2}, {2})), True),
        (Cmi(3, set(), ({1}, {2})), Cmi(3, {3}, ({1}, {2})), False),
        (Cmi(3, set(), ({1, 2}, {3})), Cmi(3, set(), ({1}, {2})), False),
    ]
    for a, b, verdict in pairs:
        assert implies(a, b) == verdict
        assert implies(a, a) and implies(b, b)


def test_equivalent_examples():
    assert equivalent(CHAIN, Cmi(5, {1}, ({2}, {2}, {3}, {4}, {5})))
    assert equivalent(Cmi(3, {1}, ()), Cmi(3, set(), ({1, 2, 3},)))
    assert not equivalent(Cmi(3, set(), ({1}, {2})), Cmi(3, set(), ({1}, {2}, {3})))


def test_implies_each_conclusion_from_its_own_premise():
    p1 = Cmi(4, set(), ({1}, {2}, {3}))
    p2 = Cmi(4, set(), ({1}, {4}))
    assert implies(p1, Cmi(4, set(), ({1, 2}, {3})))
    assert implies(p2, Cmi(4, set(), ({1}, {4})))
    assert not implies(p1, Cmi(4, set(), ({2}, {4})))
    assert not implies(p2, Cmi(4, set(), ({2}, {4})))


def count_clause_bodies(monkeypatch) -> list:
    """Patch the clause body's first call so that each run of the body is counted."""
    runs = []
    check = cmikit.statements._require_same_ground

    def counted(k, k2):
        runs.append((k, k2))
        check(k, k2)

    monkeypatch.setattr(cmikit.statements, "_require_same_ground", counted)
    return runs


# A failing pair, a pair with the same premise and another plan, and a "yes".
NO_PAIR = Cmi(4, set(), ({1}, {2})), Cmi(4, {3}, ({1}, {2}))
OTHER_NO = Cmi(4, {3}, ({1, 2}, {4}))
YES = Cmi(4, set(), ({2}, {1}))


def test_a_witness_after_a_failing_implies_reuses_its_plan(monkeypatch):
    k, k2 = NO_PAIR
    runs = count_clause_bodies(monkeypatch)
    assert not implies(k, k2)
    assert len(runs) == 1
    w = witness_non_implication(k, k2)
    assert len(runs) == 1
    assert w.direction[0] is k and w.direction[1] is k2
    fresh = _sub_cmi_clause(copy.copy(k), copy.copy(k2))
    assert len(runs) == 2
    assert fresh == ("condition sandwich violated", "XOR", (1, 2, 3))
    assert (w.template, w.pivot_indices) == fresh[1:]


def test_the_plan_slot_matches_both_statements_by_identity(monkeypatch):
    k, k2 = NO_PAIR
    assert not implies(k, k2)
    stored = cmikit.statements._last_no
    runs = count_clause_bodies(monkeypatch)
    # Equal copies of either statement, or the same premise with another
    # conclusion, run the clauses again: the slot matches by identity only.
    for a, b in ((copy.copy(k), copy.copy(k2)), (k, copy.copy(k2)), (copy.copy(k), k2), (k, OTHER_NO)):
        assert a == k
        assert _sub_cmi_clause(a, b) == _sub_cmi_clause(copy.copy(a), copy.copy(b))
    assert len(runs) == 8
    assert _sub_cmi_clause(k, OTHER_NO) != stored[2]
    assert cmikit.statements._last_no is stored
    assert _sub_cmi_clause(k, k2) is stored[2]
    assert len(runs) == 9


def test_a_yes_leaves_the_plan_slot_as_it_was():
    k, k2 = NO_PAIR
    assert not implies(k, k2)
    stored = cmikit.statements._last_no
    assert stored[0] is k and stored[1] is k2
    assert implies(k, YES) and implies(YES, k) and implies(k, k)
    assert cmikit.statements._last_no is stored
    assert not implies(k, OTHER_NO)
    assert cmikit.statements._last_no[:2] == (k, OTHER_NO)


def test_threads_interleave_verdicts_and_witnesses_on_their_own_pairs():
    forms = enumerate_canonical(4, 3)
    keys = random.Random(301).sample([(a, b) for a in range(len(forms)) for b in range(len(forms))], 2000)
    plans = {(a, b): _sub_cmi_clause(forms[a].as_cmi(), forms[b].as_cmi()) for a, b in keys}
    results, errors = {}, []

    def work(seed):
        # Each thread decides its own statement objects, in its own order.
        order = random.Random(seed).sample(keys, len(keys))
        pairs = [(forms[a].as_cmi(), forms[b].as_cmi()) for a, b in order]
        try:
            out = []
            for key, (k, k2) in zip(order, pairs):
                if implies(k, k2):
                    out.append((key, ("holds", None, ())))
                    continue
                w = witness_non_implication(k, k2)
                assert w.direction[0] is k and w.direction[1] is k2, f"witness for another pair at {key}"
                out.append((key, (plans[key][0], w.template, w.pivot_indices)))
            results[seed] = out
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
    assert len(results) == 4
    for out in results.values():
        assert [got for key, got in out if got != plans[key]] == []
        assert sorted(key for key, _ in out) == sorted(keys)
    assert 200 < sum(plan[0] == "holds" for plan in plans.values()) < 1800


def test_decompose_running_example():
    assert decompose_to_cis(CHAIN) == [
        Cmi(5, {1}, ({2}, {2})),
        Cmi(5, {1, 2}, ({3}, {4, 5})),
        Cmi(5, {1, 2, 3}, ({4}, {5})),
    ]


def test_decompose_edge_shapes():
    assert decompose_to_cis(Cmi(3, {1}, ({2},))) == []
    assert decompose_to_cis(Cmi(3, {3}, ({1}, {2}))) == [Cmi(3, {3}, ({1}, {2}))]
    assert decompose_to_cis(Cmi(3, set(), ({1, 2}, {1, 2}))) == [
        Cmi(3, set(), ({1, 2}, {1, 2}))
    ]


def test_decompose_components_are_implied():
    for comp in decompose_to_cis(CHAIN):
        assert implies(CHAIN, comp)


def test_weaken_shrink_merge_condition():
    k = Cmi(5, {1}, ({2}, {3}, {4, 5}))
    w = weaken(k, [{2}, {3}, {4}], [{1, 2}, {3}], {5})
    assert w == Cmi(5, {1, 5}, ({2, 3}, {4}))
    assert implies(k, w)
    # An empty group merges to an empty block; no group at all leaves no block.
    assert weaken(k, [{2}, {3}, {4}], [set(), {1, 2}], {5}) == Cmi(5, {1, 5}, ((), {2, 3}))
    assert weaken(k, [{2}, {3}, {4}], []) == Cmi(5, {1}, ())


def test_weaken_identity():
    k = Cmi(3, set(), ({1}, {2}))
    assert weaken(k, [{1}, {2}], [{1}, {2}]) == k


def test_weaken_validates_arguments():
    k = Cmi(4, {1}, ({2}, {3, 4}))
    with pytest.raises(ValueError, match="pure"):
        weaken(Cmi(4, {1}, ({1, 2},)), [{2}], [{1}])
    with pytest.raises(ValueError, match="sub-blocks"):
        weaken(k, [{2}], [{1}])
    with pytest.raises(ValueError, match="not contained"):
        weaken(k, [{3}, {4}], [{1}])
    with pytest.raises(ValueError, match="position"):
        weaken(k, [{2}, {4}], [{3}])
    with pytest.raises(ValueError, match="two groups"):
        weaken(k, [{2}, {4}], [{1}, {1, 2}])
    with pytest.raises(ValueError, match="extra conditioning"):
        weaken(k, [{2}, {4}], [{1}], {1})
    with pytest.raises(ValueError, match="extra conditioning"):
        weaken(k, [{2}, {4}], [{1, 2}], {4})


def test_enumerate_canonical_smallest_ground_sets():
    assert enumerate_canonical(0, 4) == [CanonicalCmi.degenerate_form(0)]
    assert enumerate_canonical(1, 2) == [
        CanonicalCmi.degenerate_form(1),
        CanonicalCmi(1, set(), {1}, ()),
    ]


def test_enumerate_canonical_counts():
    # Counts confirmed by the exhaustive cross-cover in the property suite.
    assert len(enumerate_canonical(2, 3)) == 7
    assert len(enumerate_canonical(3, 4)) == 33
    assert len(enumerate_canonical(4, 3)) == 181


def test_enumerate_canonical_is_deduplicated_and_bounded():
    forms = enumerate_canonical(3, 2)
    assert len(set(forms)) == len(forms)
    assert all(len(c.parts) <= 2 for c in forms)
    with pytest.raises(ValueError):
        enumerate_canonical(6, 2)
    with pytest.raises(ValueError):
        enumerate_canonical(3, 5)


def test_value_class_reprs():
    assert repr(Cmi(3, {1}, ({2}, {2}, set()))) == (
        "Cmi(n=3, cond=frozenset({1}), blocks=(frozenset({2}), frozenset({2}), frozenset()))"
    )
    assert repr(Cmi(0)) == "Cmi(n=0, cond=frozenset(), blocks=())"
    assert repr(CanonicalCmi(4, {1}, {2}, ({4}, {3}))) == (
        "CanonicalCmi(n=4, cond=frozenset({1}), repeated=frozenset({2}), "
        "parts=(frozenset({3}), frozenset({4})), degenerate=False)"
    )
    assert repr(CanonicalCmi.degenerate_form(3)) == (
        "CanonicalCmi(n=3, cond=frozenset(), repeated=frozenset(), parts=(), degenerate=True)"
    )


def test_value_classes_take_keywords_and_defaults():
    k = Cmi(n=3, cond={1}, blocks=[{2}, {3}])
    assert k == Cmi(3, {1}, ({2}, {3}))
    assert (k.n, k.cond, k.blocks) == (3, frozenset({1}), (frozenset({2}), frozenset({3})))
    assert Cmi(3) == Cmi(3, frozenset(), ()) and Cmi(3).blocks == ()
    c = CanonicalCmi(n=3, cond={1}, repeated={2})
    assert (c.cond, c.repeated, c.parts, c.degenerate) == (frozenset({1}), frozenset({2}), (), False)
    assert CanonicalCmi(n=3, degenerate=True) == CanonicalCmi.degenerate_form(3)
    with pytest.raises(TypeError):
        Cmi(3, set(), (), 4)
    with pytest.raises(TypeError):
        Cmi(n=3, _cond=0)


def test_cmi_equality_ignores_block_order_but_counts_repeats():
    a = Cmi(4, {1}, ({2}, {3, 4}, {2}))
    b = Cmi(4, {1}, [{2}, {2}, {4, 3}])
    assert a == b and hash(a) == hash(b) and a.blocks != b.blocks
    assert a != Cmi(4, {1}, ({2}, {3, 4})) and a != Cmi(4, {1}, ({2}, {3, 4}, {2}, {2}))
    assert Cmi(3, set(), (set(), {1})) != Cmi(3, set(), ({1},))
    assert a.__eq__("I(2;3,4;2|1)") is NotImplemented and a != "I(2;3,4;2|1)"
    assert Cmi(3) != CanonicalCmi.degenerate_form(3)
    # Canonical forms compare and hash on every field but the frozenset views.
    c = CanonicalCmi(4, {1}, {2}, ({4}, {3}))
    same = canonicalize(Cmi(4, {1}, ({2, 4}, {3, 2})))
    assert c == same and hash(c) == hash(same)
    assert c != c.as_cmi() and c != CanonicalCmi(4, {1}, {2})
    assert c != CanonicalCmi(4, set(), {2}, ({3}, {4}))
    assert CanonicalCmi.degenerate_form(3) != CanonicalCmi.degenerate_form(4)


def test_value_classes_hash_their_mask_tuples():
    k = Cmi(5, {1}, ({4, 5}, {2}, {2}))
    assert hash(k) == hash((5, 0b1, (0b10, 0b10, 0b11000)))
    c = CanonicalCmi(5, {1}, {2}, ({4, 5}, {3}))
    assert hash(c) == hash((5, False, 0b1, 0b10, (0b100, 0b11000)))
    assert hash(CanonicalCmi.degenerate_form(5)) == hash((5, True, 0, 0, ()))


def test_cmi_constructor_reports_the_first_failed_check():
    # The ground-set size, then the condition, then the blocks in written order.
    cases = [
        (65, {99}, ({99},), "ground-set size must be in 0..64, got 65"),
        (3, {4}, ({5},), "conditioning set contains index 4 outside"),
        (3, {1}, ({2}, {6}, {5}), "block contains index 6 outside"),
    ]
    for n, cond, blocks, message in cases:
        with pytest.raises(ValueError, match=message):
            Cmi(n, cond, blocks)


@pytest.mark.parametrize(
    "value, names",
    [
        (Cmi(3, {1}, ({2}, {3})), ("n", "cond", "blocks", "_cond", "_written", "_canon")),
        (
            CanonicalCmi(4, {1}, {2}, ({3}, {4})),
            ("n", "cond", "repeated", "parts", "degenerate", "_cond", "_rep", "_parts"),
        ),
    ],
)
def test_value_classes_are_immutable(value, names):
    before = repr(value), hash(value)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name, 0))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert (repr(value), hash(value)) == before


def test_value_classes_copy_and_pickle():
    for value in (Cmi(3, {1}, ({2}, {2}, set())), CanonicalCmi(4, {1}, {2}, ({3}, {4}))):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and repr(clone) == repr(value) and hash(clone) == hash(value)


def test_canonicalized_statements_copy_and_pickle():
    # The stored canonical form is no field: clones compare, print and
    # canonicalize like the statement.
    k = Cmi(5, {1}, ({1, 2}, {2, 3}, {4}, {5}))
    form, text = canonicalize(k), repr(k)
    for clone in (copy.copy(k), copy.deepcopy(k), pickle.loads(pickle.dumps(k))):
        assert clone == k and repr(clone) == text and hash(clone) == hash(k)
        assert canonicalize(clone) == form
    assert pickle.dumps(k) == pickle.dumps(Cmi(5, {1}, ({1, 2}, {2, 3}, {4}, {5})))


def test_value_classes_refuse_new_attributes():
    from dataclasses import is_dataclass

    for value in (Cmi(3, {1}, ({2}, {3})), CanonicalCmi(4, {1}, {2}, ({3}, {4}))):
        assert not is_dataclass(value) and not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.other = 1
        with pytest.raises(AttributeError):
            del value.other


def constructed_as_cmi(c):
    """``as_cmi`` through the public constructor, from sorted index lists.

    A frozenset's repr lists members in table order, which depends on the
    order they were inserted in; ``as_cmi`` inserts them in increasing order,
    as sorted lists do.
    """
    blocks = ((c.repeated, c.repeated) if c.repeated else ()) + c.parts
    return Cmi(c.n, sorted(c.cond), [sorted(b) for b in blocks])


def check_as_cmi(c):
    k, built = c.as_cmi(), constructed_as_cmi(c)
    assert k == built and repr(k) == repr(built)
    assert repr(k.cond) == repr(c.cond) and k.blocks[len(k.blocks) - len(c.parts) :] == c.parts
    assert canonicalize(k) == c


def test_as_cmi_matches_the_public_constructor_on_every_class_over_n4():
    forms = enumerate_canonical(4, 4)
    assert len(forms) == 182
    for c in forms:
        check_as_cmi(c)


@settings(max_examples=300, deadline=None)
@given(wide_pairs())
def test_as_cmi_matches_the_public_constructor_up_to_n64(pair):
    k, k2 = pair
    for c in (canonicalize(k), canonicalize(k2), canonicalize(residual(k, k2))):
        check_as_cmi(c)


def test_repr_depends_only_on_the_value():
    # A frozenset's repr lists members in table order, which depends on the
    # order they were inserted in; 35 and 3 share a slot of a small table.
    import pickle

    from cmikit import parse_cmi

    values = [parse_cmi("I(35,3 ; 40)", 64), Cmi(64, [], ([35, 3], [40])), Cmi(64, [], ([3, 35], [40]))]
    values += [pickle.loads(pickle.dumps(v)) for v in values]
    assert len(set(values)) == 1 and len({repr(v) for v in values}) == 1


# int() would truncate each bad value to 1, a valid index everywhere below.
@pytest.mark.parametrize("bad", [1.9, "1", Fraction(3, 2)], ids=["float", "str", "Fraction"])
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda x: Cmi(3, [x], ([2], [3])), id="cmi-cond"),
        pytest.param(lambda x: Cmi(3, [], ([x], [2])), id="cmi-block"),
        pytest.param(lambda x: implies(Cmi(3, [], ([x], [2])), Cmi(3, [], ([1], [2]))), id="implies"),
        pytest.param(lambda x: CanonicalCmi(3, [x], [], ([2], [3])), id="canonical-cond"),
        pytest.param(lambda x: CanonicalCmi(3, [], [], ([x], [2, 3])), id="canonical-part"),
        pytest.param(lambda x: weaken(Cmi(3, [], ([1, 2], [3])), [[x], [3]], [[1], [2]]), id="weaken-sub-block"),
        pytest.param(lambda x: weaken(Cmi(3, [], ([1, 2], [3])), [[2], [3]], [[x], [2]]), id="weaken-grouping"),
        pytest.param(lambda x: weaken(Cmi(3, [], ([1, 2], [3])), [[2], [3]], [[1], [2]], [x]), id="weaken-extra-cond"),
    ],
)
def test_non_integral_indices_raise_type_error(build, bad):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build(bad)


def test_bool_indices_are_still_integers():
    assert Cmi(3, [True], ([2], [3])) == Cmi(3, [1], ([2], [3]))
    assert CanonicalCmi(3, [], [True], ()) == CanonicalCmi(3, [], [1], ())


# Kept as given, such a size would make a statement that ``implies`` refuses to
# compare with one over an integral ground set: "ground-set sizes differ".
@pytest.mark.parametrize("bad", [2.5, 3.0, "3", Fraction(3, 1)], ids=["float", "whole-float", "str", "Fraction"])
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda n: Cmi(n, [], ([1], [2])), id="cmi"),
        pytest.param(lambda n: CanonicalCmi(n, [], [], ([1], [2])), id="canonical"),
        pytest.param(CanonicalCmi.degenerate_form, id="degenerate"),
    ],
)
def test_non_integral_ground_set_sizes_raise_type_error(build, bad):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        build(bad)


def test_a_bool_ground_set_size_is_stored_as_an_int():
    for value in (Cmi(True, [], ([1],)), CanonicalCmi(True, [], [1]), CanonicalCmi.degenerate_form(True)):
        assert value.n == 1 and type(value.n) is int
    assert implies(Cmi(True, [], ([1], [1])), Cmi(1, [], ([1], [1])))

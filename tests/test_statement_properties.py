"""Generative invariants of the statement algebra, plus exhaustive small-n sweeps."""

import itertools
import random
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from samplers import random_cmi, random_weakening, relabel_cmi, wide_pairs
from statements_reference import ref_canonicalize, ref_is_sub_cmi, ref_residual
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
)
from cmikit.statements import _mask_key, _normal


@st.composite
def cmis(draw, min_n=1, max_n=5, max_blocks=4, n=None):
    if n is None:
        n = draw(st.integers(min_n, max_n))
    subset = st.frozensets(st.integers(1, n), max_size=n)
    cond = draw(subset)
    blocks = tuple(draw(st.lists(subset, max_size=max_blocks)))
    return Cmi(n, cond, blocks)


@st.composite
def cmi_pairs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    return draw(cmis(n=n)), draw(cmis(n=n))


@given(cmis())
def test_pure_form_is_pure_idempotent_and_equivalent(k):
    p = pure_form(k)
    assert is_pure(p)
    assert pure_form(p) == p
    assert equivalent(k, p)


@given(cmis())
def test_canonicalize_is_idempotent(k):
    c = canonicalize(k)
    assert canonicalize(c.as_cmi()) == c


@given(cmis(), st.randoms(use_true_random=False))
def test_block_order_never_matters(k, rng):
    blocks = list(k.blocks)
    rng.shuffle(blocks)
    shuffled = Cmi(k.n, k.cond, tuple(blocks))
    assert shuffled == k
    assert canonicalize(shuffled) == canonicalize(k)


@given(cmi_pairs(), st.data())
def test_relabeling_transports_implication_and_equivalence(pair, data):
    k, k2 = pair
    new = data.draw(st.permutations(range(1, k.n + 1)))
    perm = dict(zip(range(1, k.n + 1), new))
    ka, kb = relabel_cmi(k, perm), relabel_cmi(k2, perm)
    assert implies(ka, kb) == implies(k, k2)
    assert equivalent(ka, kb) == equivalent(k, k2)


@given(cmi_pairs())
def test_equivalent_is_mutual_implication_is_canonical_equality(pair):
    k, k2 = pair
    e = equivalent(k, k2)
    assert e == (implies(k, k2) and implies(k2, k))
    assert e == (canonicalize(k) == canonicalize(k2))


@given(cmis())
def test_implication_is_reflexive_and_absorbs_degenerate(k):
    assert implies(k, k)
    assert implies(k, Cmi(k.n, set(), ()))
    if is_degenerate(k):
        assert equivalent(k, Cmi(k.n, set(), ()))


@given(cmi_pairs())
def test_residual_erases_premise_repeated_indices(pair):
    k, k2 = pair
    rep = canonicalize(k).repeated
    r = canonicalize(residual(k, k2))
    mentioned = r.cond | r.repeated | frozenset(itertools.chain.from_iterable(r.parts))
    assert not mentioned & rep


@given(cmi_pairs())
def test_residual_is_canonically_stable(pair):
    # The residual comes back already in canonical block shape.
    k, k2 = pair
    r = residual(k, k2)
    assert canonicalize(r).as_cmi() == r


@given(cmis())
def test_decompose_components_are_pairwise_cis_and_implied(k):
    comps = decompose_to_cis(k)
    if is_degenerate(k):
        assert comps == []
    for c in comps:
        assert len(c.blocks) == 2
        assert implies(k, c)


@given(cmis(), st.integers(0, 2**32 - 1))
def test_random_weakenings_are_implied(k, seed):
    p = pure_form(k)
    w = random_weakening(random.Random(seed), p)
    assert implies(p, w)
    assert implies(k, w)


# --- masks against the frozenset reference, up to n = 64 ---------------------


@settings(max_examples=300, deadline=None)
@given(wide_pairs())
@example((Cmi(64, {64}, ({1, 64}, {64}, frozenset())), Cmi(64, {64}, ({64}, {1, 64}, frozenset()))))
def test_mask_equality_is_multiset_equality(pair):
    k, k2 = pair
    same = (k.n, k.cond, Counter(k.blocks)) == (k2.n, k2.cond, Counter(k2.blocks))
    assert (k == k2) == same
    if same:
        assert hash(k) == hash(k2)


@settings(max_examples=300, deadline=None)
@given(wide_pairs())
@example((Cmi(64, set(), ({1, 64}, {2, 63})), Cmi(64, {63}, ({1}, {64}))))
# Shapes whose condition and repeated set are erased in one normaliser pass: a
# conditioned index in two blocks, a block inside the condition, empty blocks
# beside a repeated index, a conditioned index that is repeated beside another.
@example((Cmi(64, {1}, ({1, 2}, {1, 3})), Cmi(64, {1, 2}, ({1}, {2, 3}, {4}))))
@example((Cmi(64, {1, 2}, ({1}, {2, 3}, {4})), Cmi(64, {1}, ({1, 2}, {1, 3}))))
@example((Cmi(64, set(), ((), {5, 6}, {6, 7}, ())), Cmi(64, {6}, ({5, 6}, {6, 7}, {5, 8}))))
@example((Cmi(64, {6}, ({5, 6}, {6, 7}, {5, 8})), Cmi(64, set(), ((), {5, 6}, {6, 7}, ()))))
def test_mask_engine_matches_frozenset_reference(pair):
    k, k2 = pair
    for s in (k, k2):
        c, ref = canonicalize(s), ref_canonicalize(s)
        assert c == ref
        assert (c.cond, c.repeated, c.parts, c.degenerate) == (
            ref.cond, ref.repeated, ref.parts, ref.degenerate
        )
    assert implies(k, k2) == ref_is_sub_cmi(k, k2)
    r, ref = residual(k, k2), ref_residual(k, k2)
    assert (r, r.cond, r.blocks) == (ref, ref.cond, ref.blocks)


@settings(max_examples=300, deadline=None)
@given(wide_pairs())
@example((Cmi(64, set(), ({1}, {2, 3}, {64})), Cmi(64, set(), ({2, 64}, {1}, {3}))))
def test_residual_parts_are_sorted_when_the_premise_repeats_none_of_them(pair):
    # The clause function sorts the residual parts only when k's repeated set
    # meets k2's parts; otherwise they are k2's stored parts, in their order.
    c, c2 = map(canonicalize, pair)
    left = _normal(c2._cond & ~c._rep, c2._rep & ~c._rep, c2._parts, c._rep)[2]
    if not c._rep & sum(c2._parts):
        assert left in ([], list(c2._parts))
        assert left == sorted(left, key=_mask_key)


def test_normal_matches_the_frozenset_reference_with_any_indices_erased():
    # ``_normal`` erasing g from every set of a canonical form's general shape,
    # for each n=4 form (the degenerate one included) and each of the 16 masks g.
    mismatches = []
    for c in enumerate_canonical(4, 4):
        k = c.as_cmi()
        for g in range(16):
            gone = {i for i in range(1, 5) if g >> (i - 1) & 1}
            want = ref_canonicalize(Cmi(4, k.cond - gone, [b - gone for b in k.blocks]))
            got = CanonicalCmi._from_masks(4, *_normal(c._cond & ~g, c._rep & ~g, c._parts, g))
            if got != want:  # equality compares the degenerate flag too
                mismatches.append((c, g))
    assert mismatches == []
    assert CanonicalCmi._from_masks(3, 0, 0, ()) == CanonicalCmi.degenerate_form(3)


# --- exhaustive desk-scale sweeps -------------------------------------------

N3_SUBSETS = [
    frozenset(c) for r in range(4) for c in itertools.combinations(range(1, 4), r)
]
N3_NONEMPTY = [s for s in N3_SUBSETS if s]


def all_raw_statements(n, max_blocks):
    subsets = [
        frozenset(c)
        for r in range(n + 1)
        for c in itertools.combinations(range(1, n + 1), r)
    ]
    nonempty = [s for s in subsets if s]
    for cond in subsets:
        for k in range(max_blocks + 1):
            for blocks in itertools.combinations_with_replacement(nonempty, k):
                yield Cmi(n, cond, blocks)


def test_implication_is_transitive_over_all_n3_classes():
    reps = {}
    for k in all_raw_statements(3, 3):
        reps.setdefault(canonicalize(k), k)
    reps = list(reps.values())
    rows = []
    for a in reps:
        row = 0
        for j, b in enumerate(reps):
            if implies(a, b):
                row |= 1 << j
        rows.append(row)
    for i, a in enumerate(reps):
        assert rows[i] >> i & 1  # reflexive
        for j in range(len(reps)):
            if rows[i] >> j & 1:
                # a implies b, so everything b implies a must also imply.
                assert rows[j] & ~rows[i] == 0


def test_enumerate_canonical_covers_exactly_the_reachable_forms():
    for n, max_blocks in ((2, 2), (3, 3), (4, 3)):
        forms = enumerate_canonical(n, max_blocks)
        assert len(set(forms)) == len(forms)
        reachable = {canonicalize(k) for k in all_raw_statements(n, max_blocks)}
        assert reachable == set(forms)
        for c in forms:
            assert canonicalize(c.as_cmi()) == c


def test_enumerate_canonical_is_deterministically_sorted():
    a = enumerate_canonical(3, 4)
    b = enumerate_canonical(3, 4)
    assert a == b
    assert a[0].degenerate


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_implication_agrees_between_raw_and_canonical_forms(data):
    k = data.draw(cmis())
    k2 = data.draw(cmis(n=k.n))
    ck, ck2 = canonicalize(k).as_cmi(), canonicalize(k2).as_cmi()
    assert implies(k, k2) == implies(ck, ck2)

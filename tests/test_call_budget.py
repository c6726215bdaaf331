"""Python-level call budget of the census path: ``implies`` plus a verified witness.

Time cannot be gated in a unit test, but the number of Python frames a warm pair
enters is deterministic.  CPython 3.11 runs each comprehension and generator as a
call of its own, so the bounds below are upper bounds that interpreters which inline
comprehensions also meet.
"""

from __future__ import annotations

import random
import sys

import pytest

from cmikit.distributions import is_valid
from cmikit.statements import canonicalize, enumerate_canonical, implies
from cmikit.textio import parse_cmi
from cmikit.witnesses import witness_non_implication


def calls(*steps: tuple) -> int:
    """``"call"`` profile events while ``f(*args)`` runs for each ``(f, *args)`` of ``steps``, in turn."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for f, *args in steps:
            f(*args)
    finally:
        sys.setprofile(previous)
    return count


@pytest.fixture(scope="module")
def warm_pairs() -> tuple[list, list]:
    """A fixed sample of ordered n=5 pairs, split into implied and failing ones, each run once
    so that canonical forms, witness templates and their ``is_valid`` verdicts are cached."""
    statements = [c.as_cmi() for c in enumerate_canonical(5, 3)]
    for k in statements:
        canonicalize(k)
    rng = random.Random(2026)
    implied, failing = [], []
    for _ in range(2000):
        k, k2 = rng.choice(statements), rng.choice(statements)
        if implies(k, k2):
            implied.append((k, k2))
        else:
            witness_non_implication(k, k2)
            failing.append((k, k2))
    return implied, failing


def test_a_failing_pair_and_its_witness_stay_within_nine_calls(warm_pairs):
    _, failing = warm_pairs
    counts = [calls((implies, k, k2), (witness_non_implication, k, k2)) for k, k2 in failing]
    assert len(failing) > 1000
    assert sum(counts) / len(counts) <= 9


def test_an_implied_pair_stays_within_five_calls(warm_pairs):
    implied, _ = warm_pairs
    counts = [calls((implies, k, k2)) for k, k2 in implied]
    assert len(implied) > 100
    assert sum(counts) / len(counts) <= 5


def test_an_is_valid_memo_hit_is_one_call(warm_pairs):
    _, failing = warm_pairs
    w = witness_non_implication(*failing[0])
    premise, conclusion = w.direction
    assert calls((is_valid, w.distribution, premise)) == 1
    assert calls((is_valid, w.distribution, conclusion)) == 1
    assert is_valid(w.distribution, premise) and not is_valid(w.distribution, conclusion)


@pytest.mark.parametrize(
    "text, n",
    [
        ("I(1,2 ; 3 | 4)", 5),
        ("I()", 3),
        ("I(| 3)", 4),
        ("I( { } ; 2 ,1 |\t3 )", 3),
        ("I(30, 3; 30, 17, 42, 41; 41, 30, 42, 17; 30, 42, 41, 10; 4, 27, 42, 3 | 17)", 55),
        ("I(\u0663\x1c;\n 1,\u30002 | 4\x1f)", 4),
    ],
)
def test_parsing_a_valid_statement_is_at_most_two_calls(text, n):
    # parse_cmi and Cmi._from_masks: no helper call per block or per index.
    assert calls((parse_cmi, text, n)) <= 2

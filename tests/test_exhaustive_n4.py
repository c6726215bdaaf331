"""Every ordered pair of canonical classes over four variables, against the oracle.

The 181 classes of ``enumerate_canonical(4, 3)`` give 32,580 ordered pairs.
An independent sweep decides each pair: a class holds on a template
distribution when ``brute_valid`` (the definitional decider, not
``is_valid``) says so, and a pair is separated when some member of the
18-member template family satisfies the premise and violates the
conclusion.  ``implies`` must agree with the sweep, and every failed
implication must get its planned witness, a family member that separates
the pair.  A digest of every witness's template and pivots pins them to
those of the frozenset-based planner that the clause function replaced.
A second digest pins the clause function's whole result on every ordered
pair of ``enumerate_canonical(4, 4)``, the pairs where it holds included.
"""

import copy
import hashlib
import itertools
from collections import Counter

from oracle_reference import brute_valid, family_distribution, template_family
from cmikit import enumerate_canonical, implies, witness_non_implication
from cmikit.statements import _sub_cmi_clause

N = 4

#: sha256 of the lines "a b template pivots" over the failing pairs, in order.
WITNESS_DIGEST = "d1474097e35ed6a2ae33c552954204b57b2606ec503ff49f2b56235550396089"

#: sha256 of ``repr(_sub_cmi_clause(a, b))``, concatenated over all ordered
#: pairs of ``enumerate_canonical(4, 4)`` in order, self-pairs included.
CLAUSE_DIGEST = "b66f76fa9571dd3b2294de3814f1c5c03f66d8468cb9c518ece60379b2ebb522"

# One member per template and pivot set.
FAMILY = template_family(range(1, N + 1))


def test_every_n4_pair_agrees_with_the_oracle_sweep_and_gets_its_planned_witness():
    statements = [c.as_cmi() for c in enumerate_canonical(N, 3)]
    assert len(FAMILY) == 18 and len(statements) == 181
    dists = [family_distribution(N, *member) for member in FAMILY]
    member_of = {(t, frozenset(pivots)): j for j, (t, pivots) in enumerate(FAMILY)}
    holds_on = [sum(1 << j for j, p in enumerate(dists) if brute_valid(p, k)) for k in statements]
    edges, templates, wrong, digest = 0, Counter(), [], hashlib.sha256()
    for (a, ka), (b, kb) in itertools.permutations(enumerate(statements), 2):
        separating = holds_on[a] & ~holds_on[b]
        if implies(ka, kb) != (not separating):
            wrong.append((a, b, "verdict"))
        elif not separating:
            edges += 1
        else:
            w = witness_non_implication(ka, kb)  # reads the plan ``implies`` stored
            # An independent run of the clause function, on fresh equal objects.
            _, template, pivots = _sub_cmi_clause(copy.copy(ka), copy.copy(kb))
            j = member_of[w.template, frozenset(w.pivot_indices)]
            if (w.template, w.pivot_indices) != (template, pivots) or not separating >> j & 1:
                wrong.append((a, b, "witness"))
            if w.distribution != dists[j]:
                wrong.append((a, b, "distribution"))
            templates[w.template] += 1
            digest.update(f"{a} {b} {w.template} {w.pivot_indices}\n".encode())
    assert wrong == []
    assert edges == 4775
    assert templates == {"SINGLE": 13314, "COPY2": 13281, "COPY3": 988, "XOR": 222}
    assert digest.hexdigest() == WITNESS_DIGEST


def test_every_n4_clause_result_is_pinned_holds_included():
    statements = [c.as_cmi() for c in enumerate_canonical(N, 4)]
    assert len(statements) == 182
    digest = hashlib.sha256()
    for ka in statements:
        for kb in statements:
            digest.update(repr(_sub_cmi_clause(ka, kb)).encode())
    assert digest.hexdigest() == CLAUSE_DIGEST

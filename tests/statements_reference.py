"""Frozenset transcription of the sub-CMI test, independent of the bitmask engine.

``ref_canonicalize``, ``ref_residual`` and ``ref_is_sub_cmi`` restate the
canonical form, the residual and the implication test on the public
``frozenset`` fields only, through the public ``pure_form`` transform; the
repeated set is counted here, over the pure blocks.  They never read a mask or
call ``canonicalize``, so the property tests can hold ``canonicalize``,
``residual`` and ``implies`` to them.
"""

from __future__ import annotations

import itertools
from collections import Counter

from cmikit import CanonicalCmi, Cmi, pure_form


def ref_canonicalize(k: Cmi) -> CanonicalCmi:
    p = pure_form(k)
    if len(p.blocks) <= 1:
        return CanonicalCmi.degenerate_form(k.n)
    counts = Counter(i for b in p.blocks for i in b)
    rep = frozenset(i for i, count in counts.items() if count >= 2)
    parts = tuple(b - rep for b in p.blocks if b - rep)
    if rep and len(parts) <= 1:
        parts = ()
    return CanonicalCmi(k.n, p.cond, rep, parts)


def ref_residual(k: Cmi, k2: Cmi) -> Cmi:
    ck = ref_canonicalize(k)
    ck2 = ref_canonicalize(k2)
    if ck.degenerate:
        return ck2.as_cmi()
    rep = ck.repeated
    cond = ck2.cond - rep
    d = ck2.repeated - rep
    leftovers = tuple(p - rep for p in ck2.parts if p - rep)
    if not d and len(leftovers) <= 1:
        return Cmi(k.n, frozenset(), ())
    if not d:
        return Cmi(k.n, cond, leftovers)
    if len(leftovers) <= 1:
        return Cmi(k.n, cond, (d, d))
    return Cmi(k.n, cond, (d, d) + leftovers)


def ref_is_sub_cmi(k: Cmi, k2: Cmi) -> bool:
    ck2 = ref_canonicalize(k2)
    if ck2.degenerate:
        return True
    ck = ref_canonicalize(k)
    ckk = ref_canonicalize(ref_residual(k, k2))
    if ckk.degenerate:
        return ck.cond <= ck2.cond
    if ckk.repeated:
        return False
    pset = frozenset().union(*ck.parts)
    ppset = frozenset().union(*ckk.parts)
    if not ppset <= pset:
        return False
    s = ck.cond | pset
    if not (ck.cond <= ckk.cond and ckk.cond <= s - ppset):
        return False
    # Any two indices from distinct residual parts lie in distinct parts of k.
    covers = [frozenset(i for i, p in enumerate(ck.parts) if p & part) for part in ckk.parts]
    return all(not a & b for a, b in itertools.combinations(covers, 2))

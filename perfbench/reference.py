"""Independent correctness reference for the benchmark.

Nothing here calls into ``cmikit``: statements are plain ``(cond, blocks)``
pairs of frozensets over ``1..n`` and distributions are plain
``{outcome tuple: Fraction}`` dicts.  Validity is decided straight from the
definition of conditional mutual independence, and implication by sweeping
the separating-template family, each member checked by that brute force.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# --- statements -------------------------------------------------------------


def mentioned(cond, blocks) -> frozenset:
    return frozenset(cond).union(*blocks)


def block_order(block) -> tuple:
    return (len(block), tuple(sorted(block)))


def statement_text(cond, blocks) -> str:
    """Canonical statement text: blocks sorted by size then members."""
    parts = [",".join(map(str, sorted(b))) if b else "{}" for b in sorted(blocks, key=block_order)]
    inner = " ; ".join(parts)
    if cond:
        c = ",".join(map(str, sorted(cond)))
        inner = f"{inner} | {c}" if inner else f"| {c}"
    return f"I({inner})"


def same_statement(a, b) -> bool:
    """Equality of ``(cond, blocks)`` with blocks compared as a multiset."""
    return a[0] == b[0] and sorted(a[1], key=block_order) == sorted(b[1], key=block_order)


def canonical_blocks(cond, repeated, parts):
    """The block multiset a canonical form ``(cond, repeated, parts)`` denotes."""
    return cond, ([repeated, repeated] if repeated else []) + list(parts)


# --- distributions ----------------------------------------------------------


def parse_distribution_text(text: str):
    """``(sizes, pmf)`` from the line format; comment lines are skipped."""
    sizes = None
    pmf: dict[tuple[int, ...], Fraction] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if sizes is None:
            if not line.startswith("vars:"):
                raise ValueError("missing vars header")
            sizes = tuple(int(tok.rpartition(":")[2]) for tok in line[5:].split())
            continue
        symbols, _, prob = line.rpartition(":")
        outcome = tuple(int(s) for s in symbols.split())
        if len(outcome) != len(sizes) or outcome in pmf:
            raise ValueError(f"bad row {raw!r}")
        pmf[outcome] = Fraction(prob.strip())
    if sizes is None or sum(pmf.values()) != 1 or any(q < 0 for q in pmf.values()):
        raise ValueError("not a distribution")
    return sizes, {o: q for o, q in pmf.items() if q}


def distribution_text(sizes, pmf) -> str:
    lines = ["vars: " + " ".join(f"X{i}:{s}" for i, s in enumerate(sizes, start=1))]
    for outcome in sorted(pmf):
        q = pmf[outcome]
        lines.append(" ".join(map(str, outcome)) + f" : {q.numerator}/{q.denominator}")
    return "\n".join(lines) + "\n"


def marginal(pmf, key) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for outcome, q in pmf.items():
        sub = tuple(outcome[i - 1] for i in key)
        out[sub] = out.get(sub, 0) + q
    return out


def entropy_bits(pmf, indices) -> float:
    total = 0.0
    for q in marginal(pmf, tuple(sorted(indices))).values():
        f = float(q)
        total -= f * math.log2(f)
    return total + 0.0


def cond_entropy_bits(pmf, a, c) -> float:
    return entropy_bits(pmf, set(a) | set(c)) - entropy_bits(pmf, c)


def defect_bits(pmf, cond, blocks) -> float:
    """J: sum of per-block conditional entropies minus the joint one."""
    if len(blocks) <= 1:
        return 0.0
    total = -cond_entropy_bits(pmf, frozenset().union(*blocks), cond)
    for b in blocks:
        total += cond_entropy_bits(pmf, b, cond)
    return total + 0.0


class Dist:
    """A pmf with memoized marginals, for checking many statements against it."""

    def __init__(self, pmf) -> None:
        self.pmf = pmf
        self._marginals: dict[tuple, dict] = {}
        self._grouped: dict[tuple, dict] = {}

    def marginal(self, key) -> dict:
        m = self._marginals.get(key)
        if m is None:
            m = self._marginals[key] = marginal(self.pmf, key)
        return m

    def grouped(self, cond_key, key) -> dict:
        """``{y: [(assignment over key, probability)]}`` for the marginal on ``key``."""
        g = self._grouped.get((cond_key, key))
        if g is None:
            g = {}
            for values, q in self.marginal(key).items():
                assign = dict(zip(key, values))
                g.setdefault(tuple(assign[i] for i in cond_key), []).append((assign, q))
            self._grouped[(cond_key, key)] = g
        return g


def brute_valid(dist, cond, blocks) -> bool:
    """Mutual independence of the blocks given ``cond``, from the definition.

    For every conditioning value ``y`` and every joint value ``w`` of the
    blocks: ``p(w, y) * p(y)^(t-1) == prod_i p(w_i, y)``.  A ``w`` for which
    some block value has probability zero makes both sides zero, so only the
    consistent combinations of positive block values need checking.
    """
    if not isinstance(dist, Dist):
        dist = Dist(dist)
    t = len(blocks)
    if t <= 1:
        return True
    cond_key = tuple(sorted(cond))
    union_key = tuple(sorted(mentioned(cond, blocks)))
    p_joint = dist.marginal(union_key)
    per_block = [dist.grouped(cond_key, tuple(sorted(set(cond) | b))) for b in blocks]
    for y, py in dist.marginal(cond_key).items():
        scale = py ** (t - 1)
        options = [by_y.get(y, ()) for by_y in per_block]

        def walk(i: int, w: dict, rhs: Fraction) -> bool:
            if i == t:
                return p_joint.get(tuple(w[j] for j in union_key), 0) * scale == rhs
            for assign, q in options[i]:
                if all(w.get(j, s) == s for j, s in assign.items()):
                    if not walk(i + 1, {**w, **assign}, rhs * q):
                        return False
            return True

        if not walk(0, {}, Fraction(1)):
            return False
    return True


# --- separating templates ---------------------------------------------------
#
# One uniform bit at one pivot (SINGLE), copied to two or three pivots (COPY2,
# COPY3), or two independent bits and their parity (XOR); all other variables
# are 0.  Each template is symmetric in its pivots, so pivot *sets* enumerate
# every distinct member of the family.

TEMPLATE_ARITY = (("SINGLE", 1), ("COPY2", 2), ("COPY3", 3), ("XOR", 3))


def template_pmf(n: int, template: str, pivots) -> dict:
    rows = []
    if template == "XOR":
        a, b, c = pivots
        for u, v in itertools.product((0, 1), repeat=2):
            row = [0] * n
            row[a - 1], row[b - 1], row[c - 1] = u, v, u ^ v
            rows.append(tuple(row))
    else:
        for u in (0, 1):
            row = [0] * n
            for m in pivots:
                row[m - 1] = u
            rows.append(tuple(row))
    q = Fraction(1, len(rows))
    return {r: q for r in rows}


def template_family(candidates):
    """Every ``(template, pivot set)`` over ``candidates``, in a fixed order."""
    cands = sorted(candidates)
    return [
        (name, pivots)
        for name, arity in TEMPLATE_ARITY
        for pivots in itertools.combinations(cands, arity)
    ]


def sweep_candidates(n: int, statements) -> frozenset:
    """The indices the statements mention plus the smallest unmentioned one."""
    used = frozenset().union(*(mentioned(c, b) for c, b in statements))
    fresh = next((i for i in range(1, n + 1) if i not in used), None)
    return used | ({fresh} if fresh is not None else set())


def family_dists(n: int, family) -> list[Dist]:
    return [Dist(template_pmf(n, name, pivots)) for name, pivots in family]


def sat_mask(dists, cond, blocks) -> int:
    """Bit ``j`` is set when ``dists[j]`` satisfies the statement."""
    mask = 0
    for j, d in enumerate(dists):
        if brute_valid(d, cond, blocks):
            mask |= 1 << j
    return mask


def separates(mask_premise: int, mask_conclusion: int) -> bool:
    """Some member satisfies the premise and violates the conclusion."""
    return bool(mask_premise & ~mask_conclusion)


class PairReference:
    """Implication and equivalence of statements over one ground set, by sweep."""

    def __init__(self, n: int, statements) -> None:
        self.dists = family_dists(n, template_family(sweep_candidates(n, statements)))

    def mask(self, stmt) -> int:
        return sat_mask(self.dists, *stmt)


def check_witness(n: int, pmf, premise, conclusion) -> str | None:
    """Why ``pmf`` fails to separate premise from conclusion, or ``None``."""
    if any(len(o) != n for o in pmf) or sum(pmf.values()) != 1:
        return "witness is not a distribution over the ground set"
    if not brute_valid(pmf, *premise):
        return "witness violates the premise"
    if brute_valid(pmf, *conclusion):
        return "witness satisfies the conclusion"
    return None

"""Plain-random generators shared by the test modules and the acceptance gate.

Hypothesis strategies live in the property-test modules, except ``wide_pairs``,
which more than one module draws from; the other samplers are for the
deterministic, seed-driven sweeps where we want explicit control over the
distribution family (grain mix, alphabet sizes) and reproducible seeds.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from cmikit import Cmi, IndexSet, pure_form, random_distribution, weaken


def random_cmi(rng: random.Random, n: int, max_blocks: int = 4) -> Cmi:
    """Arbitrary raw statement: blocks may be empty, overlap, or repeat."""
    cond = frozenset(i for i in range(1, n + 1) if rng.random() < 0.3)
    blocks = tuple(
        frozenset(i for i in range(1, n + 1) if rng.random() < 0.4)
        for _ in range(rng.randint(0, max_blocks))
    )
    return Cmi(n, cond, blocks)


def random_pure_cmi(rng: random.Random, n: int, max_blocks: int = 4) -> Cmi:
    return pure_form(random_cmi(rng, n, max_blocks))


def relabel_cmi(k: Cmi, perm: dict[int, int]) -> Cmi:
    """Apply a ground-set permutation {old: new} to every index of the statement."""
    remap = lambda s: frozenset(perm[i] for i in s)
    return Cmi(k.n, remap(k.cond), tuple(remap(b) for b in k.blocks))


def random_joint(rng: random.Random, n: int, seed: int, max_alphabet: int = 3):
    sizes = tuple(rng.randint(1, max_alphabet) for _ in range(n))
    grain = rng.choice((1, 2, 4, 16))
    return random_distribution(n, sizes, seed=seed, mass_grain=grain)


def random_weakening(rng: random.Random, k: Cmi) -> Cmi:
    """A random application of the weakening transform to a pure statement."""
    subs: list[IndexSet] = [
        frozenset(i for i in b if rng.random() < 0.8) for b in k.blocks
    ]
    positions = list(range(1, len(k.blocks) + 1))
    rng.shuffle(positions)
    groups: list[frozenset[int]] = []
    i = 0
    while i < len(positions):
        chunk = positions[i : i + rng.randint(1, 2)]
        i += len(chunk)
        if rng.random() < 0.8:
            groups.append(frozenset(chunk))
    used = frozenset(
        itertools.chain.from_iterable(subs[j - 1] for g in groups for j in g)
    )
    all_blocks = frozenset(itertools.chain.from_iterable(k.blocks))
    extra = frozenset(i for i in (all_blocks - used) if rng.random() < 0.3)
    return weaken(k, subs, groups, extra)


@st.composite
def wide_pairs(draw):
    """Two ``random_cmi`` statements over one n in 1..64.

    The first may gain an empty block, a repeat of a block and the top index
    n; the second is independent, a reordered copy of the first, a weakening
    of it, or a weakening changed so that the implication often fails late in
    the clause order: one more conditioning index, its largest block split in
    two, or one more index in its last block.
    """
    n = draw(st.integers(1, 64))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = random_cmi(rng, n)
    blocks = list(k.blocks)
    if draw(st.booleans()):
        blocks.append(frozenset())
    if blocks and draw(st.booleans()):
        blocks.append(blocks[draw(st.integers(0, len(blocks) - 1))])
    if blocks and draw(st.booleans()):
        blocks[0] |= {n}
    k = Cmi(n, k.cond, tuple(blocks))
    kind = draw(st.sampled_from(["independent", "copy", "weakening", "cond", "split", "grow"]))
    if kind == "independent":
        return k, random_cmi(rng, n)
    if kind == "copy":
        return k, Cmi(n, set(k.cond), tuple(reversed(k.blocks)))
    w = random_weakening(rng, pure_form(k))
    blocks = sorted(w.blocks, key=len)
    if kind == "cond":
        w = Cmi(n, w.cond | {rng.randint(1, n)}, w.blocks)
    elif kind == "split" and blocks and len(blocks[-1]) >= 2:
        big = blocks.pop()
        w = Cmi(n, w.cond, (*blocks, frozenset({min(big)}), big - {min(big)}))
    elif kind == "grow" and blocks:
        w = Cmi(n, w.cond, (*blocks[:-1], blocks[-1] | {rng.randint(1, n)}))
    return k, w

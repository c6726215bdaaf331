#!/usr/bin/env python3
"""Census of the implication order between canonical statement classes.

Enumerates every canonical form over a small ground set, decides implication
for all ordered pairs with the sub-CMI clause function (``implies`` is true
exactly when it says "holds"), and for each failed implication builds the
separating distribution, tallying which counterexample template it used and,
against the failing clause, a clause x template histogram.  Useful for
eyeballing how the implication lattice and the witness case split behave as
the ground set grows.  Every witness is verified exactly by the library, which
raises if the planned template fails; the script also exits 1 if any witness
is not the one the failing clause planned.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass

from cmikit import TEMPLATES, enumerate_canonical, render_cmi, witness_non_implication
from cmikit.statements import CONDITION, HOLDS, OUTSIDE, REPEATED, SANDWICH, SHARED, _sub_cmi_clause


@dataclass
class Config:
    n: int = 3
    max_blocks: int = 3
    show_edges: bool = False


def parse_args(argv: list[str] | None) -> Config:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n", type=int, default=3, choices=range(6), metavar="N", help="ground-set size (0..5)"
    )
    parser.add_argument(
        "--max-blocks", type=int, default=3, choices=range(5), metavar="B", help="part bound (0..4)"
    )
    parser.add_argument(
        "--show-edges",
        action="store_true",
        help="print every non-trivial implication edge",
    )
    args = parser.parse_args(argv)
    return Config(args.n, args.max_blocks, args.show_edges)


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(argv)
    forms = enumerate_canonical(cfg.n, cfg.max_blocks)
    statements = [c.as_cmi() for c in forms]
    print(f"canonical classes over n={cfg.n}, max_blocks={cfg.max_blocks}: {len(forms)}")

    edges = unplanned = 0
    templates: Counter[str] = Counter()
    by_clause: Counter[tuple[str, str]] = Counter()
    for a, ka in enumerate(statements):
        for b, kb in enumerate(statements):
            if a == b:
                continue
            clause, template, pivots = _sub_cmi_clause(ka, kb)
            if clause == HOLDS:
                edges += 1
                if cfg.show_edges:
                    print(f"  {render_cmi(ka)}  =>  {render_cmi(kb)}")
            else:
                w = witness_non_implication(ka, kb)
                templates[w.template] += 1
                by_clause[clause, w.template] += 1
                unplanned += (w.template, w.pivot_indices) != (template, pivots)

    pairs = len(statements) * (len(statements) - 1)
    print(f"ordered pairs: {pairs}, implication edges: {edges}")
    print("witness templates for the failures:")
    for name, count in sorted(templates.items(), key=lambda kv: -kv[1]):
        print(f"  {name:6s} {count}")
    clauses = (CONDITION, REPEATED, OUTSIDE, SANDWICH, SHARED)
    width = max(map(len, clauses))
    print("failing clause x witness template:")
    print(f"  {'':{width}s}" + "".join(f" {name:>7s}" for name in TEMPLATES))
    for clause in clauses:
        counts = "".join(f" {by_clause[clause, name]:7d}" for name in TEMPLATES)
        print(f"  {clause:{width}s}{counts}")
    if unplanned:
        print(f"{unplanned} witnesses did not come from their planned template")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Census of the implication order between canonical statement classes.

Enumerates every canonical form over a small ground set, decides implication
for all ordered pairs with ``implies``, and for each failed implication builds
the separating distribution with ``witness_non_implication``, tallying which
counterexample template it used and, against the failing clause, a clause x
template histogram.  Useful for eyeballing how the implication lattice and the
witness case split behave as the ground set grows.  The sub-CMI clause function
runs once per pair: the witness and the clause label read the plan that the
failing ``implies`` stored.  Each witness is verified exactly on both
statements; a plan that fails that check raises.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from cmikit import TEMPLATES, enumerate_canonical, implies, render_cmi, witness_non_implication
from cmikit.statements import CONDITION, OUTSIDE, REPEATED, SANDWICH, SHARED, _sub_cmi_clause


def parse_args(argv: list[str] | None) -> argparse.Namespace:
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
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    forms = enumerate_canonical(args.n, args.max_blocks)
    statements = [c.as_cmi() for c in forms]
    print(f"canonical classes over n={args.n}, max_blocks={args.max_blocks}: {len(forms)}")

    edges = 0
    templates: Counter[str] = Counter()
    by_clause: Counter[tuple[str, str]] = Counter()
    for a, ka in enumerate(statements):
        for b, kb in enumerate(statements):
            if a == b:
                continue
            if implies(ka, kb):
                edges += 1
                if args.show_edges:
                    print(f"  {render_cmi(ka)}  =>  {render_cmi(kb)}")
            else:
                # Both read the plan that ``implies`` stored for this very pair.
                template = witness_non_implication(ka, kb).template  # raises if it fails
                templates[template] += 1
                by_clause[_sub_cmi_clause(ka, kb)[0], template] += 1

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
    return 0


if __name__ == "__main__":
    sys.exit(main())

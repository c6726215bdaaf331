#!/usr/bin/env python3
"""Cross-check the exact validity oracle against a definitional brute force.

For random (statement, distribution) pairs this re-decides validity straight
from the definition (``brute_valid`` in ``tests/oracle_reference.py``, which
the tier-1 suite runs as a property test) and also confirms the float defect
J agrees with the verdict through the tolerance bridge.  Any disagreement is a
bug in one of the two deciders; the script exits non-zero so it can run as a
long-haul fuzzer.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from cmikit import TOLERANCE, is_valid, j_value, random_distribution

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracle_reference import brute_valid  # noqa: E402
from samplers import random_cmi  # noqa: E402


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-n", type=int, default=4, choices=range(1, 9), metavar="N", help="largest ground set (1..8)"
    )
    parser.add_argument(
        "--max-alphabet", type=int, default=3, choices=range(1, 5), metavar="A", help="largest alphabet (1..4)"
    )
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error(f"argument --trials: must be at least 1, got {args.trials}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    rng = random.Random(args.seed)
    oracle_bugs = bridge_bugs = 0
    for t in range(args.trials):
        n = rng.randint(1, args.max_n)
        sizes = tuple(rng.randint(1, args.max_alphabet) for _ in range(n))
        grain = rng.choice((1, 2, 3, 4, 8, 16))
        p = random_distribution(n, sizes, seed=args.seed + t, mass_grain=grain)
        k = random_cmi(rng, n, max_blocks=3)
        fast, slow = is_valid(p, k), brute_valid(p, k)
        if fast != slow:
            oracle_bugs += 1
            print(f"oracle mismatch: {k!r} fast={fast} slow={slow} trial={t}")
        j = j_value(p, k)
        if (abs(j) <= TOLERANCE) != fast:
            bridge_bugs += 1
            print(f"bridge mismatch: {k!r} valid={fast} J={j!r} trial={t}")
    print(
        f"{args.trials} trials: {oracle_bugs} oracle mismatches, "
        f"{bridge_bugs} bridge mismatches"
    )
    return 1 if (oracle_bugs or bridge_bugs) else 0


if __name__ == "__main__":
    sys.exit(main())

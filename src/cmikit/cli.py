"""Command-line front end: decide, witness, check and measure CMI statements.

Exit codes follow the verdict: 0 for an affirmative answer (equivalent,
implies, valid, witness found), 1 for a negative one, 2 for any usage or
input error.  ``--json`` switches every command to a single structured
object on stdout; ``--verify`` cross-checks the symbolic verdict against
the exact distribution oracle on deterministic random samples.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Iterator

from .distributions import (
    RANDOM_MAX_N,
    TOLERANCE,
    JointDistribution,
    cond_entropy,
    is_valid,
    j_value,
    random_distribution,
    require_matching_arity,
)
from .statements import Cmi, canonicalize, decompose_to_cis, equivalent, implies
from .textio import parse_cmi, parse_distribution, render_cmi, render_distribution
from .witnesses import Witness, witness_non_implication, witness_non_equivalence


def _color_enabled() -> bool:
    return sys.stdout.isatty() and os.environ.get("CMIKIT_COLOR") != "0"


def _verdict_line(verdict: str, affirmative: bool) -> str:
    if _color_enabled():
        return f"\x1b[{'32' if affirmative else '31'}m{verdict}\x1b[0m"
    return verdict


def _canonical_text(k: Cmi) -> str:
    return render_cmi(canonicalize(k).as_cmi())


def _emit_witness(w: Witness, out: str | None) -> dict:
    """Write the witness file if requested; return its JSON description."""
    premise, conclusion = (render_cmi(s) for s in w.direction)
    text = (
        f"# separating distribution: satisfies {premise}, violates {conclusion}\n"
        f"# template {w.template}, pivots {','.join(map(str, w.pivot_indices))}\n"
        + render_distribution(w.distribution)
    )
    payload = {
        "template": w.template,
        "pivots": list(w.pivot_indices),
        "premise": premise,
        "conclusion": conclusion,
        "distribution": text,
    }
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
        payload["file"] = out
    return payload


# What ``--verify`` demands of the verdicts on one sample, which it reads lazily
# in statement order, and how it reports a failure.
_EQUIVALENT = (lambda v: next(v) == next(v), "separates statements declared equivalent")
_ENTAILED = (
    lambda v: not next(v) or next(v),
    "satisfies the premise but violates the declared consequence",
)
_DECOMPOSED = (lambda v: next(v) == all(v), "separates the statement from its decomposition")


def _verify(
    args: argparse.Namespace,
    statements: list[Cmi],
    demand: tuple[Callable[[Iterator[bool]], bool], str],
) -> None:
    """Check the statements' verdicts on ``args.samples`` random distributions.

    Validity depends only on the variables a statement mentions, so the samples
    range over those alone, relabelled ``1..m``.
    """
    agree, failure = demand
    mentioned = sorted(set().union(*(k.cond.union(*k.blocks) for k in statements)))
    m = len(mentioned)
    if m > RANDOM_MAX_N:
        raise ValueError(
            f"--verify samples at most {RANDOM_MAX_N} mentioned variables; "
            f"these statements mention {m}"
        )
    label = {i: j for j, i in enumerate(mentioned, start=1)}
    relabelled = [
        Cmi(m, [label[i] for i in k.cond], tuple([label[i] for i in b] for b in k.blocks))
        for k in statements
    ]
    for i in range(args.samples):
        p = random_distribution(m, (2,) * m, args.seed + i, 16)
        if not agree(is_valid(p, k) for k in relabelled):
            raise RuntimeError(f"verification failed: sampled distribution {failure}")


def _print_json(
    args: argparse.Namespace,
    statements: list[Cmi],
    verdict: str | None = None,
    *,
    render: Callable[[Cmi], str] = _canonical_text,
    **fields: object,
) -> None:
    """Print the command's one JSON object.

    Its keys, in order: the command, the verdict if there is one, the
    statements' canonical forms (as ``render`` writes them), then those of
    ``fields`` that are not None.
    """
    import json  # here, as only --json needs it: a cold start without it is faster
    payload = {
        "command": args.command,
        "verdict": verdict,
        "canonical": [render(k) for k in statements],
        **fields,
    }
    print(json.dumps({key: v for key, v in payload.items() if v is not None}, indent=2))


def cmd_canon(args: argparse.Namespace) -> int:
    k = parse_cmi(args.statement, args.n)
    if args.verify:
        _verify(args, [k, canonicalize(k).as_cmi()], _EQUIVALENT)
    if args.json:
        _print_json(args, [k])
    else:
        print(_canonical_text(k))
    return 0


# Per decide command: the test, its verdicts (yes, no), the separating witness
# for a "no", and what --verify demands of a "yes" (`witness` has no --verify).
# The lambdas look the functions up in this module when the command runs, so a
# rebinding of, say, ``cli.implies`` is the one that decides.
_DECIDE = {
    "equiv": (
        lambda k, k2: equivalent(k, k2),
        ("EQUIVALENT", "NOT EQUIVALENT"),
        lambda k, k2: witness_non_equivalence(k, k2),
        _EQUIVALENT,
    ),
    "implies": (
        lambda k, k2: implies(k, k2),
        ("IMPLIES", "DOES NOT IMPLY"),
        lambda k, k2: witness_non_implication(k, k2),
        _ENTAILED,
    ),
    "witness": (
        lambda k, k2: implies(k, k2),
        ("IMPLIES", "DOES NOT IMPLY"),
        lambda k, k2: witness_non_implication(k, k2),
        None,
    ),
}


def cmd_decide(args: argparse.Namespace) -> int:
    """Decide `equiv`, `implies` or `witness` for two statements.

    `witness` inverts the outcome: it succeeds when a separating distribution
    exists, and then prints only that distribution.
    """
    test, verdicts, separate, demand = _DECIDE[args.command]
    inverted = args.command == "witness"
    k = parse_cmi(args.statement, args.n)
    k2 = parse_cmi(args.statement2, args.n)
    answer = test(k, k2)
    verdict = verdicts[0] if answer else verdicts[1]
    witness_payload = None
    if not answer:
        witness_payload = _emit_witness(separate(k, k2), args.out)
    elif demand is not None and args.verify:
        _verify(args, [k, k2], demand)
    if args.json:
        _print_json(args, [k, k2], verdict, witness=witness_payload)
    else:
        if not inverted:
            print(_verdict_line(verdict, answer))
        elif answer:
            print(_verdict_line(f"{verdict} (no separating distribution exists)", False))
        if witness_payload is not None and args.out is None:
            print(witness_payload["distribution"], end="")
    return 1 if answer == inverted else 0


def cmd_check(args: argparse.Namespace) -> int:
    k = parse_cmi(args.statement, args.n)
    with open(args.dist) as fh:
        p = parse_distribution(fh.read())
    answer = is_valid(p, k)
    j = j_value(p, k)
    if args.verify and (abs(j) <= TOLERANCE) != answer:
        raise RuntimeError(
            f"verification failed: exact verdict {answer} disagrees with J = {j!r}"
        )
    verdict = "VALID" if answer else "INVALID"
    if args.json:
        _print_json(args, [k], verdict, values={"j_value": j})
    else:
        print(_verdict_line(verdict, answer))
        print(f"J = {j:.12f}")
    return 0 if answer else 1


def _measure(p: JointDistribution, k: Cmi) -> tuple[str, float]:
    require_matching_arity(p, k)
    if len(k.blocks) <= 1:
        label = "H" + render_cmi(k)[1:]
        block = k.blocks[0] if k.blocks else frozenset()
        return label, cond_entropy(p, block, k.cond)
    return "J" + render_cmi(k)[1:], j_value(p, k)


def cmd_entropy(args: argparse.Namespace) -> int:
    with open(args.dist) as fh:
        p = parse_distribution(fh.read())
    statements = [parse_cmi(expr, args.n) for expr in args.statements]
    measures = [_measure(p, k) for k in statements]
    if args.json:
        measured = [{"expr": label, "value": value} for label, value in measures]
        # A statement measured as an entropy is reported as written: its
        # canonical form is the degenerate I().
        render = lambda k: render_cmi(k) if len(k.blocks) <= 1 else _canonical_text(k)
        _print_json(args, statements, render=render, values={"measures": measured})
    else:
        for label, value in measures:
            print(f"{label} = {value:.12f}")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    k = parse_cmi(args.statement, args.n)
    components = decompose_to_cis(k)
    if args.verify:
        _verify(args, [k, *components], _DECOMPOSED)
    rendered = [render_cmi(c) for c in components]
    if args.json:
        _print_json(args, [k], values={"components": rendered})
    else:
        for line in rendered:
            print(line)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmikit",
        description="decision engine and exact oracle for conditional mutual independence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name, help, statements taken (1, 2 or "+"), handler, extra flags: "dist",
    # "defect" (check's --verify), "verify" (--verify on samples) and "out".
    for name, help_text, arity, handler, extra in (
        ("canon", "print the canonical form of a statement", 1, cmd_canon, ("verify",)),
        ("equiv", "decide whether two statements are equivalent", 2, cmd_decide, ("verify", "out")),
        (
            "implies", "decide whether the first statement implies the second", 2, cmd_decide,
            ("verify", "out"),
        ),
        ("witness", "produce a distribution separating two statements", 2, cmd_decide, ("out",)),
        ("check", "test a statement against a distribution file", 1, cmd_check, ("dist", "defect")),
        (
            "entropy", "evaluate entropy and defect measures on a distribution", "+", cmd_entropy,
            ("dist",),
        ),
        (
            "decompose", "split a statement into pairwise conditional independencies", 1,
            cmd_decompose, ("verify",),
        ),
    ):
        p = sub.add_parser(name, help=help_text)
        if arity == 1:
            p.add_argument("statement", help="CMI statement, e.g. 'I(1,2 ; 3 | 4)'")
        elif arity == 2:
            p.add_argument("statement", help="premise statement")
            p.add_argument("statement2", help="conclusion statement")
        else:
            p.add_argument("statements", nargs=arity, help="statements to measure")
        p.add_argument("--n", type=int, required=True, help="ground-set size")
        p.add_argument("--json", action="store_true", help="emit one JSON object on stdout")
        if "dist" in extra:
            what = "check against" if name == "check" else "measure"
            p.add_argument("--dist", required=True, help=f"distribution file to {what}")
        if "defect" in extra:
            p.add_argument(
                "--verify",
                action="store_true",
                help="cross-check the exact verdict against the entropy defect",
            )
        if "verify" in extra:
            p.add_argument(
                "--verify",
                action="store_true",
                help="cross-check the verdict against the exact oracle on random distributions",
            )
            p.add_argument("--seed", type=int, default=0, help="base seed for --verify sampling")
            p.add_argument(
                "--samples", type=_positive_int, default=200, help="sample count for --verify"
            )
        if "out" in extra:
            p.add_argument("--out", help="write the separating distribution to this file")
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.handler
    try:
        return handler(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

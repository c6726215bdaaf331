"""Decision engine and exact semantic oracle for conditional mutual independence.

The package has four layers: symbolic statements and their normal forms
(:mod:`cmikit.statements`), exact finite distributions and the validity
oracle (:mod:`cmikit.distributions`), counterexample construction
(:mod:`cmikit.witnesses`), and text formats plus a CLI
(:mod:`cmikit.textio`, :mod:`cmikit.cli`).

The public names below are imported from their modules on first access
(PEP 562), so importing the package, or only the CLI, loads no layer that
the caller does not use.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOME = {
    **dict.fromkeys(
        (
            "Assignment", "JointDistribution", "TOLERANCE", "cond_entropy", "cond_mutual_info",
            "entropy", "is_valid", "j_value", "random_distribution",
        ),
        "distributions",
    ),
    **dict.fromkeys(
        (
            "Cmi", "CanonicalCmi", "IndexSet", "MAX_GROUND_SET", "block_key", "canonicalize",
            "decompose_to_cis", "enumerate_canonical", "equivalent", "implies", "is_degenerate",
            "is_pure", "pure_form", "residual", "weaken",
        ),
        "statements",
    ),
    **dict.fromkeys(
        ("ParseError", "parse_cmi", "parse_distribution", "render_cmi", "render_distribution"),
        "textio",
    ),
    **dict.fromkeys(
        (
            "TEMPLATES", "Witness", "template_distribution", "witness_non_equivalence",
            "witness_non_implication",
        ),
        "witnesses",
    ),
}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Spans and counters around calls into cmikit's public functions.

The tracer measures each layer from outside: it replaces every module-level
binding of a traced function (the defining module's attribute and each
``from ... import`` copy of it) with a wrapper that records a span, and
patches the two traced ``JointDistribution`` methods on the class.  Spans are
kept in memory as columns and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

FUNCTIONS = (
    ("textio", "parse_cmi"),
    ("textio", "render_cmi"),
    ("textio", "parse_distribution"),
    ("statements", "canonicalize"),
    ("statements", "implies"),
    ("statements", "residual"),
    ("statements", "equivalent"),
    ("statements", "enumerate_canonical"),
    ("statements", "decompose_to_cis"),
    ("witnesses", "witness_non_implication"),
    ("witnesses", "template_distribution"),
    ("distributions", "is_valid"),
    ("distributions", "j_value"),
    ("distributions", "random_distribution"),
)
CLI_COMMANDS = ("canon", "equiv", "implies", "witness", "check", "entropy", "decompose")
# Every span reports its self time; these flags say whether its call count too.
SPAN_CALLS = {
    "textio.parse_cmi": True,
    "textio.render_cmi": False,
    "textio.parse_distribution": True,
    "statements.canonicalize": True,
    "statements.implies": True,
    "statements.residual": True,
    "statements.equivalent": False,
    "statements.enumerate_canonical": False,
    "statements.decompose_to_cis": False,
    "witnesses.witness_non_implication": True,
    "witnesses.template_distribution": True,
    "distributions.JointDistribution": True,
    "distributions.marginal": True,
    "distributions.is_valid": True,
    "distributions.j_value": True,
    "distributions.random_distribution": True,
    **{f"cli.main.{command}": False for command in CLI_COMMANDS},
}


class NullTracer:
    """Stands in for the tracer in timed runs: every hook is a no-op."""

    active = False

    def op_start(self, op_id: int) -> None:
        pass

    def op_end(self) -> None:
        pass

    def span(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans (name, start, end, parent, op id) and per-layer counters."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.col_name = array("i")
        self.col_parent = array("i")
        self.col_op = array("i")
        self.col_start = array("d")
        self.col_end = array("d")
        self.calls: Counter[int] = Counter()
        self.self_s: Counter[int] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span index, child time]
        # Counters the wrappers keep: canonicalize argument reuse, marginal key
        # reuse per distribution object, and template attempts per witness.
        self._canon_seen: set = set()
        self._marg_seen: dict[int, set] = {}
        self._witness_attempts: list[int] = []

    # -- spans ----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def op_start(self, op_id: int) -> None:
        self.op = op_id
        self.active = True

    def op_end(self) -> None:
        self.active = False
        self.op = -1

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; returns its result, re-raises its exception."""
        if not self.active:
            return fn(*args, **kwargs)
        nid = self.name_id(name)
        idx = len(self.col_name)
        self.col_name.append(nid)
        self.col_parent.append(self._stack[-1][0] if self._stack else -1)
        self.col_op.append(self.op)
        self.col_start.append(0.0)
        self.col_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            dur = t1 - t0
            self.col_start[idx] = t0
            self.col_end[idx] = t1
            self.self_s[nid] += dur - frame[1]
            self.calls[nid] += 1
            if self._stack:
                self._stack[-1][1] += dur

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = tracer.span(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result, perf_counter() - t0)
            return result

        return wrapper

    # -- counters -------------------------------------------------------------

    def _after_canonicalize(self, args, result, dt) -> None:
        hit = args[0] in self._canon_seen
        self.counts["canonicalize.hits" if hit else "canonicalize.misses"] += 1
        if not hit:
            self._canon_seen.add(args[0])

    def _after_is_valid(self, args, result, dt) -> None:
        self.counts["is_valid.true"] += bool(result)
        self.counts["is_valid.support_points"] += len(args[0].pmf)
        if self._witness_attempts:
            self.counts["witness.verify_s"] += dt

    def _after_parse_distribution(self, args, result, dt) -> None:
        self.counts["parse_distribution.rows"] += len(result.pmf)

    def _after_template(self, args, result, dt) -> None:
        if self._witness_attempts:
            self._witness_attempts[-1] += 1

    def _wrap_witness(self, fn):
        inner = self._wrap("witnesses.witness_non_implication", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._witness_attempts.append(0)
            try:
                result = inner(*args, **kwargs)
            finally:
                attempts = self._witness_attempts.pop()
            self.counts["witness.count"] += 1
            self.counts["witness.attempts"] += attempts
            self.counts["witness.safety_net"] += attempts > 1
            return result

        return wrapper

    def _wrap_init(self, fn):
        inner = self._wrap("distributions.JointDistribution", fn)

        def __init__(obj, *args, **kwargs):
            # A new object may reuse a dead one's id; its marginal keys start fresh.
            self._marg_seen.pop(id(obj), None)
            inner(obj, *args, **kwargs)
            if self.active:
                self.counts["jd.support_points"] += len(obj.pmf)

        return __init__

    def _wrap_marginal(self, fn):
        inner = self._wrap("distributions.marginal", fn)

        def marginal(obj, indices):
            indices = tuple(indices)
            if self.active:
                key = frozenset(int(i) for i in indices)
                seen = self._marg_seen.setdefault(id(obj), set())
                self.counts["marginal.hits" if key in seen else "marginal.misses"] += 1
                seen.add(key)
            return inner(obj, indices)

        return marginal

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced binding in the loaded cmikit modules and the benchmark."""
        import cmikit.distributions as dist_mod

        after = {
            "canonicalize": self._after_canonicalize,
            "is_valid": self._after_is_valid,
            "parse_distribution": self._after_parse_distribution,
            "template_distribution": self._after_template,
        }
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("cmikit") and m]
        modules += [m for name, m in list(sys.modules.items()) if name in ("workloads", "__main__")]
        for module_name, func in FUNCTIONS:
            original = getattr(sys.modules[f"cmikit.{module_name}"], func)
            if func == "witness_non_implication":
                wrapper = self._wrap_witness(original)
            else:
                wrapper = self._wrap(f"{module_name}.{func}", original, after.get(func))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        cls = dist_mod.JointDistribution
        cls.__init__ = self._wrap_init(cls.__init__)
        cls.marginal = self._wrap_marginal(cls.marginal)

    # -- results --------------------------------------------------------------

    def layer_metrics(self, cache_entries: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        out: dict[str, tuple[float, str]] = {}
        for span, with_calls in SPAN_CALLS.items():
            nid = self._ids.get(span)
            if with_calls:
                out[f"{span}.calls"] = (self.calls[nid] if nid is not None else 0, "count")
            out[f"{span}.self_s"] = (self.self_s[nid] if nid is not None else 0.0, "s")

        def ratio(num: float, den: float) -> tuple[float, str]:
            return (num / den if den else 0.0, "ratio")

        c = self.counts
        out["textio.parse_distribution.rows"] = (c["parse_distribution.rows"], "count")
        hits, misses = c["canonicalize.hits"], c["canonicalize.misses"]
        out["statements.canonicalize.hit_ratio"] = ratio(hits, hits + misses)
        out["statements.canonicalize.cache_entries"] = (cache_entries, "count")
        out["witnesses.witness_non_implication.verify_s"] = (c["witness.verify_s"], "s")
        out["witnesses.attempts_per_witness"] = ratio(c["witness.attempts"], c["witness.count"])
        out["witnesses.safety_net_witnesses"] = (c["witness.safety_net"], "count")
        out["distributions.JointDistribution.support_points"] = (c["jd.support_points"], "count")
        hits, misses = c["marginal.hits"], c["marginal.misses"]
        out["distributions.marginal.hit_ratio"] = ratio(hits, hits + misses)
        out["distributions.is_valid.true_ratio"] = ratio(
            c["is_valid.true"], out["distributions.is_valid.calls"][0]
        )
        out["distributions.is_valid.support_points"] = (c["is_valid.support_points"], "count")
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated row, in the order spans opened."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i, (nid, t0, t1, parent, op) in enumerate(
                zip(self.col_name, self.col_start, self.col_end, self.col_parent, self.col_op)
            ):
                fh.write(f"{i}\t{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")

"""The four benchmark workloads: seeded inputs, the timed operations, their checks.

A run is a sequence of passes, each in a fresh process and each a fixed
number of operations (``PASS_OPS``).  Pass ``p`` draws its operations from
``random.Random(f"<name>:<seed>:<p>")`` in a fixed order, so the k-th
operation of a pass depends only on the seed and the pass.  The program only
ever sees the generated statements, text and files.  Each operation is
checked outside its timed region, against ``reference`` or against the
structure the generator planted.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import process_time

import cmikit.cli as C
import cmikit.distributions as D
import cmikit.statements as S
import cmikit.textio as T
import cmikit.witnesses as W

import reference as R
import speed

# The J bridge: |J| <= TOLERANCE exactly when a statement is valid.  Printed
# entropies are compared with the reference's to the same slack.
TOLERANCE = D.TOLERANCE


class Wrong(Exception):
    """An output the reference rejects: the run is incorrect."""


class Failed(Exception):
    """The program refused an operation cleanly (for the CLI: exit code 2)."""


class Workload:
    """Base of the workloads: a seed, a pass index, a tiny flag for the smoke
    run, no probes and no clean-up."""

    name = ""
    PASS_OPS = 0  # operations per pass; ``PASS_OPS_TINY`` in the smoke run
    PASS_OPS_TINY = 0

    def __init__(self, seed: int, pass_index: int, tiny: bool) -> None:
        self.seed = seed
        self.pass_index = pass_index
        self.tiny = tiny
        self.pass_ops = self.PASS_OPS_TINY if tiny else self.PASS_OPS
        self.in_process = False

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{self.pass_index}")

    def probe(self, rec: "Recorder") -> list[str]:
        """Calls made after the pass that are not operations of the run; returns
        one note for each."""
        return []

    def cleanup(self) -> None:
        pass


def children_cpu_s() -> float:
    """CPU time, user and system, of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Recorder:
    """Runs a pass's operations in a closed loop; keeps latencies and verdicts of
    the operations that succeeded, and the messages of those that failed.

    ``clock`` times the operations: CPU time of this process for in-process
    work, so that time the machine gives to others does not count, and the
    CPU time of finished child processes where an operation is a subprocess.
    Between operations, after every ``CALIBRATE_EVERY_S`` of operation time,
    the recorder times the loop of ``speed`` in this process's CPU time;
    ``finish`` scales each operation's time by the mean speed of the samples
    just before and after it.
    """

    CALIBRATE_EVERY_S = 0.05
    CALIBRATION_LOOPS = 5

    def __init__(self, tracer, clock, max_ops: int) -> None:
        self.tracer = tracer
        self.clock = clock
        self.max_ops = max_ops
        self.attempted = 0
        self.latencies: list[float] = []
        self.verdicts: list[bool | None] = []
        self.busy_s = 0.0
        self.errors: list[str] = []
        self.wrong: list[str] = []
        # Raw operation time per segment between two speed samples, the
        # samples, and the segment of each latency.
        self.segment_s = [0.0]
        self.rates = [self._rate()]
        self._segment_of: list[int] = []

    @property
    def failed(self) -> int:
        return len(self.errors) + len(self.wrong)

    def more(self) -> bool:
        return self.attempted < self.max_ops

    def _rate(self) -> float:
        return speed.loops_per_s(process_time, self.CALIBRATION_LOOPS)

    def _spent(self, dt: float) -> None:
        self.segment_s[-1] += dt

    def _calibrate(self) -> None:
        if self.segment_s[-1] >= self.CALIBRATE_EVERY_S:
            self.rates.append(self._rate())
            self.segment_s.append(0.0)

    def busy(self, fn, *args):
        """Time work that counts toward throughput but is not an operation.

        Returns ``None`` when ``fn`` raises, after counting a failed operation.
        """
        self.tracer.op_start(self.attempted)
        t0 = self.clock()
        try:
            return fn(*args)
        except Exception as exc:  # the program failed this step
            self._fail(self.errors, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self._spent(self.clock() - t0)
            self.tracer.op_end()
            self._calibrate()

    def op(self, fn, check) -> None:
        """Time ``fn()``, then check its output; ``check`` returns the verdict."""
        self.tracer.op_start(self.attempted)
        t0 = self.clock()
        try:
            out = fn()
        except Exception as exc:  # the program failed this operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        dt = self.clock() - t0
        self.tracer.op_end()
        self._spent(dt)
        try:
            if error is not None:
                self._fail(self.errors, error)
                return
            try:
                verdict = check(out)
            except Wrong as exc:
                self._fail(self.wrong, str(exc))
            except Failed as exc:
                self._fail(self.errors, str(exc))
            else:
                self.attempted += 1
                self.latencies.append(dt)
                self.verdicts.append(verdict)
                self._segment_of.append(len(self.segment_s) - 1)
        finally:
            self._calibrate()

    def finish(self) -> None:
        """Scale ``latencies`` and ``busy_s`` to the reference speed."""
        if self.segment_s[-1] > 0:
            self.rates.append(self._rate())
        else:
            self.segment_s.pop()
        factors = [speed.factor((a + b) / 2) for a, b in zip(self.rates, self.rates[1:])]
        self.raw_busy_s = sum(self.segment_s)
        self.busy_s = sum(s * f for s, f in zip(self.segment_s, factors))
        self.latencies = [t * factors[i] for t, i in zip(self.latencies, self._segment_of)]

    def _fail(self, messages: list[str], message: str) -> None:
        messages.append(f"op {self.attempted}: {message}")
        self.attempted += 1


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


# --- statement generators -----------------------------------------------------


def raw_statement(rng: random.Random, pool: list[int]):
    """Blocks drawn from a small index pool: they overlap, repeat, may be empty,
    and the condition may overlap them."""
    blocks: list[frozenset] = []
    for _ in range(rng.randint(2, 5)):
        r = rng.random()
        if r < 0.08:
            blocks.append(frozenset())
        elif r < 0.2 and blocks:
            blocks.append(rng.choice(blocks))
        else:
            blocks.append(frozenset(rng.sample(pool, rng.randint(1, min(4, len(pool))))))
    cond = frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
    return cond, blocks


def weakening(rng: random.Random, cond, blocks):
    """Shrink the blocks of the pure form, merge groups of them, and condition on
    indices no merged block keeps: always implied by the input."""
    pure = [b - cond for b in blocks if b - cond]
    subs = [frozenset(i for i in b if rng.random() < 0.8) for b in pure]
    positions = list(range(len(pure)))
    rng.shuffle(positions)
    merged = []
    while positions:
        group = [positions.pop() for _ in range(min(len(positions), rng.randint(1, 2)))]
        if rng.random() < 0.85:
            merged.append(frozenset().union(*(subs[i] for i in group)))
    leftover = frozenset().union(*pure) - frozenset().union(*merged)
    extra = frozenset(i for i in sorted(leftover) if rng.random() < 0.3)
    return cond | extra, merged


def equivalent_rewrite(rng: random.Random, cond, blocks):
    """Same pure form: condition indices sprinkled into blocks, blocks reordered."""
    out = [b | frozenset(i for i in cond if rng.random() < 0.5) for b in blocks]
    rng.shuffle(out)
    return cond, out


def statement_source(rng: random.Random, cond, blocks) -> str:
    """Statement text in a random but valid spelling: shuffled order, loose spacing."""
    sep = rng.choice((",", ", "))
    parts = []
    for b in blocks:
        idx = list(b)
        rng.shuffle(idx)
        parts.append(sep.join(map(str, idx)) if idx else "{}")
    text = "I(" + rng.choice((";", " ; ", "; ")).join(parts)
    if cond:
        c = list(cond)
        rng.shuffle(c)
        text += rng.choice(("|", " | ")) + sep.join(map(str, c))
    return text + ")"


def to_cmi(n: int, stmt) -> S.Cmi:
    return S.Cmi(n, stmt[0], tuple(stmt[1]))


def stmt_of(k) -> tuple:
    return k.cond, list(k.blocks)


# --- planted distributions ----------------------------------------------------


class Planted:
    """A distribution with known conditional-independence structure.

    Given the condition ``cond``, the groups are independent; each group is one
    root variable with full-support conditional pmf plus copies of it (fixed
    bijections), and the optional ``functional`` variable is a function of the
    condition.  Hence ``(cond, groups + [F, F])`` and every weakening of it hold,
    while a statement separating a root from its copy, or repeating a group
    member, with nothing else from that group mentioned, fails.
    """

    def __init__(self, rng: random.Random, nvars: int, lo: int, hi: int) -> None:
        while True:
            order = list(range(1, nvars + 1))
            rng.shuffle(order)
            c = rng.choice((0, 1, 1, 2)) if nvars >= 4 else rng.choice((0, 1))
            cond, rest = order[:c], order[c:]
            functional = [rest.pop()] if c and len(rest) > 2 and rng.random() < 0.4 else []
            copy_p = rng.uniform(0.1, 0.7)
            groups: list[list[int]] = []
            for v in rest:
                if groups and rng.random() < copy_p:
                    rng.choice(groups).append(v)
                else:
                    groups.append([v])
            if len(groups) < 2:
                continue
            sizes = {v: rng.choice((2, 3, 4)) for v in cond + functional}
            for g in groups:
                s = rng.choice((2, 3, 4))
                sizes.update((v, s) for v in g)
            support = math.prod(sizes[v] for v in cond) * math.prod(sizes[g[0]] for g in groups)
            if lo <= support <= hi:
                break
        self.n = nvars
        self.cond = frozenset(cond)
        self.functional = frozenset(functional)
        self.groups = [frozenset(g) for g in groups]
        self.roots = [g[0] for g in groups]
        self.sizes = tuple(sizes[v] for v in range(1, nvars + 1))
        perms = {}
        for g in groups:
            for v in g[1:]:
                p = list(range(sizes[v]))
                rng.shuffle(p)
                perms[v] = p
        pmf: dict[tuple[int, ...], Fraction] = {}
        ys = list(itertools.product(*(range(sizes[v]) for v in cond)))
        w_cond = [rng.randint(1, 4) for _ in ys]
        total_cond = sum(w_cond)
        for y, wy in zip(ys, w_cond):
            f_val = [rng.randrange(sizes[v]) for v in functional]
            w_groups = [[rng.randint(1, 4) for _ in range(sizes[g[0]])] for g in groups]
            den = total_cond * math.prod(sum(w) for w in w_groups)
            for roots in itertools.product(*(range(sizes[g[0]]) for g in groups)):
                row = [0] * nvars
                for v, s in zip(cond, y):
                    row[v - 1] = s
                for v, s in zip(functional, f_val):
                    row[v - 1] = s
                num = wy
                for g, r, w in zip(groups, roots, w_groups):
                    num *= w[r]
                    row[g[0] - 1] = r
                    for v in g[1:]:
                        row[v - 1] = perms[v][r]
                pmf[tuple(row)] = Fraction(num, den)
        self.pmf = pmf
        self.text = R.distribution_text(self.sizes, pmf)

    def valid_statement(self, rng: random.Random):
        blocks = list(self.groups) + [self.functional] * 2 if self.functional else list(self.groups)
        return weakening(rng, self.cond, blocks)

    def invalid_statement(self, rng: random.Random):
        pairs = [g for g in self.groups if len(g) > 1]
        g = rng.choice(pairs) if pairs and rng.random() < 0.6 else rng.choice(self.groups)
        others = sorted(frozenset(range(1, self.n + 1)) - g)
        z = frozenset(rng.sample(others, rng.randint(0, min(3, len(others)))))
        free = [i for i in others if i not in z]

        def extra() -> frozenset:
            return frozenset(rng.sample(free, rng.randint(0, min(1, len(free)))))

        if len(g) > 1:
            a, b = rng.sample(sorted(g), 2)
        else:
            a = b = next(iter(g))
        blocks = [frozenset({a}) | extra(), frozenset({b}) | extra()]
        if free and rng.random() < 0.3:
            blocks.append(frozenset({rng.choice(free)}))
        rng.shuffle(blocks)
        return z, blocks


# --- workloads ----------------------------------------------------------------


class Census(Workload):
    """Ordered pairs of canonical classes over n=5: decide, and build a witness
    when the implication fails."""

    name = "census"
    PASS_OPS, PASS_OPS_TINY = 8000, 200

    def setup(self) -> None:
        self.n = 4 if self.tiny else 5
        forms = S.enumerate_canonical(self.n, 3)
        self.statements = [f.as_cmi() for f in forms]
        for k in self.statements:
            S.canonicalize(k)
        self.family = R.template_family(range(1, self.n + 1))
        self.dists = R.family_dists(self.n, self.family)
        self.masks: dict[int, int] = {}

    def mask(self, i: int) -> int:
        m = self.masks.get(i)
        if m is None:
            m = self.masks[i] = R.sat_mask(self.dists, *stmt_of(self.statements[i]))
        return m

    def sweep_mask(self, a: int, b: int) -> int:
        """Family members whose pivots lie in the pair's mentioned indices plus one fresh."""
        cands = R.sweep_candidates(self.n, [stmt_of(self.statements[a]), stmt_of(self.statements[b])])
        return sum(1 << j for j, (_, piv) in enumerate(self.family) if cands.issuperset(piv))

    def run(self, rec: Recorder) -> None:
        rng = self.rng()
        count = len(self.statements)
        while rec.more():
            a, b = rng.randrange(count), rng.randrange(count)
            k, k2 = self.statements[a], self.statements[b]

            def op():
                if S.implies(k, k2):
                    return True, None
                return False, W.witness_non_implication(k, k2)

            rec.op(op, lambda out: self.check(a, b, *out))

    def check(self, a: int, b: int, yes: bool, witness) -> bool:
        k, k2 = self.statements[a], self.statements[b]
        separated = R.separates(self.mask(a) & self.sweep_mask(a, b), self.mask(b))
        expect(yes != separated, f"implies={yes} but the template sweep says {not separated}")
        if not yes:
            expect(witness.direction == (k, k2), "witness is for another pair")
            problem = R.check_witness(self.n, witness.distribution.pmf, stmt_of(k), stmt_of(k2))
            expect(problem is None, f"{problem} ({witness.template} {witness.pivot_indices})")
        return yes


class RawPairs(Workload):
    """Fresh statement text pairs over n in 8..64: parse, decide, canonicalize."""

    name = "raw_pairs"
    PASS_OPS, PASS_OPS_TINY = 8000, 200
    CHECK_EVERY = 400  # one op in this many, drawn by the seed, gets the full template sweep

    def setup(self) -> None:
        pass

    def inputs(self):
        rng = self.rng()
        while True:
            n = rng.randint(8, 64)
            pool = rng.sample(range(1, n + 1), min(n, rng.randint(4, 12)))
            k = raw_statement(rng, pool)
            weak = rng.random() < 0.5
            k2 = weakening(rng, *k) if weak else raw_statement(rng, pool)
            texts = (statement_source(rng, *k), statement_source(rng, *k2))
            yield n, k, k2, texts, weak, rng.randrange(self.CHECK_EVERY) == 0

    def run(self, rec: Recorder) -> None:
        for n, k, k2, texts, weak, full in self.inputs():
            if not rec.more():
                break

            def op():
                p = T.parse_cmi(texts[0], n)
                q = T.parse_cmi(texts[1], n)
                yes = S.implies(p, q)
                eq = S.equivalent(p, q)
                forms = (S.canonicalize(p), S.canonicalize(q))
                rendered = tuple(T.render_cmi(f.as_cmi()) for f in forms)
                return p, q, yes, eq, forms, rendered

            rec.op(op, lambda out: self.check(n, k, k2, weak, full, *out))

    def check(self, n, k, k2, weak, full, p, q, yes, eq, forms, rendered) -> bool:
        expect(R.same_statement(stmt_of(p), k), f"parse_cmi misread {R.statement_text(*k)}")
        expect(R.same_statement(stmt_of(q), k2), f"parse_cmi misread {R.statement_text(*k2)}")
        expect(yes or not weak, "a weakening was declared not implied")
        expect(yes or not eq, "equivalent statements were declared not implied")
        for f, text in zip(forms, rendered):
            stmt = ((), []) if f.degenerate else R.canonical_blocks(f.cond, f.repeated, f.parts)
            expect(text == R.statement_text(*stmt), f"render_cmi gave {text!r}")
        if full:
            ref = R.PairReference(n, [k, k2])
            mk, mk2 = ref.mask(k), ref.mask(k2)
            expect(yes != R.separates(mk, mk2), f"implies={yes} disagrees with the sweep")
            expect(eq == (mk == mk2), f"equivalent={eq} disagrees with the sweep")
        return yes


class Oracle(Workload):
    """Planted-structure distributions over 8 variables, each loaded from text
    once and then queried many times."""

    name = "oracle"
    QUERIES = 24  # queries per loaded distribution
    PASS_OPS, PASS_OPS_TINY = 16 * QUERIES, 2 * QUERIES
    CHAIN_EVERY = 4  # every this many queries also checks the decompose_to_cis chain
    # The support sizes of a pass's 16 distributions, in about the shares a free
    # draw from 256..512 gives.  Query time grows with the support, so fixing
    # the sizes keeps the tail from moving with the seed.
    SUPPORTS = (256, 256, 288, 288, 288, 288, 288, 324, 384, 384, 384, 384, 432, 432, 432, 512)

    def setup(self) -> None:
        self.bands = [(16, 64)] if self.tiny else [(s, s) for s in self.SUPPORTS]

    def run(self, rec: Recorder) -> None:
        rng = self.rng()
        bands = rng.sample(self.bands, len(self.bands))
        for i in itertools.count():
            if not rec.more():
                break
            planted = Planted(rng, 8, *bands[i % len(bands)])
            p = rec.busy(T.parse_distribution, planted.text)
            for q in range(self.QUERIES if p is not None else 0):
                if not rec.more():
                    break
                valid = q % 2 == 0
                stmt = planted.valid_statement(rng) if valid else planted.invalid_statement(rng)
                k = to_cmi(8, stmt)
                chain = q % self.CHAIN_EVERY == 0

                def op():
                    verdict = D.is_valid(p, k)
                    j = D.j_value(p, k)
                    parts = S.decompose_to_cis(k) if chain else None
                    holds = all(D.is_valid(p, c) for c in parts) if chain else None
                    return verdict, j, holds

                rec.op(op, lambda out: self.check(k, valid, *out))

    @staticmethod
    def check(k, valid, verdict, j, holds) -> bool:
        what = T.render_cmi(k)
        expect(verdict == valid, f"is_valid={verdict} on planted {what} (expected {valid})")
        expect((abs(j) <= TOLERANCE) == valid, f"J={j!r} disagrees with planted {what}")
        expect(holds is None or holds == valid, f"decompose_to_cis chain={holds} for {what}")
        return verdict


class Cli(Workload):
    """Cold ``python -m cmikit.cli`` calls, one at a time, over a fixed command mix."""

    name = "cli"
    KINDS = ("canon", "equiv", "implies_yes", "implies_no", "witness", "check", "entropy", "decompose")
    ROUNDS = 7  # rounds of every kind per pass: one per pair of sizes
    PASS_OPS, PASS_OPS_TINY = ROUNDS * len(KINDS), len(KINDS)
    # ``--verify`` on `implies` and `decompose` samples with random_distribution,
    # which takes n <= 8 at the seed commit (larger n exits 2).  Timed calls pass
    # it only up to here; ``probe`` keeps the larger n in view, untimed.
    VERIFY_MAX_N = 8
    PROBES = 2

    def setup(self) -> None:
        root = Path(__file__).resolve().parent.parent
        self.workdir = root / ".perfbench" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.name}:{self.seed}:{self.pass_index}:files")
        self.files = {}
        for n in range(3, 17):
            # Files of 2,048-2,304 rows from n=7 on, so every seed's files cost alike.
            lo = min(256 if self.tiny else 2048, 4**n // 8)
            planted = Planted(rng, n, lo, 512 if self.tiny else 2304)
            path = self.workdir / f"planted{n}.dist"
            path.write_text(planted.text)
            self.files[n] = (planted, str(path))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def cleanup(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()

    # The expected results below come from the library (for rendering) or from
    # the reference (for every verdict and witness).

    def make_op(self, rng: random.Random, kind: str, n: int, r: int, verify: bool | None = None):
        """One call of ``kind`` at size ``n`` in round ``r``.  Rounds cycle through
        the four cases of `check` (valid or not, ``--verify`` or not) and the two
        of `equiv` (a rewrite or an independent statement), so every pass has
        the same mix of verdicts."""
        if verify is None:
            verify = n <= self.VERIFY_MAX_N
        pool = rng.sample(range(1, n + 1), rng.randint(3, min(n, 6)))
        k = raw_statement(rng, pool)
        ns = ["--n", str(n)]
        canon = lambda s: T.render_cmi(S.canonicalize(to_cmi(n, s)).as_cmi())
        if kind == "canon":
            return ["canon", statement_source(rng, *k), *ns], dict(code=0, out=canon(k) + "\n")
        if kind == "decompose":
            parts = S.decompose_to_cis(to_cmi(n, k))
            out = "".join(T.render_cmi(c) + "\n" for c in parts)
            argv = ["decompose", statement_source(rng, *k), *ns]
            seed = str(rng.randrange(1000))
            if verify:
                argv += ["--verify", "--seed", seed]
            return argv, dict(code=0, out=out)
        if kind in ("check", "entropy"):
            planted, path = self.files[n]
            valid = planted.valid_statement(rng)
            invalid = planted.invalid_statement(rng)
            if kind == "check":
                stmt, ok = (valid, True) if r % 2 == 0 else (invalid, False)
                argv = ["check", statement_source(rng, *stmt), *ns, "--dist", path]
                if r // 2 % 2 == 0:
                    argv.append("--verify")
                return argv, dict(code=0 if ok else 1, check=(planted, stmt, ok))
            single = (frozenset(), [frozenset(rng.sample(range(1, n + 1), rng.randint(1, 2)))])
            stmts = [single, valid, invalid]
            argv = ["entropy", *(statement_source(rng, *s) for s in stmts), *ns, "--dist", path]
            return argv, dict(code=0, entropy=(planted, stmts))
        if kind == "implies_yes":
            k2 = weakening(rng, *k)
            argv = ["implies", statement_source(rng, *k), statement_source(rng, *k2), *ns]
            seed = str(rng.randrange(1000))
            if verify:
                argv += ["--verify", "--seed", seed]
            return argv, dict(code=0, out="IMPLIES\n")
        if kind == "equiv" and r % 2 == 0:
            k2 = equivalent_rewrite(rng, *k)
        else:
            k2 = raw_statement(rng, pool)
        ref = R.PairReference(n, [k, k2])
        mk, mk2 = ref.mask(k), ref.mask(k2)
        argv = [kind.split("_")[0], statement_source(rng, *k), statement_source(rng, *k2), *ns]
        pair = (n, k, k2)
        if kind == "equiv":
            if mk == mk2:
                return argv, dict(code=0, out="EQUIVALENT\n")
            return argv, dict(code=1, verdict="NOT EQUIVALENT", witness=pair)
        implied = not R.separates(mk, mk2)
        if kind == "witness":
            if implied:
                return argv, dict(code=1, out="IMPLIES (no separating distribution exists)\n")
            return argv, dict(code=0, verdict=None, witness=pair)
        if implied:
            return argv, dict(code=0, out="IMPLIES\n")
        return argv, dict(code=1, verdict="DOES NOT IMPLY", witness=pair)

    def inputs(self):
        """Rounds of every kind in a seeded order.  In each pass every kind gets
        one n from each pair (3, 4), (5, 6), ..., (15, 16), in a seeded order;
        which one of a pair depends only on the pass, the kind and the pair, so
        every seed has the same mix of sizes."""
        rng = self.rng()
        sizes = {}
        for j, kind in enumerate(self.KINDS):
            sizes[kind] = [n + (self.pass_index + i + j) % 2 for i, n in enumerate(range(3, 17, 2))]
            rng.shuffle(sizes[kind])
        for r in range(self.ROUNDS):
            kinds = list(self.KINDS)
            rng.shuffle(kinds)
            for kind in kinds:
                yield self.make_op(rng, kind, sizes[kind][r], self.pass_index * self.ROUNDS + r)

    def call(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.tracer.span(f"cli.main.{argv[0]}", C.main, argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "cmikit.cli", *argv],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.workdir,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, rec: Recorder) -> None:
        self.tracer = rec.tracer
        for argv, want in self.inputs():
            if not rec.more():
                break
            rec.op(lambda: self.call(argv), lambda out: self.check(argv, want, *out))

    def probe(self, rec: Recorder) -> list[str]:
        """Untimed, in the first pass only: ``--verify`` calls at n >= 9.  They are
        not operations of the run, so a known refusal (exit 2) only gives a note;
        a wrong output still makes the run incorrect."""
        if self.pass_index != 0:
            return []
        rng = random.Random(f"{self.name}:{self.seed}:probe")
        notes = []
        for i in range(self.PROBES):
            kind = ("implies_yes", "decompose")[i % 2]
            n = rng.randint(self.VERIFY_MAX_N + 1, 16)
            argv, want = self.make_op(rng, kind, n, i, verify=True)
            try:
                self.check(argv, want, *self.call(argv))
            except Failed as exc:
                notes.append(f"probe at n={n}, not counted: {exc}")
            except Wrong as exc:
                rec._fail(rec.wrong, f"probe at n={n}: {exc}")
            else:
                notes.append(f"probe at n={n}: {argv[0]} --verify passed")
        return notes

    @staticmethod
    def check(argv, want, code, out, err) -> bool | None:
        # The verdict is whether the implication, equivalence or validity holds;
        # `witness` exits 0 when it prints one, that is when it does not.
        verdict = {0: True, 1: False}.get(code) if argv[0] in ("equiv", "implies", "check") else None
        if argv[0] == "witness":
            verdict = {0: False, 1: True}.get(code)
        if code == 2:
            raise Failed(f"{' '.join(argv[:1])} exited 2: {err.strip()[-200:]}")
        expect(code == want["code"], f"{argv!r} exited {code}, expected {want['code']}")
        if "out" in want:
            expect(out == want["out"], f"{argv!r} printed {out!r}, expected {want['out']!r}")
        if "witness" in want:
            n, k, k2 = want["witness"]
            lines = out.splitlines(keepends=True)
            if want["verdict"] is not None:
                expect(lines and lines[0] == want["verdict"] + "\n", f"{argv!r} printed {out!r}")
                lines = lines[1:]
            try:
                _, pmf = R.parse_distribution_text("".join(lines))
            except ValueError as exc:
                raise Wrong(f"{argv!r} printed no distribution: {exc}") from None
            problem = R.check_witness(n, pmf, k, k2)
            if problem is not None and argv[0] == "equiv":
                problem = R.check_witness(n, pmf, k2, k)
            expect(problem is None, f"{argv!r}: {problem}")
        if "check" in want:
            planted, stmt, ok = want["check"]
            m = re.fullmatch(r"(VALID|INVALID)\nJ = (-?[0-9.]+)\n", out)
            expect(m is not None, f"{argv!r} printed {out!r}")
            expect((m.group(1) == "VALID") == ok, f"{argv!r} said {m.group(1)}")
            expect((abs(float(m.group(2))) <= TOLERANCE) == ok, f"{argv!r} printed J={m.group(2)}")
        if "entropy" in want:
            planted, stmts = want["entropy"]
            lines = out.splitlines()
            expect(len(lines) == len(stmts), f"{argv!r} printed {out!r}")
            for line, (cond, blocks) in zip(lines, stmts):
                label, _, value = line.partition(" = ")
                expect(re.fullmatch(r"-?[0-9.]+", value) is not None, f"{argv!r} printed {line!r}")
                if len(blocks) <= 1:
                    ref = R.cond_entropy_bits(planted.pmf, blocks[0] if blocks else (), cond)
                    name = "H" + R.statement_text(cond, blocks)[1:]
                else:
                    ref = R.defect_bits(planted.pmf, cond, blocks)
                    name = "J" + R.statement_text(cond, blocks)[1:]
                expect(label == name, f"{argv!r} labelled {label!r}, expected {name!r}")
                expect(abs(float(value) - ref) <= TOLERANCE, f"{argv!r}: {line!r}, expected {ref!r}")
        return verdict


WORKLOADS = {w.name: w for w in (Census, RawPairs, Oracle, Cli)}

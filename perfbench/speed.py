"""The machine's current speed, so that times can be given at a fixed speed.

On a shared virtual machine the speed of one core drifts by a quarter or
more over seconds, in CPU time as well as in wall time: the host gives the
core's other hyperthread, its caches and its clock to other guests.  The
benchmark therefore times a fixed loop between operations and
scales every time it reports to ``REFERENCE_LOOPS_PER_S``: a time ``t``
measured while the loop ran at ``r`` loops per second is reported as
``t * (r / REFERENCE_LOOPS_PER_S) ** ELASTICITY``.  The loop touches nothing
of cmikit, so a change to the program moves the scaled times exactly as it
moves the raw ones.
"""

from __future__ import annotations

from fractions import Fraction

# The loop's speed, in loops per second, at which reported times hold; about
# the median of a 2-vCPU cloud VM running Python 3.11.
REFERENCE_LOOPS_PER_S = 1200.0
# How far the program's speed follows the loop's: when the loop runs twice as
# fast, the workloads' operations run about 2 ** 0.7 times as fast.  A least-
# squares fit of log pass speed on log loop speed, over the passes of ten runs
# of each workload on a 2-vCPU cloud VM, gave 0.54 to 0.76; scaling by the
# loop's whole speed change over-corrects and leaves the drift in the figures.
ELASTICITY = 0.7


def _loop() -> Fraction:
    """The fixed work: what cmikit's own work is made of, small frozensets, dict
    lookups and exact fractions, so that contention slows it alike."""
    seen: dict[frozenset, int] = {}
    total = Fraction(0)
    for i in range(1, 200):
        key = frozenset((i % 13, i % 7, i % 5))
        seen[key] = seen.get(key, 0) + 1
        total += Fraction(i % 7 + 1, i % 11 + 1)
    return total


def loops_per_s(clock, loops: int) -> float:
    """Rate of ``loops`` runs of the fixed loop, timed with ``clock``."""
    t0 = clock()
    for _ in range(loops):
        _loop()
    return loops / (clock() - t0)


def factor(rate: float) -> float:
    """Multiplier from times measured at loop speed ``rate`` to reference times."""
    return (rate / REFERENCE_LOOPS_PER_S) ** ELASTICITY

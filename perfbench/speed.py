"""The machine's current speed, from a fixed reference loop.

The benchmark shares a small virtual machine whose speed changes by up to
2x for minutes at a time as other tenants load the host: one pass over the
same `orbit` documents took 3.7 s in one phase and 7.2 s in another, while
the ratio of document time to the time of this loop, run between the
documents, moved by 5%.  The benchmark therefore reports times at the
reference speed, the speed at which this loop takes REF_S:

    seconds at the reference speed = seconds measured * REF_S / loop seconds

where the loop is timed in the same process, next to what it scales.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Iterations of the loop, and its time at the reference speed.  REF_S is a
# round unit, not the loop's time on any one machine: on a shared 2.1 GHz
# Xeon vCPU with Python 3.11 the loop took 1.4-2.7 ms (median per pass), so
# times at the reference speed read about half the wall times there.
REF_ITERATIONS = 350
REF_S = 0.001


def reference_loop():
    """Seconds one fixed run of interpreted work takes now: integer and
    rational arithmetic, list and dict building and a sort, the kinds of
    work the program does.  A loop of integer arithmetic alone, which stays
    in the first-level cache, followed the machine's speed less closely."""
    t0 = time.perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(1, REF_ITERATIONS):
        table[i] = [i * j % 11 for j in range(8)]
        acc += Fraction(i % 13 + 1, i)
    sorted(table.items(), key=lambda kv: (kv[1][3], acc.numerator % kv[0]))
    return time.perf_counter() - t0


def at_reference_speed(seconds, loop_seconds):
    """`seconds` measured while the loop took `loop_seconds`, at REF_S."""
    return seconds * REF_S / loop_seconds

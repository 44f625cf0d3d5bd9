"""Reference loop that measures how fast the CPU runs right now.

The vCPUs of a shared host change speed by 10-50 % over seconds, as
other guests load the same cores (see README, "Spread").  Every timed
operation is bracketed by two runs of this loop, and its CPU time is
rescaled to the speed at which the loop takes REFERENCE_S seconds:

    scaled = cpu_s * REFERENCE_S / mean(loop before, loop after)

The loop is the benchmark's own code and never calls the program, so a
change to the program moves the scaled time and a change of machine
speed mostly does not.  Its work is a fixed mix of the three kinds the
program spends its time on: interpreted small-integer arithmetic (the
inequality scans, mpmath without gmpy2), interpreted multiply-adds of
few-thousand-bit integers by small ones (the series kernel) and
Karatsuba products of 63 000-bit integers (the factorial-scaled scan).
The three parts take about 10, 25 and 25 ms on the reference machine.
With all three, the medians of 30 s windows of a round spread three to
six times less than the unscaled CPU times did (README, "Spread").
"""

from __future__ import annotations

import time

REFERENCE_S = 0.06

_SMALL = list(range(1, 257))
_MEDIUM = [3**k for k in range(1000, 1256)]
_LARGE = 3**40000


def _work() -> int:
    acc = 0
    for i in range(100000):
        acc += i * i % 7
    for _ in range(650):
        for a, b in zip(_SMALL, _MEDIUM):
            acc += a * b
    for i in range(20):
        acc ^= (_LARGE + i) * (_LARGE - i)
    return acc


def reference_s() -> float:
    """CPU seconds of one pass of the reference loop."""
    t0 = time.process_time()
    _work()
    return time.process_time() - t0


def scale(cpu_s: float, before: float, after: float) -> float:
    """`cpu_s` at the reference speed, given the loop's times around it."""
    return cpu_s * 2 * REFERENCE_S / (before + after)

"""Exact big-integer inequality scanners.

Three predicates over a positive integer sequence c:

    log-concavity:   c(n)^2 >= c(n-1) c(n+1)
    Bessenrodt-Ono:  c(a) c(b) > c(a+b) over pairs 1 <= a <= b
    log-convexity:   c(n)^2 <= c(n-1) c(n+1)

All comparisons are exact integer arithmetic; equality cases are
reported separately from strict violations, never folded into them.
A comparison of two products of long operands is first decided on the
leading bits of each operand, which bound each product to an interval;
only when the intervals overlap (every equality among them) are the
full products formed.  The pair scan screens in four steps, each only
on what the one before left open: blocks of consecutive b are ruled out
by bounds on the bit lengths over the block, then single pairs by their
bit lengths, then the leading bits, and last the exact products.  Scans
run serially: the `jobs` argument is checked and accepted, but neither
the report nor the work depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import sub

from .series import BigIntSeq

# Leading bits kept of each operand by the screen.
_LEAD_BITS = 64
# Below this many bits in the left product the exact comparison costs
# about as much as the screen or less (measured per comparison: the two
# cost the same at operands of 512-768 bits; at 35 000 bits the screen
# is about 400 times cheaper).
_SCREEN_BITS = 1024
# Consecutive values of b that the pair scan rules out together.
_BLOCK = 64


@dataclass(frozen=True)
class ScanReport:
    """Result of one inequality scan over a window.

    violations and equalities are ascending (lexicographic for pairs).
    minimal_threshold is the smallest n0 with no violation at index
    (or pair sum) >= n0 inside the scanned window; the scan certifies
    nothing beyond hi.
    """

    family: str
    property: str
    lo: int
    hi: int
    violations: tuple
    equalities: tuple
    minimal_threshold: int

    def __post_init__(self) -> None:
        if list(self.violations) != sorted(self.violations):
            raise ValueError("violations must be sorted ascending")


def report_to_json(report: ScanReport) -> str:
    import json

    obj = {
        "family": report.family,
        "property": report.property,
        "range": [report.lo, report.hi],
        "violations": [list(v) if isinstance(v, tuple) else v for v in report.violations],
        "equalities": [list(v) if isinstance(v, tuple) else v for v in report.equalities],
        "minimal_threshold": report.minimal_threshold,
    }
    return json.dumps(obj, indent=2)


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError("jobs must be >= 1")


def _check_window(seq: BigIntSeq, lo: int, hi: int) -> None:
    if lo > hi:
        raise ValueError("empty scan window")
    if lo < seq.offset or hi > seq.last_index():
        raise ValueError(f"sequence covers [{seq.offset}, {seq.last_index()}], "
                         f"scan needs [{lo}, {hi}]")
    for i, v in enumerate(seq.values[lo - seq.offset: hi - seq.offset + 1]):
        if v <= 0:
            raise ValueError(f"non-positive value at n={lo + i}")


def _lead(x: int):
    """(lo, hi, s) with lo * 2^s <= x <= hi * 2^s for x > 0; lo keeps the
    leading _LEAD_BITS bits of x, and hi == lo when the shift is exact."""
    s = x.bit_length() - _LEAD_BITS
    if s <= 0:
        return x, x, 0
    t = x >> s
    return t, t + 1, s


def _screen(w1: int, x1: int, x2: int, w2: int, y1: int, y2: int) -> int:
    """Sign of w1 x1 x2 - w2 y1 y2 for positive integers, decided on the
    leading bits of each operand; 0 when the two products' intervals
    overlap and only the exact products can decide."""
    l1, h1, s1 = _lead(x1)
    l2, h2, s2 = _lead(x2)
    m1, k1, r1 = _lead(y1)
    m2, k2, r2 = _lead(y2)
    left_lo, left_hi = w1 * l1 * l2, w1 * h1 * h2
    right_lo, right_hi = w2 * m1 * m2, w2 * k1 * k2
    e = s1 + s2 - r1 - r2
    if e > 0:
        left_lo <<= e
        left_hi <<= e
    elif e < 0:
        right_lo <<= -e
        right_hi <<= -e
    if left_hi < right_lo:
        return -1
    if right_hi < left_lo:
        return 1
    return 0


def _window_extrema(xs: list, width: int) -> tuple[list, list]:
    """(hi, lo) with hi[i] = max(xs[i: i + width]) and lo[i] the min, the
    windows cut at the end of xs; about log2(width) passes over xs."""
    n = len(xs)
    hi = lo = xs
    k = 1  # hi and lo hold windows of width k
    while k < width and k < n:
        s = min(k, width - k)
        # The own tail [n - s:] pads the shift: for i >= n - s the window
        # of width k at i already reaches the end (i + k >= n), so it is
        # paired with itself; s <= k < n keeps n - s positive.
        hi = list(map(max, hi, hi[s:] + hi[n - s:]))
        lo = list(map(min, lo, lo[s:] + lo[n - s:]))
        k += s
    return hi, lo


def _second_order_scan(seq: BigIntSeq, n_min: int, n_max: int, w_mid, w_side,
                       convex: bool, label: str) -> ScanReport:
    """Compare w_mid(n) c(n)^2 with w_side(n) c(n-1) c(n+1) for n in
    [n_min, n_max]; w_mid and w_side iterate over the weights at n_min,
    n_min + 1, ..."""
    if n_min > n_max:
        raise ValueError("empty scan window")
    _check_window(seq, n_min - 1, n_max + 1)
    v = seq.values
    i = n_min - seq.offset
    k = n_max - n_min + 1
    viols = []
    eqs = []
    for n, wm, ws, x, y, z in zip(range(n_min, n_max + 1), w_mid, w_side,
                                  v[i: i + k], v[i - 1: i - 1 + k], v[i + 1: i + 1 + k]):
        if 2 * x.bit_length() >= _SCREEN_BITS:
            sign = _screen(wm, x, x, ws, y, z)
            if sign:
                if (sign > 0) == convex:
                    viols.append(n)
                continue
        mid = wm * x * x
        side = ws * y * z
        if mid == side:
            eqs.append(n)
        elif (mid > side) == convex:
            viols.append(n)
    threshold = (viols[-1] + 1) if viols else n_min
    prop = "log-convexity" if convex else "log-concavity"
    return ScanReport(label, prop, n_min, n_max, tuple(viols), tuple(eqs), threshold)


def log_concavity_scan(
    seq: BigIntSeq, n_min: int, n_max: int, jobs: int = 1
) -> ScanReport:
    """Scan c(n)^2 >= c(n-1) c(n+1) for n in [n_min, n_max]; requires
    positive values on [n_min-1, n_max+1]."""
    _check_jobs(jobs)
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    return _second_order_scan(seq, n_min, n_max, repeat(1), repeat(1),
                              False, seq.label)


def log_convexity_scan(
    seq: BigIntSeq, n_min: int, n_max: int, jobs: int = 1
) -> ScanReport:
    """Scan c(n)^2 <= c(n-1) c(n+1) for n in [n_min, n_max] (intended for
    factorial-scaled counts n! N(n), whose report
    _factorial_log_convexity_scan gives without forming them); requires
    n_min > 1."""
    _check_jobs(jobs)
    if n_min <= 1:
        raise ValueError("n_min must be > 1")
    return _second_order_scan(seq, n_min, n_max, repeat(1), repeat(1),
                              True, seq.label)


def _factorial_log_convexity_scan(seq: BigIntSeq, n_min: int, n_max: int) -> ScanReport:
    """The report of log_convexity_scan(factorial_scaled(seq), n_min, n_max),
    without forming n! c(n): dividing both sides by (n-1)! n! turns
    (n! c(n))^2 <= (n-1)! c(n-1) (n+1)! c(n+1) into
    n c(n)^2 <= (n+1) c(n-1) c(n+1), equalities included."""
    if n_min <= 1:
        raise ValueError("n_min must be > 1")
    return _second_order_scan(seq, n_min, n_max, range(n_min, n_max + 1),
                              range(n_min + 1, n_max + 2), True, seq.label + "-scaled")


def bessenrodt_ono_scan(seq: BigIntSeq, max_sum: int, jobs: int = 1) -> ScanReport:
    """Scan c(a) c(b) > c(a+b) over all pairs 1 <= a <= b, a+b <= max_sum.

    minimal_threshold is over pair sums: the smallest s0 such that no
    violating pair has a+b >= s0 within the window.
    """
    _check_jobs(jobs)
    if max_sum < 2:
        raise ValueError("max_sum must be >= 2")
    _check_window(seq, 1, max_sum)
    # c[k] = c(k) for 1 <= k <= max_sum (the offset is 0 or 1)
    c = (0,) * seq.offset + seq.values[: max_sum + 1 - seq.offset]
    bits = [x.bit_length() for x in c]
    # wmax[i] >= L(a+b) and wmin[j] <= L(b) for a+b in [i, i+_BLOCK) and
    # b in [j, j+_BLOCK), so wmax[a+b0] - wmin[b0] bounds L(a+b) - L(b)
    # over the block of b starting at b0, whatever the sequence.
    wmax, wmin = _window_extrema(bits, _BLOCK)
    viols = []
    eqs = []
    for a in range(1, max_sum // 2 + 1):
        ca = c[a]
        # c(a) c(b) >= 2^(L(a) + L(b) - 2) and c(a+b) < 2^L(a+b) for bit
        # lengths L, so the pair holds strictly unless
        # L(a+b) - L(b) > L(a) - 2; only those pairs are compared.
        room = bits[a] - 2
        top = max_sum - a + 1
        open_blocks = compress(range(a, top, _BLOCK),
                               map(room.__lt__, map(sub, wmax[2 * a:: _BLOCK],
                                                    wmin[a:: _BLOCK])))
        for b0 in open_blocks:
            b1 = min(b0 + _BLOCK, top)
            open_b = compress(range(b0, b1),
                              map(room.__lt__, map(sub, bits[a + b0: a + b1],
                                                   bits[b0: b1])))
            for b in open_b:
                cb = c[b]
                cab = c[a + b]
                if bits[a] + bits[b] >= _SCREEN_BITS:
                    sign = _screen(1, ca, cb, 1, cab, 1)
                    if sign:
                        if sign < 0:
                            viols.append((a, b))
                        continue
                prod = ca * cb
                if prod < cab:
                    viols.append((a, b))
                elif prod == cab:
                    eqs.append((a, b))
    threshold = (max(a + b for a, b in viols) + 1) if viols else 2
    return ScanReport(
        seq.label, "bessenrodt-ono", 1, max_sum, tuple(viols), tuple(eqs), threshold
    )

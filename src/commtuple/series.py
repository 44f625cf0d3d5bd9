"""Exact integer coefficient sequences of the products
G(q) = prod_{n>=1} (1 - q^n)^{-f(n)}.

Taking the logarithmic derivative of G gives
    n p(n) = sum_{k=1}^{n} c(k) p(n-k),        c(k) = sum_{d|k} d f(d),
with p(0) = 1, and every division by n is exact; the divmod check in
the kernel doubles as an integrality witness for each computed row.
This recurrence is the hot path of the whole package.  The kernel
`_run_kernel` finishes blocks of rows at a time: the part of each row
that depends on rows before the block is summed for the whole block at
once, in fixed-width slots of one big integer, and the rest row by row.
`_expand_py.expand_kernel` is the plain row-by-row oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from itertools import accumulate
from math import comb, factorial
from operator import mul

from .arith import (
    ExponentSpec,
    SubgroupCount,
    TableExponent,
    evaluate_exponent,
    family_label,
)

# rows finished per packed pass, and the widest slot (bits) at which a
# packed pass still beats one dot product per row
_BLOCK = 128
_PACK_MAX_BITS = 1024


@dataclass(frozen=True)
class BigIntSeq:
    """Exact integer sequence on offset..offset+len(values)-1."""

    values: tuple[int, ...]
    offset: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> int:
        i = n - self.offset
        if i < 0 or i >= len(self.values):
            raise IndexError(f"index {n} outside {self.offset}..{self.last_index()}")
        return self.values[i]

    def last_index(self) -> int:
        return self.offset + len(self.values) - 1


def weighted_divisor_table(f_table: list[int]) -> list[int]:
    """c(k) = sum_{d|k} d f(d) for k = 1..N, given (0, f(1), ..., f(N))."""
    n_max = len(f_table) - 1
    c = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        fd = f_table[d]
        if fd:
            step = d * fd
            for m in range(d, n_max + 1, d):
                c[m] += step
    return c


def _packed_past(c: list[int], p: list[int], a: int, m: int, s8: int) -> list[int]:
    """sum_{k>j} c(k) p(a+j-k) for j = 0..m-1: the part of rows a..a+m-1
    that depends only on the known rows p(0..a-1).

    Slot j of the window w_k holds p(a+j-k), zero where that row is not
    known, so one pass over k adds c(k) w_k to every row at once.  The
    caller picks the slot width 8*s8 so that no slot sum reaches the
    next slot, which needs c >= 0.
    """
    width = 8 * s8
    mask = (1 << (m * width)) - 1
    acc = w = 0
    for ck, pk in zip(c[1 : a + m], p[a - 1 :: -1] + [0] * (m - 1)):
        w = ((w << width) & mask) | pk
        if ck:
            acc += ck * w
    raw = acc.to_bytes(m * s8, "little")
    return [int.from_bytes(raw[i : i + s8], "little") for i in range(0, m * s8, s8)]


def _run_kernel(c: list[int], n_max: int) -> list[int]:
    """p(0..n_max) with n p(n) = sum_{k=1}^{n} c(k) p(n-k), p(0) = 1.

    Rows are finished in blocks of _BLOCK.  A block's dependence on
    earlier rows comes from one packed pass whose slots are wide enough
    to hold every row's sum: bit length of the largest row so far plus
    that of sum c(k) over the block, which bounds each partial sum
    while c >= 0.  A signed c, or slots wider than _PACK_MAX_BITS, take
    blocks of one row, each one dot product.  Every row is divided
    exactly by n or the table is rejected.
    """
    p = [0] * (n_max + 1)
    p[0] = 1
    packable = min(c[1 : n_max + 1], default=0) >= 0
    c_sum = list(accumulate(c[: n_max + 1])) if packable else []
    top = 1  # largest bit length among the rows found so far
    a = 1
    while a <= n_max:
        m = min(_BLOCK, n_max + 1 - a)
        past = None
        if packable and m > 1:
            s8 = (top + c_sum[a + m - 1].bit_length() + 8) >> 3
            if 8 * s8 <= _PACK_MAX_BITS:
                past = _packed_past(c, p, a, m, s8)
        if past is None:
            m = 1
            past = [sum(map(mul, c[1 : a + 1], p[a - 1 :: -1]))]
        for j in range(m):
            n = a + j
            s = past[j] + sum(map(mul, c[1 : j + 1], p[n - 1 : a - 1 : -1]))
            q, r = divmod(s, n)
            if r:
                raise ArithmeticError(f"inexact division at n={n}")
            p[n] = q
            top = max(top, q.bit_length())
        a += m
    return p


def expand_product(spec: ExponentSpec, n_max: int) -> BigIntSeq:
    """Coefficients p(0..n_max) of prod (1 - q^n)^{-f(n)}."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    f = evaluate_exponent(spec, n_max)
    c = weighted_divisor_table(f)
    return BigIntSeq(_run_kernel(c, n_max), 0, family_label(spec))


def expand_product_direct(spec: ExponentSpec, n_max: int) -> BigIntSeq:
    """Same coefficients by multiplying the truncated factors directly.

    (1 - q^n)^{-f} = sum_j binom(f+j-1, j) q^{nj}.  Quadratic in n_max
    with no recurrence; independent route used to pin expand_product.
    """
    if not 0 <= n_max <= 500:
        raise ValueError("n_max must be in 0..500 for the direct route")
    f = evaluate_exponent(spec, n_max)
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        fn = f[n]
        if fn == 0:
            continue
        factor = [0] * (n_max + 1)
        for j in range(0, n_max // n + 1):
            factor[n * j] = comb(fn + j - 1, j)
        new = [0] * (n_max + 1)
        for i, pi in enumerate(p):
            if pi:
                for j in range(0, (n_max - i) // n + 1):
                    new[i + n * j] += pi * factor[n * j]
        p = new
    return BigIntSeq(p, 0, family_label(spec))


def pentagonal_p(n_max: int) -> BigIntSeq:
    """Partition numbers p(0..n_max) via the pentagonal-number recurrence
    p(n) = sum_{j>=1} (-1)^{j+1} [p(n - j(3j-1)/2) + p(n - j(3j+1)/2)]."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > n:
                break
            sign = 1 if j % 2 == 1 else -1
            total += sign * p[n - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return BigIntSeq(p, 0, "partitions")


def ntuple_exponent(ell: int, n_max: int) -> ExponentSpec:
    """Exponent spec whose product generates N_ell(n).

    For ell >= 2 this is the rank ell-1 subgroup-count weight; ell = 1
    degenerates to the delta weight at n = 1 (G = 1/(1-q), N_1 = 1).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell == 1:
        return TableExponent((1,) + (0,) * max(0, n_max - 1))
    return SubgroupCount(ell - 1)


def ntuple_sequence(ell: int, n_max: int) -> BigIntSeq:
    """N_ell(0..n_max): commuting ell-tuples in the symmetric group on n
    letters, divided by n! (an integer sequence)."""
    seq = expand_product(ntuple_exponent(ell, n_max), n_max)
    return BigIntSeq(seq.values, 0, f"ntuple-{ell}")


def commuting_tuple_count(ell: int, n: int) -> int:
    """n! N_ell(n): pairwise-commuting ell-tuples of permutations.

    Each call rebuilds the whole sequence N_ell(0..n); for several n, take
    the values from one ntuple_sequence(ell, n_max) instead."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return factorial(n) * ntuple_sequence(ell, n)[n]


def factorial_scaled(seq: BigIntSeq) -> BigIntSeq:
    """(n! a_n) for a sequence indexed from its offset."""
    out = []
    f = factorial(seq.offset)
    for i, v in enumerate(seq.values):
        n = seq.offset + i
        if i > 0:
            f *= n
        out.append(f * v)
    return BigIntSeq(out, seq.offset, seq.label + "-scaled")


# --- brute-force oracle over explicit permutations ---


def _all_perms(n: int) -> list[tuple[int, ...]]:
    import itertools

    return list(itertools.permutations(range(n)))


def _commutes(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    return all(p[q[i]] == q[p[i]] for i in range(len(p)))


def brute_force_commuting(ell: int, n: int) -> int:
    """|{(pi_1..pi_ell) pairwise commuting}| by direct enumeration.

    Supported for ell <= 3, n <= 5.  For ell = 3, n = 5 the outer loop
    runs over conjugacy-class representatives and the rest of the tuple
    over the centralizer (conjugation preserves the count); below that
    size plain nested loops are fast enough.
    """
    if not 1 <= ell <= 3:
        raise ValueError("ell must be in 1..3")
    if not 0 <= n <= 5:
        raise ValueError("n must be in 0..5")
    if n == 0:
        return 1
    perms = _all_perms(n)
    if ell == 1:
        return len(perms)
    if ell == 2:
        return sum(1 for p in perms for q in perms if _commutes(p, q))
    if n < 5:
        return sum(
            1
            for p in perms
            for q in perms
            if _commutes(p, q)
            for r in perms
            if _commutes(p, r) and _commutes(q, r)
        )
    # n = 5: group by cycle type, count one representative per class
    def cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
        seen = [False] * n
        lens = []
        for i in range(n):
            if not seen[i]:
                j, c = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
                    c += 1
                lens.append(c)
        return tuple(sorted(lens))

    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for p in perms:
        classes.setdefault(cycle_type(p), []).append(p)
    total = 0
    for members in classes.values():
        rep = members[0]
        cent = [q for q in perms if _commutes(rep, q)]
        pairs = sum(1 for q in cent for r in cent if _commutes(q, r))
        total += len(members) * pairs
    return total


# --- serialization ---


def _int_str(v: int) -> str:
    """str(v), also for values past CPython's limit on the digits of an
    int-to-str conversion: decimal converts exactly and has no limit."""
    try:
        return str(v)
    except ValueError:
        return str(Decimal(v))


def seq_to_csv(seq: BigIntSeq) -> str:
    lines = ["n,value"]
    for i, v in enumerate(seq.values):
        lines.append(f"{seq.offset + i},{_int_str(v)}")
    return "\n".join(lines) + "\n"


def seq_to_json(seq: BigIntSeq) -> str:
    """JSON array of decimal strings (values can exceed double range)."""
    return json.dumps([_int_str(v) for v in seq.values], separators=(",", ":")) + "\n"

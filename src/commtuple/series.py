"""Exact integer coefficient sequences of the products
G(q) = prod_{n>=1} (1 - q^n)^{-f(n)}.

Taking the logarithmic derivative of G gives
    n p(n) = sum_{k=1}^{n} c(k) p(n-k),        c(k) = sum_{d|k} d f(d),
with p(0) = 1, and every division by n is exact; the divmod check in
the kernel doubles as an integrality witness for each computed row.
This recurrence is the hot path of the whole package.  The kernel
`_run_kernel` solves the rows by divide and conquer: the share of a
solved left half in every row of the right half is a product of two
polynomials per piece of the left rows' digits, each formed by
Kronecker substitution in stdlib `decimal` (libmpdec multiplies large
operands by number-theoretic transform, where Python `int` has only
Karatsuba), and short row ranges are finished by dot products.  One
planner, `_Expansion.plan`, decides every piece: its digits, _SLICE
of them or more where its product would leave the transform libmpdec
pads it to partly empty (the piece then fills that transform, which
costs the same); its rows, from the first one that has it, so the
products cover about the area under the table's digit curve rather
than its bounding box; and its Kronecker slot.  The packed sums hold
only while every c(k) >= 0, which every ExponentSpec gives (its
weights f are non-negative), so the kernel refuses a negative c(k).
`oracles.expand_kernel` is the plain row-by-row oracle, signed c
included.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from math import factorial
from operator import mul

from .arith import (
    ExponentSpec,
    Record,
    SubgroupCount,
    TableExponent,
    evaluate_exponent,
)


class BigIntSeq(Record):
    """Exact integer sequence on offset..offset+len(values)-1."""

    __slots__ = ("values", "offset", "label")

    def __init__(self, values: tuple[int, ...], offset: int = 0, label: str = "") -> None:
        object.__setattr__(self, "values", tuple(int(v) for v in values))
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "label", label)

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


def _pack(xs: list[Decimal], width: int) -> Decimal:
    """sum_j xs[j] 10^(width j), each xs[j] < 10^width: pairs of
    neighbours are joined level by level, so each level costs one pass
    over the digits.  This and _split are exact under _run_kernel's
    decimal context."""
    while len(xs) > 1:
        joined = [lo + hi.scaleb(width) for lo, hi in zip(xs[::2], xs[1::2])]
        if len(xs) % 2:
            joined.append(xs[-1])
        xs = joined
        width *= 2
    return xs[0]


def _split(d: Decimal, k: int) -> tuple[Decimal, Decimal]:
    """(d mod 10^k, d // 10^k) for an integral d >= 0."""
    hi = d.shift(-k)
    return d - hi.scaleb(k), hi


def _unpack(d: Decimal, count: int, width: int, out: list[Decimal]) -> None:
    """Append the base-10^width digits 0..count-1 of d to out; the last
    one takes everything above."""
    if count == 1:
        out.append(d)
        return
    half = count // 2
    lo, hi = _split(d, half * width)
    _unpack(lo, half, width, out)
    _unpack(hi, count - half, width, out)


def _middle_product(xs: list[Decimal], ys: list[Decimal], count: int,
                    width: int) -> list[Decimal]:
    """Coefficients len(xs) - 1 .. len(xs) - 2 + count of the product of
    the polynomials with coefficients xs and ys (lowest first, all >= 0),
    by Kronecker substitution in slots of `width` digits, which must hold
    every coefficient of the product."""
    prod = _pack(xs, width) * _pack(ys, width)
    prod = _split(prod, (len(xs) - 1) * width)[1]
    prod = _split(prod, count * width)[0]
    out: list[Decimal] = []
    _unpack(prod, count, width, out)
    return out


def _exact_context() -> Context:
    """A decimal context in which the kernel's operations are exact."""
    return Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _dec_int(d: Decimal) -> int:
    """int(d) for an integral d, through its digit string while
    CPython's int/str digit limit allows: about three times faster than
    int(d) at a few thousand digits."""
    try:
        return int(str(d))
    except ValueError:
        return int(d)


# most rows a leaf finishes by one dot product each: a larger range
# splits, so every left half of a cross term holds at least 96 rows,
# enough for a Kronecker product to beat dot products; digits a piece of
# a left row starts from, a cross term making one product per piece: of
# 150, 300 and 600, 300 built N_4 and N_5 to 10^4 fastest, and keeps
# N_2 and N_3 to 3000 (up to 209 digits) in one piece.  A piece whose
# product passes 1024 words then widens to fill the transform length
# that product already needs (_piece_width); narrowing pieces to reach
# a shorter transform instead cut N_3's rows in two and made it up to
# 40 % slower.
_LEAF = 191
_SLICE = 300

# libmpdec keeps a coefficient in words of 19 digits.  It multiplies by
# Karatsuba while the two factors hold at most 1024 words together, and
# above that by number-theoretic transform, padded to the least 2^k or
# 3 2^k words that holds the product, so the cost of a product follows
# that length and not its own size (one product, process CPU: 26.5 ms at
# 32 000 words and 44.0 ms at 33 000, 44.2 at 48 000 and 55.7 at 50 000,
# 55.8 at 64 000 and 96.5 at 66 000)
_WORD = 19
_KARATSUBA_WORDS = 1024


def _transform_len(words: int) -> int:
    """Words libmpdec pads a product of more than 1024 words to: the
    least 2^j or 3 2^j not below it."""
    k = (words - 1).bit_length()
    three = 3 << (k - 2)
    return three if words <= three else 1 << k


def _headroom(nx: int, c_digits: int) -> int:
    """Digits a Kronecker slot holds beyond its piece's: c_digits, those of
    the largest c(k) it meets, those of nx (it sums nx products), one spare."""
    return c_digits + len(str(nx)) + 1


def _packed_words(nx: int, ny: int, extra: int, width: int) -> int:
    """Words of the two factors _middle_product packs from nx pieces
    below 10^width and ny values c(k) below 10^extra, in slots of
    width + extra digits (extra from _headroom).  The top slot of each
    factor holds only its own value."""
    slot = width + extra
    x_digits = (nx - 1) * slot + width
    y_digits = (ny - 1) * slot + extra
    return -(-x_digits // _WORD) - (-y_digits // _WORD)


def _piece_width(nx: int, ny: int, extra: int, left: int) -> int:
    """Digits of a piece of nx left rows that meets ny values c(k), with
    `left` digits of the widest row at or above its first one.  It is
    min(_SLICE, left) wide, or, when the Kronecker product of that piece
    passes 1024 words, as wide as it can be up to `left` while its
    product (_packed_words) still fits the same transform length, which
    costs the same."""
    width = min(_SLICE, left)
    words = _packed_words(nx, ny, extra, width)
    if words <= _KARATSUBA_WORDS:
        return width
    room = _transform_len(words)
    # width fits the room; left + 1 stands for a width that does not
    fits, over = width, left + 1
    while over - fits > 1:
        w = (fits + over) // 2
        if _packed_words(nx, ny, extra, w) <= room:
            fits = w
        else:
            over = w
    return fits


class _Expansion:
    """State of one _run_kernel call.  Row n's share of the rows solved
    so far waits in dacc[n] until its leaf is solved.  The recursion
    lives in methods, not nested functions: a recursive closure is a
    reference cycle, which would keep these tables alive until the
    cyclic collector ran."""

    def __init__(self, c: list[int], n_max: int) -> None:
        self.c = c
        self.p = [1] + [0] * n_max
        self.dp = [Decimal(1)] + [None] * n_max
        self.dc = [Decimal(v) for v in c[: n_max + 1]]
        self.dacc = [Decimal(0)] * (n_max + 1)

    def solve(self, l: int, r: int) -> None:
        if r - l > _LEAF:
            mid = (l + r) // 2
            self.solve(l, mid)
            self.cross(l, mid, r)
            self.solve(mid, r)
            return
        c, p, dp, dacc = self.c, self.p, self.dp, self.dacc
        for n in range(max(l, 1), r):
            s = _dec_int(dacc[n]) + sum(map(mul, p[l:n], c[n - l : 0 : -1]))
            q, rem = divmod(s, n)
            if rem:
                raise ArithmeticError(f"inexact division at n={n}")
            p[n] = q
            dp[n] = Decimal(q)
            dacc[n] = None

    def plan(self, l: int, mid: int, r: int) -> list[tuple[int, int, int]]:
        """(first digit, first row - l, slot width) of each piece that the
        cross term of rows [l, mid) into [mid, r) cuts the left rows
        into: a piece takes _piece_width digits of the rows from the
        first one that has its first digit, the last piece ends at the
        top of the widest row, and its slot holds the piece's digits and
        _headroom more."""
        tops = list(map(Decimal.adjusted, self.dp[l:mid]))
        widest = max(tops) + 1
        plan: list[tuple[int, int, int]] = []
        start = 0
        while start < widest:
            a = next(i for i, top in enumerate(tops) if top >= start)
            # rows l+a..mid-1 meet c(1..r-1-l-a)
            nx, ny = mid - l - a, r - l - a - 1
            extra = _headroom(nx, max(self.dc[1 : ny + 1]).adjusted() + 1)
            width = _piece_width(nx, ny, extra, widest - start)
            plan.append((start, a, width + extra))
            start += width
        return plan

    def cross(self, l: int, mid: int, r: int) -> None:
        """Add sum_{i in [l, mid)} p(i) c(n-i) to row n for n in [mid, r)."""
        # the pieces are cut off the rows from the top one down, so
        # rest[i] holds what is left of row l+i below the current piece
        rest = self.dp[l:mid]
        for start, a, slot in reversed(self.plan(l, mid, r)):
            # the piece of rows l+a..mid-1 (0 for a row too short to
            # have it) meets c(1..r-1-l-a), and row n is coefficient
            # n-l-a-1
            xs = rest[a:]
            if start:
                for i in range(a, mid - l):
                    rest[i], xs[i - a] = _split(rest[i], start)
            shares = _middle_product(xs, self.dc[1 : r - l - a], r - mid, slot)
            for n, share in enumerate(shares, mid):
                self.dacc[n] += share.scaleb(start)


def _run_kernel(c: list[int], n_max: int) -> list[int]:
    """p(0..n_max) with n p(n) = sum_{k=1}^{n} c(k) p(n-k), p(0) = 1.

    Rows [l, r) are solved by divide and conquer: once the left half
    [l, mid) is known, its share sum_{i in [l, mid)} p(i) c(n-i) of every
    row n in [mid, r) is added to that row's accumulator, then the right
    half is solved.  A leaf of at most _LEAF rows finishes each row with
    one dot product over the rows of the leaf before it.  A cross term
    plans its pieces (_Expansion.plan), cuts each row once and makes one
    Kronecker product per piece j (_middle_product): piece j of the rows
    from the first one that has it (a later, shorter row gives 0) and
    the c(k) they meet are packed into one Decimal each, in slots of the
    width the plan gives, libmpdec multiplies the two by number-theoretic
    transform, and each slot of the wanted range of the product is piece
    j's share of one row, added to it times 10^(first digit of piece j).
    A piece is min(_SLICE, digits left in the widest row) wide; when its
    product passes 1024 words, it widens while the product still fits
    the transform length libmpdec pads it to (_piece_width), so it
    covers more digits at the same cost.  Its slot holds its digits and
    _headroom more: those of the largest c(k) it meets, of its row
    count, and one spare.  A table whose rows all stay under _SLICE
    digits makes one product per cross term.  A negative c(k), whose
    sums could borrow across slots, raises ValueError before any row is
    solved.  Every row is divided exactly by n, or ArithmeticError
    rejects the table.  The decimal work runs in a private context with
    the largest precision and exponent range, so every operation is
    exact; the caller's context is left as it was.
    """
    if min(c[1 : n_max + 1], default=0) < 0:
        raise ValueError("negative c(k): the kernel needs c >= 0")
    rows = _Expansion(c, n_max)
    with localcontext(_exact_context()):
        rows.solve(0, n_max + 1)
    return rows.p


def expand_product(spec: ExponentSpec, n_max: int) -> BigIntSeq:
    """Coefficients p(0..n_max) of prod (1 - q^n)^{-f(n)}."""
    f = evaluate_exponent(spec, n_max)  # refuses n_max < 0
    c = weighted_divisor_table(f)
    return BigIntSeq(_run_kernel(c, n_max), 0, spec.label)


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
    """JSON array of decimal strings (values can exceed double range).
    The digit strings need no escaping, so they are joined directly."""
    return "[" + ",".join(['"' + _int_str(v) + '"' for v in seq.values]) + "]\n"

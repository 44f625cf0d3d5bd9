"""The numeric saddle-point oracle.

rho_numeric solves the untruncated saddle equation -Phi'(rho) = n by
Newton's method, each pass one certified fixed-point sum of the pair
(-Phi', Phi'') from _exp_weight_sum.  It is the oracle of the series
route (asymptotics.saddle_series), so it uses no pole data: it reads
only the weights f(m).  It stays here, not in oracles.py with the other
oracles, only because the benchmark harness binds it as
saddle.rho_numeric; no analytic command loads this module.
"""

from __future__ import annotations

from math import expm1, log

from .arith import ExponentSpec, evaluate_exponent
from .precision import PrecisionContext


def _grow_weights(spec: ExponentSpec, table: list, upto: int) -> None:
    """Refill table with (0, f(1), ..., f(N)), N > upto (capped at the
    length of a finite table), at least doubling its length."""
    new_len = max(64, upto + 1, 2 * len(table))
    if spec.growth is None:
        new_len = min(new_len, len(spec.values))
    table[:] = evaluate_exponent(spec, new_len)


_MAX_TERMS = 10**7


def _tail_cutoff(spec: ExponentSpec, z, ctx: PrecisionContext) -> int:
    """The number M of terms _exp_weight_sum adds: the length of a finite
    table, otherwise the first m >= check_from at which the certified
    bound on the tail of Phi'' past m is below ctx.eps_target().

    With f(m) <= m^D, D = spec.growth, the terms of Phi'' are at most
    m^w u^m (1 - u)^{-2}, u = e^{-z}, w = D + 2.  Their ratios past m
    are at most uhat = e^{w/m} u, so once uhat < 1 the tail past m is
    at most (m+1)^w u^{m+1} / (1 - uhat) (1 - u)^{-2}.  That bound is
    at least the same bound for -Phi' (w = D + 1, (1 - u)^{-1}) at
    every m, as m + 1 >= 1, (1 - u)^{-1} >= 1 and e^{(w+1)/m} >= e^{w/m},
    so the m it returns certifies the tail of -Phi' too.  From
    check_from on the bound falls with m: (m+1)^w u^{m+1} falls once
    m + 1 > w/z, e^{w/m} u falls with m, and check_from >= 2w/z.  So
    the test passes on a final segment of m.  The same bound in floats,
    searched by doubling from check_from and then bisection, gives an
    estimate; the certified test (u^m from mp.power) confirms it at M
    and M - 1, or, if the estimate misses, runs the same search from
    it.  Raises ArithmeticError if M would exceed _MAX_TERMS, before any
    weight is computed.
    """
    if spec.growth is None:
        if len(spec.values) > _MAX_TERMS:
            raise ArithmeticError("weight sum failed to converge")
        return len(spec.values)
    mp = ctx.mp
    u = mp.exp(-z)
    target = ctx.eps_target()
    inv_gap = 1 / (1 - u)
    w = spec.growth + 2

    def passes(m):
        uhat = mp.exp(mp.mpf(w) / m) * u
        if not uhat < 1:
            return False
        tail = mp.mpf(m + 1) ** w * mp.power(u, m) * u / (1 - uhat) * inv_gap**2
        return tail < target

    z_f = float(z)
    log_inv_gap = -log(-expm1(-z_f))
    log_target = float(mp.log(target))

    def passes_float(m):
        x = w / m - z_f
        if x >= 0:
            return False
        log_tail = w * log(m + 1) - z_f * (m + 1) - log(-expm1(x))
        return log_tail + 2 * log_inv_gap < log_target

    check_from = max(16, int(2 * w / z_f) + 1)
    lo, hi = check_from - 1, check_from
    est = _first_passing(passes_float, lo, hi)
    if est is not None:
        if not passes(est):
            lo, hi = est, min(2 * est, _MAX_TERMS)
        elif est == check_from or not passes(est - 1):
            return est
        else:
            hi = est - 1
    found = _first_passing(passes, lo, hi)
    if found is None:
        raise ArithmeticError("weight sum failed to converge")
    return found


def _first_passing(test, lo: int, hi: int) -> int | None:
    """The first m > lo at which test passes, for a test that fails at
    every m in [check_from, lo] and passes on a final segment of m:
    doubling from hi, then bisection.  None if that m is past
    _MAX_TERMS."""
    while hi > _MAX_TERMS or not test(hi):
        if hi >= _MAX_TERMS:
            return None
        lo, hi = hi, min(2 * hi, _MAX_TERMS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _exp_weight_sum(
    spec: ExponentSpec, z, ctx: PrecisionContext, table: list | None = None
):
    """The certified exponential-weight sums (-Phi', Phi''), with u = e^{-z}:

        -Phi' = sum_m m f(m) u^m / (1 - u^m),
        Phi'' = sum_m m^2 f(m) u^m / (1 - u^m)^2.

    Before the sum runs, _tail_cutoff finds the number M of terms whose
    tails are certified below eps = ctx.eps_target() from the bound
    f(m) <= m^D, D = spec.growth: past its check_from that tail bound
    falls with m, so the first m that passes is found by doubling
    and bisection, not by testing every term.  Terms 1..M are then added
    in fixed point, as Python ints scaled by 2^P, with no per-term mpf.

    Error budget, in ulps of 2^-P (f >= 0, F = max f(m) over m <= M):
    - U, the image of u computed at P + 32 bits and truncated, is off by
      less than 1 + 2^-31.  U_m = U_{m-1} U >> P: as both factors are at
      most 1, the product is off by less than 1 + 2^-31 + e_{m-1}, and
      the shift adds less than 1, so U_m is off by e_m < 3m.
    - The gap g_m = 1 - u^m is 2^P - U_m, off by less than 3m.  Gaps
      grow with m, so g_m >= g_1 = 1 - u, and as P grows with 1/g_1 a
      small z loses no accuracy to the cancellation in 1 - u^m.
    - P below makes 6 M 2^-P <= g_1, so a computed gap g' lies in
      [g/2, 3g/2].  With v = u^m <= 1 off by less than 3m:
        m f v / g       is off by m f (6m/g + 6m/g^2) <= 12 m^2 f / g^2,
        m^2 f v / g^2   by m^2 f (12m/g^2 + 36m/g^3) <= 48 m^3 f / g^3,
      plus 1 for the floor division that forms each.
    - With sum_{m <= M} m^k <= M^{k+1}, every sum is off by less than
      C = 48 F M^4 / g_1^3 + 2M.  P = bit_length(C) + 1 - e, with
      eps >= 2^(e-1), gives C 2^-P < eps, and with it 6 M 2^-P <= g_1.
    So each returned sum is within eps of the sum of its first M terms,
    which is within eps of the whole sum, before the one rounding to
    the working precision.

    table holds the weights (0, f(1), ...) and is extended in place to
    index M; passing the same list to several calls for one spec
    reuses it.
    """
    mp = ctx.mp
    z = ctx.real(z)
    if not z > 0:
        raise ValueError("z must be positive")
    if table is None:
        table = []
    M = _tail_cutoff(spec, z, ctx)
    if M >= len(table):
        _grow_weights(spec, table, M)
    F = max(table[1 : M + 1], default=0)
    inv_g1 = int(-1 / mp.expm1(-z)) + 2  # above 1/g_1
    bound = 48 * max(F, 1) * M**4 * inv_g1**3 + 2 * M
    P = bound.bit_length() + 1 - mp.frexp(ctx.eps_target())[1]
    one = 1 << P
    total = total2 = 0
    with mp.workprec(P + 32):
        U = int(mp.ldexp(mp.exp(-z), P))
        um = one
        for m in range(1, M + 1):
            um = um * U >> P
            fm = table[m]
            if not fm:
                continue
            gap = one - um
            num = m * fm * um
            total += (num << P) // gap
            total2 += (m * num << 2 * P) // (gap * gap)
    return mp.ldexp(total, -P), mp.ldexp(total2, -P)


def rho_numeric(spec: ExponentSpec, n: int, ctx: PrecisionContext):
    """The unique z > 0 with -Phi'(z) = n (the summand is strictly
    decreasing in z).

    Safeguarded Newton on t = log z for log(-Phi'(e^t)) = log n, nearly
    linear in t because -Phi' behaves like a power of z, started at
    z = 1.  Each pass evaluates -Phi' and Phi'' in one certified sum and
    narrows the bracket [lo, hi] around the root.  Each step is taken
    whole, unless both sides of the root have been probed and the step
    leaves the bracket, when z moves to its midpoint.  No step needs a
    clip: each term m f(m)/(e^{mz} - 1) of -Phi' has a log-derivative
    in log z of at most -1, so the sum does too, and neither the step
    nor the distance to the root exceeds R = |log(-Phi'(z)/n)| in log z;
    a step lands within R of the root.  One weight table serves every
    pass of the solve.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.growth is None and not any(spec.values):
        raise ValueError("weight is identically zero")
    mp = ctx.mp
    nn = mp.mpf(n)
    log_n = mp.log(nn)
    table: list = []
    lo = hi = None  # nearest probes below and above the root
    tol = mp.mpf(10) ** (-(ctx.digits + ctx.guard - 3))
    z = mp.mpf(1)
    for _ in range(ctx.digits + ctx.guard):
        hv, d2 = _exp_weight_sum(spec, z, ctx, table)
        if hv > nn:
            lo = z
        else:
            hi = z
        # d log(-Phi') / dt = -z Phi'' / (-Phi')
        step = (mp.log(hv) - log_n) * hv / (z * d2)
        if abs(step) < tol:
            return z * mp.exp(step)
        z = z * mp.exp(step)
        if lo is not None and hi is not None and not lo < z < hi:
            z = (lo + hi) / 2
    raise ArithmeticError("saddle-point iteration failed to converge")

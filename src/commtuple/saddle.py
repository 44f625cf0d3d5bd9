"""Truncated-series saddle-point machinery.

The saddle equation of a product family is rewritten as a polynomial
curve  F(x, z) = sum_i gamma_i x^{p_i} z^{q_i} - 1 = 0  in scaled
variables (x a fixed negative power of n, z the scaled reciprocal saddle
point).  Newton's iteration z <- z - F(x, z)/F_z(x, z) on power series
in x, started at the leading root z_0 = gamma_1^{-1/q}, doubles the
number of correct coefficients per step; a final series reciprocal gives
the correction coefficients K_1, K_2, ... of the saddle point

    rho_n = K_1 n^{-1/q} + K_2 n^{-1/q - s} + K_3 n^{-1/q - 2s} + ...

All coefficient arithmetic is dense polynomial-in-x truncated at a
single internal order (J + 2 for J requested terms).  lagrange_invert
(compositional inversion of a shifted curve) is kept as an independent
oracle for this route.

rho_numeric solves the untruncated saddle equation by summation with
certified tail bounds and serves as the oracle for the series route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .arith import (
    ExponentSpec,
    PolygonalIndicator,
    Power,
    SubgroupCount,
    TableExponent,
    evaluate_exponent,
)
from .precision import PrecisionContext

# --- small combinatorial helpers (shared with the expansion assembly) ---


def _int_partitions(n: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), 0, -1):
        for rest in _int_partitions(n - p, p):
            yield (p,) + rest


def weighted_partitions(weight: int):
    """Yield multiplicity tuples (l_1, ..., l_weight), sum i*l_i = weight."""
    if weight < 0:
        raise ValueError("weight must be >= 0")
    for part in _int_partitions(weight):
        mult = [0] * weight
        for p in part:
            mult[p - 1] += 1
        yield tuple(mult)


def multinomial(total: int, parts) -> int:
    """total! / prod(parts!) with sum(parts) <= total; the remainder
    total - sum(parts) is treated as one more part."""
    rest = total - sum(parts)
    if rest < 0:
        raise ValueError("parts exceed total")
    out = factorial(total) // factorial(rest)
    for p in parts:
        out //= factorial(p)
    return out


def rising_product(k: int, length: int) -> int:
    """k (k+1) ... (k+length-1); empty product is 1."""
    out = 1
    for t in range(length):
        out *= k + t
    return out


# --- dense truncated polynomials over a context's mpf ---


class TruncPoly:
    """Polynomial in x truncated at a fixed order, mpf coefficients."""

    __slots__ = ("mp", "coeffs", "order")

    def __init__(self, mp, coeffs, order: int):
        self.mp = mp
        self.order = order
        c = list(coeffs[: order + 1])
        zero = mp.mpf(0)
        while len(c) < order + 1:
            c.append(zero)
        self.coeffs = c

    @classmethod
    def zeros(cls, mp, order: int) -> "TruncPoly":
        return cls(mp, [], order)

    @classmethod
    def one(cls, mp, order: int) -> "TruncPoly":
        return cls(mp, [mp.mpf(1)], order)

    @classmethod
    def x_power(cls, mp, p: int, order: int, scale=1) -> "TruncPoly":
        c = [mp.mpf(0)] * (order + 1)
        if p <= order:
            c[p] = mp.mpf(1) * scale
        return cls(mp, c, order)

    def coeff(self, i: int):
        return self.coeffs[i] if i <= self.order else self.mp.mpf(0)

    def _coerce(self, other):
        if isinstance(other, TruncPoly):
            return other
        c = [self.mp.mpf(0)] * (self.order + 1)
        c[0] = self.mp.mpf(1) * other
        return TruncPoly(self.mp, c, self.order)

    def __add__(self, other):
        o = self._coerce(other)
        return TruncPoly(
            self.mp, [a + b for a, b in zip(self.coeffs, o.coeffs)], self.order
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly(self.mp, [-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncPoly):
            return TruncPoly(self.mp, [a * other for a in self.coeffs], self.order)
        out = [self.mp.mpf(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                top = self.order - i
                for j, b in enumerate(other.coeffs[: top + 1]):
                    if b:
                        out[i + j] += a * b
        return TruncPoly(self.mp, out, self.order)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return TruncPoly(self.mp, [a / scalar for a in self.coeffs], self.order)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers go through inverse()")
        out = TruncPoly.one(self.mp, self.order)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self) -> "TruncPoly":
        """Series reciprocal; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("constant term vanishes")
        inv = [self.mp.mpf(0)] * (self.order + 1)
        inv[0] = 1 / c0
        for n in range(1, self.order + 1):
            s = self.mp.mpf(0)
            for k in range(1, n + 1):
                if self.coeffs[k]:
                    s += self.coeffs[k] * inv[n - k]
            inv[n] = -s / c0
        return TruncPoly(self.mp, inv, self.order)

    def valuation(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return self.order + 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"TruncPoly({self.coeffs})"


def _ring_inv(x):
    if isinstance(x, TruncPoly):
        return x.inverse()
    return 1 / x


# --- series-of-series helpers (z-series with ring coefficients) ---


def _ser_mul(u, v, top, zero):
    out = [zero] * (top + 1)
    for i, a in enumerate(u[: top + 1]):
        for j in range(0, top + 1 - i):
            b = v[j]
            out[i + j] = out[i + j] + a * b
    return out


def _ser_inv(v, top, zero):
    inv = [zero] * (top + 1)
    inv0 = _ring_inv(v[0])
    inv[0] = inv0
    for n in range(1, top + 1):
        s = zero
        for k in range(1, n + 1):
            s = s + v[k] * inv[n - k]
        inv[n] = zero - inv0 * s
    return inv


def _ser_compose(f, g, top, zero):
    """f(g(z)) truncated; f given by coefficients f[0..deg], g[0] == zero."""
    acc = [zero] * (top + 1)
    for fk in reversed(f):
        acc = _ser_mul(acc, g, top, zero)
        acc[0] = acc[0] + fk
    return acc


def lagrange_invert(a, terms: int, method: str = "newton"):
    """Compositional inverse of f(w) = a_1 w + a_2 w^2 + ... .

    Input a = [a_1, a_2, ...] over a commutative ring (context reals or
    TruncPoly); returns [b_1, ..., b_terms] with f(g(z)) = z for
    g(z) = sum b_k z^k.

    method "newton" (primary): order-doubling iteration on truncated
    series.  method "formula": the explicit multi-index sum

        b_k = 1/(k a_1^k) * sum over (l_1, l_2, ...), sum i l_i = k-1,
              of (-1)^{l_1+l_2+...} [k (k+1) ... (k-1+l_1+l_2+...)]
              / (l_1! l_2! ...) * (a_2/a_1)^{l_1} (a_3/a_1)^{l_2} ...

    whose combinatorial growth caps it at terms <= 8; kept as an
    independent verifier for the Newton route.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if not a:
        raise ValueError("need at least a_1")
    if method == "newton":
        return _lagrange_newton(a, terms)
    if method == "formula":
        return _lagrange_formula(a, terms)
    raise ValueError(f"unknown method {method!r}")


def _lagrange_newton(a, terms: int):
    zero = a[0] * 0
    deg = len(a)
    f = [zero] + list(a)  # f[k] = a_k
    fp = [(k + 1) * a[k] for k in range(deg)]  # f'(w) coefficients
    g = [zero, _ring_inv(a[0])] + [zero] * (terms - 1)
    iters = max(1, terms - 1).bit_length() + 1
    for _ in range(iters):
        fg = _ser_compose(f, g, terms, zero)
        fg[1] = fg[1] - 1  # subtract z
        fpg = _ser_compose(fp, g, terms, zero)
        delta = _ser_mul(fg, _ser_inv(fpg, terms, zero), terms, zero)
        g = [gi - di for gi, di in zip(g, delta)]
    return g[1 : terms + 1]


def _lagrange_formula(a, terms: int):
    if terms > 8:
        raise ValueError("formula route capped at 8 terms")
    zero = a[0] * 0
    apad = list(a) + [zero] * max(0, terms - len(a))
    u = _ring_inv(a[0])
    # u^e cache up to the largest needed exponent
    max_e = 2 * terms
    upow = [None] * (max_e + 1)
    upow[0] = zero + 1
    for e in range(1, max_e + 1):
        upow[e] = upow[e - 1] * u
    out = []
    for k in range(1, terms + 1):
        acc = zero
        for mult in weighted_partitions(k - 1):
            big_l = sum(mult)
            coef = Fraction((-1) ** big_l * rising_product(k, big_l), k)
            for li in mult:
                coef /= factorial(li)
            term = upow[k + big_l]
            for i, li in enumerate(mult, start=1):
                if li:
                    term = term * (apad[i] ** li)
            acc = acc + term * coef.numerator / coef.denominator
        out.append(acc)
    return out


# --- saddle curve -> K-series ---


@dataclass(frozen=True)
class SaddleExpansion:
    """K_1..K_J of rho_n = sum_j K_j n^{-1/q - (j-1) s} for a family with
    leading z-power q and x-grid spacing s."""

    ell: int
    K: tuple


def curve_saddle_series(monomials, terms: int, ctx: PrecisionContext):
    """K-coefficients for the curve sum_i gamma_i x^{p_i} z^{q_i} = 1.

    Exactly one monomial must have p_i = 0; it carries the largest
    z-power and a positive coefficient.  z(x) is found by Newton's
    iteration in truncated-series arithmetic at order terms + 2 in x;
    the K_j are the coefficients of 1/z(x).
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if terms > 64:
        raise ValueError("terms beyond the supported truncation")
    trunc = terms + 2
    mp = ctx.mp
    lead = [m for m in monomials if m[1] == 0]
    if len(lead) != 1:
        raise ValueError("exactly one x-free monomial required")
    gamma1, _, qmax = lead[0]
    if gamma1 <= 0:
        raise ValueError("leading coefficient must be positive")
    if any(q > qmax or q < 1 or p < 0 for _, p, q in monomials):
        raise ValueError("monomial powers out of range")
    zero = mp.mpf(0)
    z = TruncPoly(mp, [ctx.power_frac(gamma1, Fraction(-1, qmax))], trunc)
    # each Newton step doubles the number of correct x-coefficients,
    # starting from one; the last step polishes the rounding
    for _ in range(trunc.bit_length() + 1):
        powers = [TruncPoly.one(mp, trunc)]
        for _ in range(qmax):
            powers.append(powers[-1] * z)
        f = TruncPoly.zeros(mp, trunc) - 1
        f_z = TruncPoly.zeros(mp, trunc)
        for gam, p, q in monomials:
            shift = [zero] * p  # times x^p
            f = f + TruncPoly(mp, shift + powers[q].coeffs, trunc) * gam
            f_z = f_z + TruncPoly(mp, shift + powers[q - 1].coeffs, trunc) * (gam * q)
        z = z - f * f_z.inverse()
    recip = z.inverse()
    return [recip.coeff(j) for j in range(terms)]


def rho_series_three_pole(
    ell: int, terms: int, data, ctx: PrecisionContext
) -> SaddleExpansion:
    """Saddle-point series for a three-pole family (ell >= 4):
    rho_n = sum_j K_j n^{-j/ell}, from the curve
    C_1 z^ell + C_2 x z^{ell-1} + C_3 x^2 z^{ell-2} = 1, x = n^{-1/ell}."""
    if ell < 4:
        raise ValueError("three-pole route requires ell >= 4")
    if data.c1 is None:
        raise ValueError("data lacks saddle coefficients")
    mon = [
        (data.c1, 0, ell),
        (data.c2, 1, ell - 1),
        (data.c3, 2, ell - 2),
    ]
    return SaddleExpansion(ell, tuple(curve_saddle_series(mon, terms, ctx)))


def two_pole_K(alpha, beta, c1, c2, terms: int, ctx: PrecisionContext):
    """Closed-form K_1..K_terms (terms <= 5) for a two-pole saddle
    equation c_1 rho^{-alpha-1} + c_2 rho^{-beta-1} = n, alpha > beta."""
    if not 1 <= terms <= 5:
        raise ValueError("closed forms available for 1..5 terms")
    al = Fraction(alpha)
    be = Fraction(beta)
    if not al > be > 0:
        raise ValueError("need alpha > beta > 0")
    a1 = al + 1

    def cpow(e: Fraction):
        return ctx.power_frac(c1, e)

    def rat(f: Fraction):
        return ctx.real(f)

    ks = [cpow(Fraction(1) / a1)]
    ks.append(c2 / (rat(a1) * cpow(be / a1)))
    p3 = al - 2 * be
    ks.append(c2**2 * rat(p3 / (2 * a1**2)) / cpow((2 * be + 1) / a1))
    p4 = 2 * al**2 - 9 * al * be - 2 * al + 9 * be**2 + 3 * be
    ks.append(c2**3 * rat(p4 / (6 * a1**3)) / cpow((3 * be + 2) / a1))
    p5 = (
        6 * al**3
        - 44 * al**2 * be
        - 15 * al**2
        + 96 * al * be**2
        + 56 * al * be
        + 6 * al
        - 64 * be**3
        - 48 * be**2
        - 8 * be
    )
    ks.append(c2**4 * rat(p5 / (24 * a1**4)) / cpow((4 * be + 3) / a1))
    return ks[:terms]


def two_pole_K_series(alpha: int, beta: int, c1, c2, terms: int, ctx: PrecisionContext):
    """Same coefficients by the generic curve inversion (integer
    exponents only): c_1 z^{alpha+1} + c_2 x z^{beta+1} = 1 with
    x = n^{-(alpha-beta)/(alpha+1)}."""
    if not (isinstance(alpha, int) and isinstance(beta, int) and alpha > beta >= 1):
        raise ValueError("integer alpha > beta >= 1 required")
    mon = [(c1, 0, alpha + 1), (c2, 1, beta + 1)]
    return curve_saddle_series(mon, terms, ctx)


# --- numeric saddle point and Phi evaluation (oracle route) ---


def _grow_weights(spec: ExponentSpec, table: list, upto: int) -> None:
    """Refill table with (0, f(1), ..., f(N)), N > upto (capped at the
    length of a finite table), at least doubling its length."""
    new_len = max(64, upto + 1, 2 * len(table))
    if isinstance(spec, TableExponent):
        new_len = min(new_len, len(spec.values))
    table[:] = evaluate_exponent(spec, new_len)


def _majorant(spec: ExponentSpec):
    """(A, D) with f(m) <= A m^D for all m >= 1, or None for a finite
    table.  For rank-r subgroup counts: at most n^{r-1} ordered
    factorizations, each contributing at most n^{r-1}."""
    if isinstance(spec, SubgroupCount):
        return (1, 2 * (spec.rank - 1))
    if isinstance(spec, Power):
        return (1, spec.d)
    if isinstance(spec, PolygonalIndicator):
        return (1, 0)
    if isinstance(spec, TableExponent):
        return None
    raise TypeError(f"unknown exponent spec {spec!r}")


def _exp_weight_sum(
    spec: ExponentSpec, z, ctx: PrecisionContext, mode: str, table: list | None = None
):
    """Certified evaluation of the exponential-weight sums

        mode "phi":    sum_m f(m) * (-log(1 - u^m))        (this is Phi)
        mode "dphi":   sum_m m f(m) u^m / (1 - u^m)        (this is -Phi')
        mode "newton": the pair (-Phi', Phi''), with
                       Phi'' = sum_m m^2 f(m) u^m / (1 - u^m)^2,

    with u = e^{-z}.  The tail past M is bounded through the polynomial
    majorant A m^D: term ratios are <= exp(w/M) u with w the effective
    power, giving a geometric envelope once exp(w/M) u < 1.  Mode
    "newton" stops only once both tails are below the target.

    table holds the weights (0, f(1), ...) and is extended in place as
    the sum runs; passing the same list to several calls for one spec
    reuses it.
    """
    if mode not in ("phi", "dphi", "newton"):
        raise ValueError(f"unknown mode {mode!r}")
    mp = ctx.mp
    z = ctx.real(z)
    if not z > 0:
        raise ValueError("z must be positive")
    if table is None:
        table = []
    u = mp.exp(-z)
    target = ctx.eps_target()
    maj = _majorant(spec)
    if maj is None:
        w_pow = 0
        finite_len = len(spec.values)
    else:
        w_pow = maj[1] + (0 if mode == "phi" else 1)
    # (w, k) per sum: terms <= A m^w u^m (1 - u)^{-k}; the second sum of
    # mode "newton", checked first as the slower to converge, has one
    # more power of m and of 1/(1 - u)
    tail_pows = ((w_pow + 1, 2), (w_pow, 1)) if mode == "newton" else ((w_pow, 1),)
    inv_gap = 1 / (1 - u)
    total = mp.mpf(0)
    total2 = mp.mpf(0)
    um = mp.mpf(1)
    m = 0
    check_from = max(16, int(2 * tail_pows[0][0] / float(z)) + 1)
    while True:
        m += 1
        if maj is None and m > finite_len:
            break
        if m >= len(table):
            _grow_weights(spec, table, m)
        um = um * u
        fm = table[m]
        if fm:
            if mode == "phi":
                total -= fm * mp.log(1 - um)
            else:
                gap = 1 - um
                term = m * fm * um / gap
                total += term
                if mode == "newton":
                    total2 += m * term / gap
        if maj is not None and m >= check_from:
            for w, k in tail_pows:
                uhat = mp.exp(mp.mpf(w) / m) * u
                if not uhat < 1:
                    break
                tail = maj[0] * mp.mpf(m + 1) ** w * um * u / (1 - uhat) * inv_gap**k
                if not tail < target:
                    break
            else:
                break
        if m > 10**7:
            raise ArithmeticError("weight sum failed to converge")
    return (total, total2) if mode == "newton" else total


def phi_eval(spec: ExponentSpec, z, ctx: PrecisionContext):
    """Phi(z) = sum_{m,j} f(m) e^{-z m j} / j = -sum_m f(m) log(1 - e^{-mz})."""
    return _exp_weight_sum(spec, z, ctx, "phi")


def phi_deriv_eval(spec: ExponentSpec, z, ctx: PrecisionContext):
    """Phi'(z) = -sum_m m f(m) e^{-mz} / (1 - e^{-mz})."""
    return -_exp_weight_sum(spec, z, ctx, "dphi")


def rho_numeric(spec: ExponentSpec, n: int, ctx: PrecisionContext):
    """The unique z > 0 with -Phi'(z) = n (the summand is strictly
    decreasing in z).

    Passes at z = 1 and at 2 or 1/2 toward the root give the slope of
    log(-Phi') against log z; the solve starts where that secant meets
    log n.  Then safeguarded Newton on t = log z for
    log(-Phi'(e^t)) = log n, nearly linear in t because -Phi' behaves
    like a power of z.  Each step evaluates -Phi' and Phi'' in one
    certified pass and narrows the bracket [lo, hi] around the root; a
    step that leaves the bracket is replaced by its midpoint, or, while
    one side of the root is still unprobed, by doubling or halving z.
    One weight table serves every pass of the solve.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(spec, TableExponent) and not any(spec.values):
        raise ValueError("weight is identically zero")
    mp = ctx.mp
    nn = mp.mpf(n)
    log_n = mp.log(nn)
    table: list = []
    lo = hi = None  # nearest probes below and above the root

    z1 = mp.mpf(1)
    g1 = _exp_weight_sum(spec, z1, ctx, "dphi", table)
    z2 = z1 * 2 if g1 > nn else z1 / 2
    g2 = _exp_weight_sum(spec, z2, ctx, "dphi", table)
    # z2 lies toward the root from z1, so it is the nearer probe on its side
    for z, g in ((z1, g1), (z2, g2)):
        if g > nn:
            lo = z
        else:
            hi = z
    slope = (mp.log(g2) - mp.log(g1)) / (mp.log(z2) - mp.log(z1))
    z = z2 * mp.exp((log_n - mp.log(g2)) / slope)
    log_2 = mp.log(2)
    tol = mp.mpf(10) ** (-(ctx.digits + ctx.guard - 3))
    for _ in range(ctx.digits + ctx.guard):
        hv, d2 = _exp_weight_sum(spec, z, ctx, "newton", table)
        if hv > nn:
            lo = z
        else:
            hi = z
        # d log(-Phi') / dt = -z Phi'' / (-Phi')
        step = (mp.log(hv) - log_n) * hv / (z * d2)
        if abs(step) < tol:
            return z * mp.exp(step)
        if lo is None or hi is None:
            z = z * mp.exp(max(-log_2, min(step, log_2)))
        else:
            z = z * mp.exp(step)
            if not lo < z < hi:
                z = (lo + hi) / 2
    raise ArithmeticError("saddle-point iteration failed to converge")

"""Independent slow routes for the exact kernel and the saddle-point
constants, for the tests and the `oracle` subcommand.  One rule: the
oracles live here (rho_numeric aside: it is the saddle module), the
package namespace exports none of their names, and the only import of
this module outside the tests is the one inside cli._cmd_oracle, so no
other command loads it.

hnf_subgroup_count enumerates Hermite normal forms and
dirichlet_convolve convolves weight tables, the two routes to the
subgroup counts; expand_kernel solves the product-expansion recurrence
row by row, expand_product_direct multiplies the truncated factors and
pentagonal_p runs the pentagonal-number recurrence;
brute_force_commuting counts commuting tuples of explicit permutations;
bernoulli_recurrence builds B_0..B_m from the binomial recurrence, the
reference for the Bernoulli numbers that precision.py takes from
mpmath's bernfrac.

The K_j that asymptotics.saddle_series reads off the Lagrange-Burmann
formula are checked by curve_saddle_series, which solves the saddle
curve for z(x) by Newton's iteration in TruncPoly arithmetic (dense
truncated polynomials), and for two poles also by two_pole_K, closed
forms of K_1..K_5.  The A_k that asymptotics.expansion assembles from
powers of the K-series are checked against TruncPoly inverse powers.
zeta_em, zeta_prime_em and euler_gamma_em sum Euler-Maclaurin series
for the values that precision.py takes from mpmath.  Nothing here
imports the saddle or the asymptotics module, so no oracle runs on the
code it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, perm

from .arith import ExponentSpec, evaluate_exponent
from .precision import PrecisionContext, bernoulli_fraction
from .series import BigIntSeq

# --- weight tables ---


def dirichlet_convolve(a: list[int], b: list[int]) -> list[int]:
    """(a * b)(n) = sum_{d|n} a(d) b(n/d) on 1..N; inputs share a length.
    Iterated over Id^0, ..., Id^(ell-1) it gives the subgroup counts
    that `arith.subgroup_count_table` fills from a sieve."""
    if len(a) != len(b):
        raise ValueError("tables must cover the same range")
    n_max = len(a) - 1
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        ad = a[d]
        if ad:
            for m in range(d, n_max + 1, d):
                out[m] += ad * b[m // d]
    return out


def _ordered_factorizations(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for d in range(1, n + 1):
        if n % d == 0:
            for rest in _ordered_factorizations(n // d, parts - 1):
                yield (d,) + rest


def hnf_subgroup_count(ell: int, n: int) -> int:
    """Count index-n sublattices of Z^ell by enumerating Hermite normal
    forms one matrix at a time.

    Upper triangular, diagonal (d_1, ..., d_ell) with product n, and the
    entries above the diagonal in column j each range over 0..d_j - 1.
    Deliberately brute force; serves as the oracle for
    subgroup_count_table.
    """
    if not 1 <= ell <= 4:
        raise ValueError("ell must be in 1..4")
    if not 1 <= n <= 64:
        raise ValueError("n must be in 1..64")
    count = 0
    for diag in _ordered_factorizations(n, ell):
        cols = []
        for j in range(ell):
            # column j (0-based) has j entries above the diagonal
            cols.extend([range(diag[j])] * j)
        for _entries in itertools.product(*cols):
            count += 1
    return count


# --- product expansion ---


def expand_kernel(c: list, n_max: int) -> list:
    """p(0..n_max) with n p(n) = sum_{k=1}^{n} c(k) p(n-k).

    One multiply-add per term, in the order the recurrence is written;
    the production kernel `series._run_kernel` must agree with it.
    Every division must be exact; a nonzero remainder means the weight
    table does not come from an integral product and is reported.
    """
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        acc = 0
        for k in range(1, n + 1):
            acc += c[k] * p[n - k]
        q, r = divmod(acc, n)
        if r:
            raise ArithmeticError(f"inexact division at n={n}")
        p[n] = q
    return p


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
    return BigIntSeq(p, 0, spec.label)


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


# --- commuting tuples over explicit permutations ---


def _commutes(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    return all(p[q[i]] == q[p[i]] for i in range(len(p)))


def brute_force_commuting(ell: int, n: int) -> int:
    """|{(pi_1..pi_ell) pairwise commuting}| by nested loops over S_n,
    each permutation checked against the earlier ones (S_0 holds the
    empty permutation, so n = 0 counts 1).

    Supported for ell <= 3, n <= 5.
    """
    if not 1 <= ell <= 3:
        raise ValueError("ell must be in 1..3")
    if not 0 <= n <= 5:
        raise ValueError("n must be in 0..5")
    perms = list(permutations(range(n)))
    if ell == 1:
        return len(perms)
    if ell == 2:
        return sum(1 for p in perms for q in perms if _commutes(p, q))
    return sum(
        1
        for p in perms
        for q in perms
        if _commutes(p, q)
        for r in perms
        if _commutes(p, r) and _commutes(q, r)
    )


# --- Bernoulli numbers ---


def bernoulli_recurrence(m: int) -> list[Fraction]:
    """B_0..B_m (convention B_1 = -1/2) from
    sum_{j<=k} binom(k+1, j) B_j = 0, one Fraction sum per index;
    `precision.bernoulli_fraction`, mpmath's bernfrac, must agree."""
    out = [Fraction(1)]
    for k in range(1, m + 1):
        s = sum(Fraction(comb(k + 1, j)) * out[j] for j in range(k))
        out.append(-s / (k + 1))
    return out


# --- zeta, zeta' and gamma by Euler-Maclaurin ---


def _em_sum(ctx: PrecisionContext, cutoff: int, head, term, tol):
    """An Euler-Maclaurin sum head(N) + sum_{k>=1} term(N, k) at N = cutoff.

    The correction terms are added until the first one below tol, which
    bounds the remainder.  If they start to grow first (the asymptotic
    series diverges at this N), the sum restarts at twice the cutoff.
    """
    mp = ctx.mp
    while True:
        val = head(cutoff)
        prev = mp.inf
        k = 1
        while True:
            t = term(cutoff, k)
            if abs(t) < tol:
                return val
            if abs(t) > prev:
                break
            val += t
            prev = abs(t)
            k += 1
        cutoff *= 2


def zeta_em(m: int, ctx: PrecisionContext):
    """zeta(m) for integer m >= 2 by Euler-Maclaurin, the remainder
    bounded by the first omitted correction term (valid for real m >= 2);
    the cutoff grows with the working precision, never a fixed count."""
    mp = ctx.mp

    def head(big_n):
        val = mp.mpf(0)
        for n in range(1, big_n + 1):
            val += mp.mpf(1) / mp.mpf(n**m)
        val += mp.mpf(1) / ((m - 1) * mp.mpf(big_n ** (m - 1)))
        val -= mp.mpf(1) / (2 * mp.mpf(big_n**m))
        return val

    def term(big_n, k):
        coeff = Fraction(bernoulli_fraction(2 * k) * perm(m + 2 * k - 2, 2 * k - 1),
                         factorial(2 * k))
        return ctx.real(coeff) / mp.mpf(big_n ** (m + 2 * k - 1))

    return _em_sum(ctx, max(8, (ctx.digits + ctx.guard) // 2), head, term,
                   ctx.eps_target())


def zeta_prime_em(m: int, ctx: PrecisionContext):
    """zeta'(m) for integer m >= 2, by the term-wise differentiated
    Euler-Maclaurin formula; remainder bound = first omitted
    differentiated term with a safety factor of 4."""
    mp = ctx.mp

    def head(big_n):
        logs = [None] * (big_n + 1)
        for n in range(2, big_n + 1):
            logs[n] = mp.log(n)
        log_n = logs[big_n]
        val = mp.mpf(0)
        for n in range(2, big_n + 1):
            val -= logs[n] / mp.mpf(n**m)
        # d/ds [N^{1-s}/(s-1)] and d/ds [-N^{-s}/2] at s = m
        pow_n1 = mp.mpf(1) / mp.mpf(big_n ** (m - 1))
        val += pow_n1 * (-log_n / (m - 1) - mp.mpf(1) / (m - 1) ** 2)
        val += log_n / (2 * mp.mpf(big_n**m))
        return val

    # harm[j] = sum_{i<j} 1/(m + i), extended as k grows and shared by
    # _em_sum's restarts: it does not depend on the cutoff
    harm = [0]

    def term(big_n, k):
        coeff = Fraction(bernoulli_fraction(2 * k) * perm(m + 2 * k - 2, 2 * k - 1),
                         factorial(2 * k))
        while len(harm) < 2 * k:
            harm.append(harm[-1] + mp.mpf(1) / (m + len(harm) - 1))
        return (ctx.real(coeff) * (harm[2 * k - 1] - mp.log(big_n))
                / mp.mpf(big_n ** (m + 2 * k - 1)))

    return _em_sum(ctx, max(8, (ctx.digits + ctx.guard) // 2), head, term,
                   ctx.eps_target() / 4)


def euler_gamma_em(ctx: PrecisionContext):
    """Euler-Mascheroni constant via
    gamma = H_N - ln N - 1/(2N) + sum_k B_{2k}/(2k N^{2k});
    the B_{2k} alternate in sign, so the truncation error is bounded by
    the first omitted term."""
    mp = ctx.mp

    def head(big_n):
        val = mp.mpf(0)
        for n in range(1, big_n + 1):
            val += mp.mpf(1) / n
        val -= mp.log(big_n)
        val -= mp.mpf(1) / (2 * big_n)
        return val

    def term(big_n, k):
        coeff = Fraction(bernoulli_fraction(2 * k), 2 * k)
        return ctx.real(coeff) / mp.mpf(big_n ** (2 * k))

    return _em_sum(ctx, max(16, (ctx.digits + ctx.guard) // 2), head, term,
                   ctx.eps_target())


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

    def __repr__(self) -> str:  # pragma: no cover
        return f"TruncPoly({self.coeffs})"


# --- K-series of a saddle curve by Newton's iteration ---


def curve_saddle_series(monomials, terms: int, ctx: PrecisionContext):
    """K-coefficients for the curve sum_i gamma_i x^{p_i} z^{q_i} = 1.

    Exactly one monomial must have p_i = 0; it carries the largest
    z-power and a positive coefficient.  z(x) is found by Newton's
    iteration in truncated-series arithmetic, at orders 2, 4, 8, ... in
    x up to terms + 2; the K_j are the coefficients of 1/z(x).
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
    z = TruncPoly(mp, [ctx.power_frac(gamma1, Fraction(-1, qmax))], 0)
    # each Newton step doubles the number of correct x-coefficients,
    # starting from one, so the steps run at orders 2, 4, 8, ... up to
    # trunc; one more step at trunc polishes the rounding
    orders = [1 << k for k in range(1, (trunc - 1).bit_length())] + [trunc, trunc]
    for order in orders:
        z = TruncPoly(mp, z.coeffs, order)
        powers = [TruncPoly.one(mp, order)]
        for _ in range(qmax):
            powers.append(powers[-1] * z)
        f = TruncPoly.zeros(mp, order) - 1
        f_z = TruncPoly.zeros(mp, order)
        for gam, p, q in monomials:
            shift = [zero] * p  # times x^p
            f = f + TruncPoly(mp, shift + powers[q].coeffs, order) * gam
            f_z = f_z + TruncPoly(mp, shift + powers[q - 1].coeffs, order) * (gam * q)
        z = z - f * f_z.inverse()
    recip = z.inverse()
    return [recip.coeff(j) for j in range(terms)]


# --- two-pole K-series ---


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

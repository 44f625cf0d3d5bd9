"""Asymptotic expansions  C n^{-b} exp(sum_k A_k n^{lambda_k})  assembled
exactly from L-series pole data.

One pole at alpha with dressed residue c_1 = omega Gamma(alpha+1) zeta(alpha+1):

    A_1 = (1 + 1/alpha) c_1^{1/(alpha+1)},
    b   = (1 - L(0) + alpha/2) / (alpha + 1),
    C   = e^{L'(0)} c_1^{(1/2 - L(0))/(alpha+1)} / sqrt(2 pi (alpha+1)).

Two poles alpha > beta: the saddle point is rho = u (K_1 + K_2 x + ...) with
u = n^{-1/(alpha+1)}, x = u^{alpha-beta}, and the exponential terms are

    A_k = K_k + (c_1/alpha) [x^{k-1}] R(x)^{-alpha}
              + (c_2/beta)  [x^{k-2}] R(x)^{-beta},
    R(x) = K_1 + K_2 x + K_3 x^2 + ...,

for 1 <= k <= lambda + 1, lambda the unique integer in
(beta/(alpha-beta), alpha/(alpha-beta)]; the negative powers of R are
expanded with binomial coefficients binom(-nu, m) over weighted
multi-indices.  Exponents run lambda_k = (alpha - (k-1)(alpha-beta))/(alpha+1).

Three poles at ell-1, ell-2, ell-3 (tuple families, ell >= 4): with
D(x) = x/rho(x) = sum_m D_m x^m and x = n^{-1/ell},

    A_k = K_k + sum_{i=1}^{3} C_i/(ell-i) * [x^{k-i}] D(x)^{ell-i},
    lambda_k = (ell-k)/ell,  1 <= k <= ell,

where D_m and the coefficients of integer powers of D are computed by
exact multinomial enumeration over weighted multi-indices (the truncated
polynomial reciprocal serves as an independent check, not as the
production route); b = (ell+1)/(2 ell).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Any

from .lfunction import LSeriesData
from .precision import PrecisionContext, factorial_real, zeta_int
from .saddle import (
    SaddleExpansion,
    multinomial,
    rho_series_three_pole,
    two_pole_K,
    weighted_partitions,
)
from .series import BigIntSeq


@dataclass(frozen=True)
class AsymptoticExpansion:
    """C n^{-b} exp(sum A_k n^{lambda_k}) with exponents strictly
    decreasing inside [0, 1) and b an exact rational."""

    family: str
    C: Any
    b: Fraction
    terms: tuple[tuple[Any, Fraction], ...]

    def __post_init__(self) -> None:
        lams = [lam for _, lam in self.terms]
        if any(not 0 <= lam < 1 for lam in lams):
            raise ValueError("exponents must lie in [0, 1)")
        if any(x <= y for x, y in zip(lams, lams[1:])):
            raise ValueError("exponents must strictly decrease")


def _binom_frac(top: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for t in range(m):
        out *= top - t
    return out / factorial(m)


def _prefactor(alpha: Fraction, l_zero: Fraction, l_prime_zero, c1, ctx):
    """(b, C) of the n^{-b} prefactor, shared by all pole counts."""
    b = (1 - l_zero + Fraction(alpha, 2)) / (alpha + 1)
    mp = ctx.mp
    expo = (Fraction(1, 2) - l_zero) / (alpha + 1)
    C = (
        mp.exp(l_prime_zero)
        * ctx.power_frac(c1, expo)
        / mp.sqrt(2 * mp.pi * ctx.real(alpha + 1))
    )
    return b, C


def dressed_residue(pole, ctx):
    """omega * Gamma(nu+1) * zeta(nu+1) for an integer pole at nu."""
    nu, omega = pole
    if nu != int(nu):
        raise ValueError("integer pole locations required")
    nu = int(nu)
    return omega * factorial_real(nu, ctx) * zeta_int(nu + 1, ctx)


def recip_power_coeff(K, nu: Fraction, target: int, ctx: PrecisionContext):
    """[x^target] (K_1 + K_2 x + K_3 x^2 + ...)^{-nu}, K_1 > 0, via

        K_1^{-nu} sum_m binom(-nu, m) sum_{(j): sum t j_t = target,
        sum j_t = m} multinom(m; j) prod_t (K_{t+1}/K_1)^{j_t}.
    """
    if target < 0:
        return ctx.mp.mpf(0)
    lead = ctx.power_frac(K[0], -nu)
    if target == 0:
        return lead
    if target >= len(K):
        raise ValueError("series too short for requested coefficient")
    inv_k1 = 1 / K[0]
    acc = ctx.mp.mpf(0)
    for j in weighted_partitions(target):
        m = sum(j)
        term = ctx.real(_binom_frac(-nu, m) * multinomial(m, j))
        for t, jt in enumerate(j, start=1):
            if jt:
                term = term * (K[t] * inv_k1) ** jt
        acc += term
    return lead * acc


def expansion_one_pole(data: LSeriesData, ctx: PrecisionContext) -> AsymptoticExpansion:
    if len(data.poles) != 1:
        raise ValueError("one-pole data required")
    alpha = data.alpha
    c1 = dressed_residue(data.poles[0], ctx)
    if not c1 > 0:
        raise ArithmeticError("dominant saddle coefficient must be positive")
    a1 = ctx.real(1 + Fraction(1, alpha)) * ctx.power_frac(c1, Fraction(1) / (alpha + 1))
    b, C = _prefactor(alpha, data.l_at_zero, data.l_prime_at_zero, c1, ctx)
    return AsymptoticExpansion(data.family, C, b, ((a1, alpha / (alpha + 1)),))


def _admissible_lambda(alpha: Fraction, beta: Fraction) -> int:
    """The unique integer in (beta/(alpha-beta), alpha/(alpha-beta)]."""
    if not alpha > beta > 0:
        raise ValueError("need alpha > beta > 0")
    hi = alpha / (alpha - beta)
    lam = hi.numerator // hi.denominator
    if not beta / (alpha - beta) < lam <= hi:
        raise ArithmeticError("window of width one missed its integer")
    return lam


def expansion_two_pole(data: LSeriesData, ctx: PrecisionContext) -> AsymptoticExpansion:
    if len(data.poles) != 2:
        raise ValueError("two-pole data required")
    (alpha, _), (beta, _) = data.poles
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if not alpha > beta:
        raise ValueError("poles must be sorted by decreasing location")
    lam = _admissible_lambda(alpha, beta)
    if lam + 1 > 5:
        raise ValueError("pole gap needs more correction terms than supported")
    c1 = dressed_residue(data.poles[0], ctx)
    c2 = dressed_residue(data.poles[1], ctx)
    if not c1 > 0:
        raise ArithmeticError("dominant saddle coefficient must be positive")
    K = two_pole_K(alpha, beta, c1, c2, lam + 1, ctx)
    ap1 = alpha + 1
    step = alpha - beta
    a_terms = []
    for k in range(1, lam + 2):
        acc = K[k - 1]
        acc = acc + (c1 / ctx.real(alpha)) * recip_power_coeff(K, alpha, k - 1, ctx)
        acc = acc + (c2 / ctx.real(beta)) * recip_power_coeff(K, beta, k - 2, ctx)
        a_terms.append((acc, (alpha - (k - 1) * step) / ap1))
    b, C = _prefactor(alpha, data.l_at_zero, data.l_prime_at_zero, c1, ctx)
    return AsymptoticExpansion(data.family, C, b, tuple(a_terms))


def d_coefficients(saddle: SaddleExpansion, upto: int, ctx: PrecisionContext):
    """D_0..D_upto of D(x) = x/rho(x) = 1/(K_1 + K_2 x + ...), by exact
    multinomial enumeration:

    D_m = K_1^{-1} sum_{(j): sum t j_t = m} (-1)^{sum j} multinom(sum j; j)
          prod_t (K_{t+1}/K_1)^{j_t}.
    """
    if upto >= len(saddle.K):
        raise ValueError("saddle series too short for requested D range")
    return [recip_power_coeff(saddle.K, Fraction(1), m, ctx) for m in range(upto + 1)]


def power_coefficient(d, exponent: int, index: int, ctx: PrecisionContext):
    """[x^index] (d_0 + d_1 x + ...)^exponent for integer exponent >= 0,
    by multinomial enumeration over weighted multi-indices."""
    if index < 0:
        return ctx.mp.mpf(0)
    if exponent == 0:
        return ctx.real(1 if index == 0 else 0)
    if index >= len(d):
        raise ValueError("series too short for requested coefficient")
    acc = ctx.mp.mpf(0)
    for j in weighted_partitions(index) if index else [()]:
        tot = sum(j)
        if tot > exponent:
            continue
        term = ctx.real(Fraction(multinomial(exponent, j)))
        term = term * d[0] ** (exponent - tot)
        for t, jt in enumerate(j, start=1):
            if jt:
                term = term * d[t] ** jt
        acc += term
    return acc


def expansion_three_pole(
    ell: int,
    data: LSeriesData,
    ctx: PrecisionContext,
    saddle: SaddleExpansion | None = None,
) -> AsymptoticExpansion:
    """A_1..A_ell from the saddle series K_1..K_{ell+1}; saddle, if given,
    is rho_series_three_pole(ell, terms >= ell + 1, data, ctx)."""
    if ell < 4:
        raise ValueError("three-pole route requires ell >= 4")
    if len(data.poles) != 3 or data.c1 is None:
        raise ValueError("three-pole data required")
    if saddle is None:
        saddle = rho_series_three_pole(ell, ell + 1, data, ctx)
    elif saddle.ell != ell or len(saddle.K) < ell + 1:
        raise ValueError("saddle series needs ell + 1 terms of the same ell")
    K = saddle.K
    d = d_coefficients(saddle, ell - 1, ctx)
    cs = (data.c1, data.c2, data.c3)
    a_terms = []
    for k in range(1, ell + 1):
        acc = K[k - 1]
        for i in (1, 2, 3):
            coeff = power_coefficient(d, ell - i, k - i, ctx)
            acc = acc + cs[i - 1] * coeff / (ell - i)
        a_terms.append((acc, Fraction(ell - k, ell)))
    b, C = _prefactor(data.alpha, data.l_at_zero, data.l_prime_at_zero, data.c1, ctx)
    if b != Fraction(ell + 1, 2 * ell):
        raise ArithmeticError("prefactor exponent disagrees with (ell+1)/(2 ell)")
    return AsymptoticExpansion(data.family, C, b, tuple(a_terms))


def evaluate_expansion(exp: AsymptoticExpansion, n: int, ctx: PrecisionContext):
    """C n^{-b} exp(sum A_k n^{lambda_k}) as a context real."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mp = ctx.mp
    s = mp.mpf(0)
    for a_k, lam in exp.terms:
        s += a_k * ctx.power_frac(ctx.real(n), lam)
    return exp.C * ctx.power_frac(ctx.real(n), -exp.b) * mp.exp(s)


@dataclass(frozen=True)
class ComparisonRow:
    n: int
    exact: int
    asym: Any
    ratio: Any
    log_error: Any


def compare_exact_asym(
    seq: BigIntSeq, exp: AsymptoticExpansion, points, ctx: PrecisionContext
):
    """Rows (n, exact, asym, exact/asym, log exact - log asym)."""
    rows = []
    for n in points:
        exact = seq[n]
        if exact <= 0:
            raise ValueError("exact values must be positive")
        asym = evaluate_expansion(exp, n, ctx)
        ratio = ctx.real(exact) / asym
        rows.append(ComparisonRow(n, exact, asym, ratio, ctx.mp.log(ratio)))
    return rows


def estimate_B1(seq: BigIntSeq, exp: AsymptoticExpansion, window, ctx: PrecisionContext):
    """Constant least-squares fit of (exact/asym - 1) n^{1-lambda_1} over
    the integer window [lo, hi] (at least 10 points): an exploratory
    estimate of the first missing correction coefficient.  The scaling
    power 1 - lambda_1 equals 1/(alpha+1)."""
    lo, hi = window
    if hi - lo + 1 < 10:
        raise ValueError("window must contain at least 10 points")
    scale_expo = 1 - exp.terms[0][1]
    mp = ctx.mp
    acc = mp.mpf(0)
    for n in range(lo, hi + 1):
        ratio = ctx.real(seq[n]) / evaluate_expansion(exp, n, ctx)
        acc += (ratio - 1) * ctx.power_frac(ctx.real(n), scale_expo)
    return acc / (hi - lo + 1)

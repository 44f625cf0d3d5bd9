"""Asymptotic expansions  C n^{-b} exp(sum_k A_k n^{lambda_k})  assembled
from L-series pole data: the saddle series, then the A_k.

A family whose Dirichlet series L has integer poles
alpha = nu_1 > nu_2 > ... >= 1, with dressed residues c_i
(lfunction.dressed_residue), has the saddle equation
sum_i c_i rho^{-nu_i - 1} = n.  With t = n^{-1/(alpha+1)} it reads
rho = t Q(rho)^{1/(alpha+1)}, Q(v) = sum_i c_i v^{alpha - nu_i}, so by
Lagrange-Burmann inversion [t^k] rho = (1/k) [v^{k-1}] Q(v)^{k/(alpha+1)}.
Only k = 1 + (j-1) s occur, s = gcd(alpha - nu_i), and Q/c_1 is a
polynomial in w = v^s with constant term 1, so
rho = n^{-1/(alpha+1)} R(x), R(x) = K_1 + K_2 x + K_3 x^2 + ...,
x = n^{-s/(alpha+1)}, with

    K_j = c_1^{k/(alpha+1)} [w^{j-1}] (Q/c_1)^{k/(alpha+1)} / k.

When alpha + 1 divides k the power of Q is a polynomial of degree
(k/(alpha+1)) (alpha - nu_min) < k - 1 (as nu_min >= 1), so the
coefficient is 0; saddle_series sets every K_j whose exponent
k/(alpha+1) is an integer to an exact 0 rather than keep its round-off.
It also keeps the monomials of the saddle curve
sum_i c_i x^{p_i} z^{nu_i + 1} = 1, p_i = (alpha - nu_i)/s, the same
equation in x and z = t/rho, which expansion reads and
oracles.curve_saddle_series solves by Newton's iteration.

With D(x) = 1/R(x), the exponential terms are

    A_k = K_k + sum_i (c_i/nu_i) [x^{k-1-p_i}] D(x)^{nu_i},
    lambda_k = (alpha - (k-1) s)/(alpha + 1),

for every k with lambda_k >= 0, and the prefactor is

    b = (1 - L(0) + alpha/2) / (alpha + 1),
    C = e^{L'(0)} c_1^{(1/2 - L(0))/(alpha+1)} / sqrt(2 pi (alpha+1)).

One pole gives the single term A_1 = (1 + 1/alpha) c_1^{1/(alpha+1)}.
series_power forms both the powers of Q/c_1 and those of D, by J. C. P.
Miller's recurrence, with [x^m] D^nu = K_1^{-nu} [x^m] (R/K_1)^{-nu}.  The
tests assemble the same A_k from integer powers of the series
reciprocal of R in oracles.TruncPoly, and check rho against
saddle.rho_numeric, which solves the untruncated saddle equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any

from .lfunction import LSeriesData, dressed_residue
from .precision import PrecisionContext
from .series import BigIntSeq


def series_power(f, e: Fraction, n: int, ctx: PrecisionContext) -> list:
    """The first n coefficients of f(x)^e, for a series f with f_0 = 1
    (a list of coefficients, those past its end read as 0) and a
    rational e, by J. C. P. Miller's recurrence

        g_0 = 1,  g_m = (1/m) sum_{i=1..m} ((e+1) i - m) f_i g_{m-i}.

    Zero f_i are skipped, so each g_m of a sparse f costs one term per
    nonzero f_i.
    """
    mp = ctx.mp
    a, b = e.numerator, e.denominator  # (e+1) i - m = ((a+b) i - m b)/b
    nonzero = [(i, fi) for i, fi in enumerate(f[1:n], start=1) if fi]
    g = [mp.mpf(1)]
    for m in range(1, n):
        acc = mp.mpf(0)
        for i, fi in nonzero:
            if i > m:
                break
            acc += ((a + b) * i - m * b) * fi * g[m - i]
        g.append(acc / (m * b))
    return g


@dataclass(frozen=True)
class SaddleExpansion:
    """A saddle curve, its monomials (c_i, p_i, q_i) dominant first, and
    the K_j of rho_n = sum_j K_j n^{-(1 + (j-1) step)/ell}, x = n^{-step/ell},
    where ell = q_1 = alpha + 1 (the tuple length of an ntuple family)."""

    curve: tuple
    step: int
    K: tuple

    @property
    def ell(self) -> int:
        return self.curve[0][2]

    @property
    def expansion_terms(self) -> int:
        """J, the number of expansion exponents
        (alpha - (k-1) step)/(alpha + 1) that are >= 0."""
        return (self.ell - 1) // self.step + 1


def saddle_series(data, ctx: PrecisionContext) -> SaddleExpansion:
    """The saddle curve of pole data (see the module docstring) and its
    first J + 1 terms K_j, J the number of expansion exponents.  One pole
    leaves x out of the curve; it gets s = alpha + 1, so J = 1."""
    cs = [dressed_residue(pole, ctx) for pole in data.poles]
    nus = [int(nu) for nu, _ in data.poles]
    if nus[-1] < 1 or any(a <= b for a, b in zip(nus, nus[1:])):
        raise ValueError("poles must decrease and stay >= 1")
    alpha = nus[0]
    step = gcd(*(alpha - nu for nu in nus)) or alpha + 1
    curve = tuple((c, (alpha - nu) // step, nu + 1) for c, nu in zip(cs, nus))
    terms = alpha // step + 2
    zero = ctx.mp.mpf(0)
    f = [zero] * terms  # Q/c_1 in w, cut after w^{terms-1}
    for c, p, _ in curve[1:]:
        if p < terms:
            f[p] = c / cs[0]
    K = []
    for j in range(1, terms + 1):
        k = 1 + (j - 1) * step
        if k % (alpha + 1) == 0:
            # an integral exponent: exactly 0 (see the module docstring)
            K.append(zero)
            continue
        e = Fraction(k, alpha + 1)
        K.append(ctx.power_frac(cs[0], e) * series_power(f, e, j, ctx)[j - 1] / k)
    return SaddleExpansion(curve, step, tuple(K))


@dataclass(frozen=True)
class AsymptoticExpansion:
    """C n^{-b} exp(sum A_k n^{lambda_k}) with exponents strictly
    decreasing inside [0, 1) and b an exact rational; saddle is the
    saddle series the A_k were assembled from."""

    family: str
    C: Any
    b: Fraction
    terms: tuple[tuple[Any, Fraction], ...]
    saddle: SaddleExpansion

    def __post_init__(self) -> None:
        lams = [lam for _, lam in self.terms]
        if any(not 0 <= lam < 1 for lam in lams):
            raise ValueError("exponents must lie in [0, 1)")
        if any(x <= y for x, y in zip(lams, lams[1:])):
            raise ValueError("exponents must strictly decrease")


def expansion(data: LSeriesData, ctx: PrecisionContext) -> AsymptoticExpansion:
    """C, b and A_1..A_J of a family with integer poles, together with
    saddle_series(data, ctx), the series they come from."""
    saddle = saddle_series(data, ctx)
    J = saddle.expansion_terms
    K, ell, mp = saddle.K, saddle.ell, ctx.mp
    r = [k / K[0] for k in K[:J]]  # R/K_1
    powers = []
    for c, p, q in saddle.curve:
        nu = q - 1  # D^nu = K_1^{-nu} (R/K_1)^{-nu}
        scale = K[0] ** -nu
        d_nu = [scale * g for g in series_power(r, Fraction(-nu), J, ctx)]
        powers.append((c, p, nu, d_nu))
    a_terms = []
    for k in range(1, J + 1):
        acc = K[k - 1]
        for c, p, nu, d_nu in powers:
            if k - 1 - p >= 0:
                acc = acc + c * d_nu[k - 1 - p] / nu
        a_terms.append((acc, Fraction(ell - 1 - (k - 1) * saddle.step, ell)))
    alpha, l_zero = data.alpha, data.l_at_zero
    b = (1 - l_zero + alpha / 2) / (alpha + 1)
    C = (
        mp.exp(data.l_prime_at_zero)
        * ctx.power_frac(saddle.curve[0][0], (Fraction(1, 2) - l_zero) / (alpha + 1))
        / mp.sqrt(2 * mp.pi * ctx.real(alpha + 1))
    )
    return AsymptoticExpansion(data.family, C, b, tuple(a_terms), saddle)


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

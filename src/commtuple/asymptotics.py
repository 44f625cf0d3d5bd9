"""Asymptotic expansions  C n^{-b} exp(sum_k A_k n^{lambda_k})  assembled
from L-series pole data.

A family whose Dirichlet series L has integer poles
alpha = nu_1 > nu_2 > ... >= 1, with dressed residues c_i
(lfunction.dressed_residue), has its saddle point at
rho = n^{-1/(alpha+1)} R(x), R(x) = K_1 + K_2 x + K_3 x^2 + ..., where
x = n^{-s/(alpha+1)}, s = gcd(alpha - nu_i), and the K_j come from the
saddle curve of saddle.saddle_series.  With D(x) = 1/R(x) and
p_i = (alpha - nu_i)/s, the exponential terms are

    A_k = K_k + sum_i (c_i/nu_i) [x^{k-1-p_i}] D(x)^{nu_i},
    lambda_k = (alpha - (k-1) s)/(alpha + 1),

for every k with lambda_k >= 0, and the prefactor is

    b = (1 - L(0) + alpha/2) / (alpha + 1),
    C = e^{L'(0)} c_1^{(1/2 - L(0))/(alpha+1)} / sqrt(2 pi (alpha+1)).

One pole gives the single term A_1 = (1 + 1/alpha) c_1^{1/(alpha+1)}.
The powers of D come from saddle.series_power, the recurrence that also
gives the K_j: [x^m] D^nu = K_1^{-nu} [x^m] (R/K_1)^{-nu}.  The tests
assemble the same A_k from integer powers of the series reciprocal of
R in oracles.TruncPoly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .lfunction import LSeriesData
from .precision import PrecisionContext
from .saddle import SaddleExpansion, saddle_series, series_power
from .series import BigIntSeq


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

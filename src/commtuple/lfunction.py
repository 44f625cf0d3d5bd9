"""Dirichlet-series data behind each product family.

Every supported family has L(s) = prod_{k in shifts} zeta(s - k): the
rank-r subgroup-count weight has shifts 0..r-1, the power weight n^d
the single shift d.  One builder reads the poles, their residues and
the special values at 0 off that product; exact rationals (zeta at
integers <= 0) and working-precision reals (zeta at integers >= 2) are
kept separate until the final promotion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Any

from .arith import ExponentSpec, Power, SubgroupCount
from .precision import PrecisionContext, zeta_int, zeta_nonpos, zeta_prime_neg


@dataclass(frozen=True)
class LSeriesData:
    """Pole data of the weight's Dirichlet series L(s).

    poles: ((location, residue-of-L), ...) sorted by decreasing location.
    l_at_zero is exact (rational for every supported family).
    """

    family: str
    poles: tuple[tuple[Fraction, Any], ...]
    l_at_zero: Fraction
    l_prime_at_zero: Any

    @property
    def alpha(self) -> Fraction:
        """Location of the dominant pole."""
        return self.poles[0][0]


def _zeta_product(args: list[int], ctx: PrecisionContext):
    """prod zeta(a): exact Fraction part (a <= 0) times real part (a >= 2)."""
    rat = Fraction(1)
    real = None
    for a in args:
        if a >= 2:
            z = zeta_int(a, ctx)
            real = z if real is None else real * z
        elif a <= 0:
            rat *= zeta_nonpos(-a)
        else:
            raise ValueError("zeta(1) inside a residue product")
    if real is None:
        return ctx.real(rat)
    return ctx.real(rat) * real if rat != 1 else real


def _zeta_data(family: str, shifts, ctx: PrecisionContext) -> LSeriesData:
    """Pole data of L(s) = prod_{k in shifts} zeta(s - k), distinct shifts.

    Each shift k gives a candidate pole at k + 1 whose residue is the
    product of the other factors there; the pole is dropped when one of
    those factors is an exact zero zeta(-2j), j >= 1.  L'(0) follows from
    the product rule: each term has the exact cofactor
    prod_{k != j} zeta(-k), and terms with a vanishing cofactor drop out
    exactly (so two or more zeta(-even) factors make L'(0) exactly 0).
    """
    poles = []
    for k in sorted(shifts, reverse=True):
        args = [k + 1 - j for j in shifts if j != k]
        if all(a > 0 or zeta_nonpos(-a) for a in args):
            poles.append((Fraction(k + 1), _zeta_product(args, ctx)))
    l_at_zero = prod(map(zeta_nonpos, shifts), start=Fraction(1))
    l_prime = ctx.mp.mpf(0)
    for j in shifts:
        cof = prod((zeta_nonpos(k) for k in shifts if k != j), start=Fraction(1))
        if cof:
            l_prime += ctx.real(cof) * zeta_prime_neg(j, ctx)
    return LSeriesData(family, tuple(poles), l_at_zero, l_prime)


def dressed_residue(pole, ctx: PrecisionContext):
    """Saddle coefficient nu! zeta(nu+1) omega of an integer pole at nu
    where L has residue omega: the pole contributes nu! zeta(nu+1) omega
    z^{-nu-1} to -Phi'(z)."""
    nu, omega = pole
    if nu != int(nu):
        raise ValueError("integer pole locations required")
    nu = int(nu)
    return factorial(nu) * zeta_int(nu + 1, ctx) * omega


def lf_data_ntuple(ell: int, ctx: PrecisionContext) -> LSeriesData:
    """Pole data for the commuting-tuple family N_ell, ell >= 2, whose
    L(s) = zeta(s) zeta(s-1) ... zeta(s-ell+2)."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return _zeta_data(f"ntuple-{ell}", range(ell - 1), ctx)


def lf_data_power(d: int, ctx: PrecisionContext) -> LSeriesData:
    """Pole data for the d-th power weight f(n) = n^d: L(s) = zeta(s-d),
    one pole at d+1 with residue 1."""
    if not 0 <= d <= 4:
        raise ValueError("d must be in 0..4")
    return _zeta_data(f"power-{d}", [d], ctx)


def lf_data_for(spec: ExponentSpec, ctx: PrecisionContext) -> LSeriesData:
    """Dispatch helper for CLI use; raises for families without data."""
    if isinstance(spec, SubgroupCount):
        return lf_data_ntuple(spec.rank + 1, ctx)
    if isinstance(spec, Power):
        return lf_data_power(spec.d, ctx)
    raise ValueError(f"no L-series data for family {spec.label}")

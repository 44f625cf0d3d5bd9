"""Dirichlet-series data behind each product family.

For the rank-r subgroup-count weight the attached Dirichlet series
factors as zeta(s) zeta(s-1) ... zeta(s-r+1), so poles, residues and
the special values at 0 reduce to products of zeta values; exact
rationals (zeta at integers <= 0) and working-precision reals (zeta at
integers >= 2) are kept separate until the final promotion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
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


def _ntuple_residue(ell: int, nu: int, ctx: PrecisionContext):
    """Residue of zeta(s) zeta(s-1)...zeta(s-ell+2) at s = nu."""
    args = [nu - k for k in range(ell - 1) if k != nu - 1]
    return _zeta_product(args, ctx)


def _l_at_zero_exact(ell: int) -> Fraction:
    out = Fraction(1)
    for k in range(ell - 1):
        out *= zeta_nonpos(k)
    return out


def _l_prime_at_zero(ell: int, ctx: PrecisionContext):
    """d/ds prod_{k=0}^{ell-2} zeta(s-k) at s = 0, by the product rule.

    Each term has an exact rational cofactor prod_{k != j} zeta(-k);
    terms with a vanishing cofactor drop out exactly, which makes the
    value exactly 0 for ell >= 6 (two or more zeta(-even) factors).
    """
    mp = ctx.mp
    total = mp.mpf(0)
    for j in range(ell - 1):
        cof = Fraction(1)
        for k in range(ell - 1):
            if k != j:
                cof *= zeta_nonpos(k)
        if cof == 0:
            continue
        total += ctx.real(cof) * zeta_prime_neg(j, ctx)
    return total


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
    """Pole data for the commuting-tuple family N_ell, ell >= 2.

    ell = 2: single pole at 1; ell = 3: poles at 2, 1; ell >= 4: poles
    at ell-1, ell-2, ell-3 (every other candidate pole is cancelled by a
    zero of a zeta(-even) factor).
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if ell == 2:
        locs = [1]
    elif ell == 3:
        locs = [2, 1]
    else:
        locs = [ell - 1, ell - 2, ell - 3]
    poles = tuple(
        (Fraction(nu), _ntuple_residue(ell, nu, ctx)) for nu in locs
    )
    return LSeriesData(
        family=f"ntuple-{ell}",
        poles=poles,
        l_at_zero=_l_at_zero_exact(ell),
        l_prime_at_zero=_l_prime_at_zero(ell, ctx),
    )


def lf_data_power(d: int, ctx: PrecisionContext) -> LSeriesData:
    """Pole data for the d-th power weight f(n) = n^d: L(s) = zeta(s-d),
    one pole at d+1 with residue 1."""
    if not 0 <= d <= 4:
        raise ValueError("d must be in 0..4")
    return LSeriesData(
        family=f"power-{d}",
        poles=((Fraction(d + 1), ctx.real(1)),),
        l_at_zero=zeta_nonpos(d),
        l_prime_at_zero=zeta_prime_neg(d, ctx),
    )


def lf_data_for(spec: ExponentSpec, ctx: PrecisionContext) -> LSeriesData:
    """Dispatch helper for CLI use; raises for families without data."""
    if isinstance(spec, SubgroupCount):
        return lf_data_ntuple(spec.rank + 1, ctx)
    if isinstance(spec, Power):
        return lf_data_power(spec.d, ctx)
    raise ValueError(f"no L-series data for family {spec.label}")

"""Arbitrary-precision real arithmetic and the zeta-family constants.

Every routine takes an explicit PrecisionContext and returns values
bound to that context's mpf type, computed at its working precision.
zeta at odd integers, zeta' at integers >= 2 and Euler's gamma come
from mpmath; zeta at even integers and at s <= 0 come from exact
Bernoulli numbers, which are mpmath's bernfrac.  oracles.py keeps the
binomial Bernoulli recurrence and Euler-Maclaurin routes for the mpmath
values, which the tests compare against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial


@cache
def bernoulli_fraction(m: int) -> Fraction:
    """Exact Bernoulli number B_m (convention B_1 = -1/2), from mpmath's
    bernfrac.  The constants ask for the same few B_m thousands of times
    (4058 calls at ell = 63), hence the cache."""
    if m < 0:
        raise ValueError("m must be >= 0")
    from mpmath import bernfrac

    return Fraction(*bernfrac(m))


class PrecisionContext:
    """Independent working-precision context (decimal digits >= 50).

    Arithmetic runs at digits + guard decimal places on a private mpmath
    context, so two PrecisionContext instances never interact through
    global state.
    """

    guard = 10

    def __init__(self, digits: int = 50):
        from mpmath.ctx_mp import MPContext

        if digits < 50:
            raise ValueError("digits must be >= 50")
        self.digits = digits
        self.mp = MPContext()
        self.mp.dps = digits + self.guard
        self._cache: dict = {}

    def real(self, x):
        """Promote int / Fraction / str / mpf to this context's mpf."""
        if isinstance(x, Fraction):
            return self.mp.mpf(x.numerator) / x.denominator
        return self.mp.mpf(x)

    def power_frac(self, x, e: Fraction):
        """x^e for positive real x and exact rational e."""
        if x <= 0:
            raise ValueError("power_frac needs a positive base")
        return self.mp.power(x, self.real(e))

    def eps_target(self):
        """Absolute tail target: below the last guarded digit."""
        return self.mp.mpf(10) ** (-(self.digits + self.guard))

    def to_str(self, x) -> str:
        from mpmath import nstr

        return nstr(x, self.digits)

    def __repr__(self) -> str:  # pragma: no cover
        return f"PrecisionContext(digits={self.digits})"


def ln2pi(ctx: PrecisionContext):
    return ctx.mp.log(2 * ctx.mp.pi)


def zeta_nonpos(d: int) -> Fraction:
    """zeta(-d) = (-1)^d B_{d+1}/(d+1), exact."""
    if d < 0:
        raise ValueError("d must be >= 0")
    return (-1) ** d * Fraction(bernoulli_fraction(d + 1), d + 1)


def zeta_int(m: int, ctx: PrecisionContext):
    """zeta(m) for integer m >= 2.

    Even m goes through the exact Bernoulli closed form
    zeta(2k) = (-1)^{k+1} B_{2k} (2 pi)^{2k} / (2 (2k)!); odd m is
    mpmath's zeta at the context's working precision.  The tests check
    both against the Euler-Maclaurin sums in oracles.py.
    """
    if m < 2:
        raise ValueError("m must be >= 2 (use zeta_nonpos for s <= 0)")
    key = ("zeta", m)
    if key in ctx._cache:
        return ctx._cache[key]
    mp = ctx.mp
    if m % 2 == 0:
        k = m // 2
        coeff = Fraction((-1) ** (k + 1) * bernoulli_fraction(2 * k), 2 * factorial(2 * k))
        val = ctx.real(coeff) * mp.power(2 * mp.pi, m)
    else:
        val = mp.zeta(m)
    ctx._cache[key] = val
    return val


def zeta_prime_int(m: int, ctx: PrecisionContext):
    """zeta'(m) for integer m >= 2: mpmath's first derivative of zeta at
    the context's working precision, checked in the tests against the
    differentiated Euler-Maclaurin sum in oracles.py."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return ctx.mp.zeta(m, 1, 1)


def euler_gamma(ctx: PrecisionContext):
    """The Euler-Mascheroni constant: mpmath's at the context's working
    precision, checked in the tests against the Euler-Maclaurin sum in
    oracles.py."""
    return +ctx.mp.euler


def zeta_prime_neg(d: int, ctx: PrecisionContext):
    """zeta'(-d) for 0 <= d <= 6.

    d = 0: -ln(2 pi)/2.  Even d: (-1)^{d/2} d! zeta(d+1) / (2 (2 pi)^d).
    Odd d: differentiate the functional equation, which needs zeta(d+1),
    zeta'(d+1), and psi(d+1) = H_d - gamma.
    """
    if not 0 <= d <= 6:
        raise ValueError("d must be in 0..6")
    mp = ctx.mp
    if d == 0:
        return -ln2pi(ctx) / 2
    if d % 2 == 0:
        sign = (-1) ** (d // 2)
        return sign * factorial(d) * zeta_int(d + 1, ctx) / (2 * mp.power(2 * mp.pi, d))
    chi = (
        mp.power(2, -d)
        * mp.power(mp.pi, -d - 1)
        * (-1) ** ((d + 1) // 2)
        * factorial(d)
    )
    psi = -euler_gamma(ctx) + sum(mp.mpf(1) / k for k in range(1, d + 1))
    return chi * ((ln2pi(ctx) - psi) * zeta_int(d + 1, ctx) - zeta_prime_int(d + 1, ctx))

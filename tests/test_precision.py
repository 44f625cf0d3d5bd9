"""Arbitrary-precision constants against exact values and against
mpmath's independent implementations."""

from fractions import Fraction
from math import factorial

import mpmath
import pytest

from commtuple import (
    PrecisionContext,
    bernoulli_fraction,
    euler_gamma,
    zeta_int,
    zeta_nonpos,
    zeta_prime_int,
    zeta_prime_neg,
)
from commtuple.oracles import (
    _em_sum,
    bernoulli_recurrence,
    euler_gamma_em,
    zeta_em,
    zeta_prime_em,
)


def as_mp(ctx, x):
    return ctx.mp.mpf(x)


def test_bernoulli_values():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for m, want in expected.items():
        assert bernoulli_fraction(m) == want


def test_bernoulli_matches_recurrence():
    want = bernoulli_recurrence(300)
    assert [bernoulli_fraction(m) for m in range(301)] == want
    # from an empty cache, requests that shrink, grow and hit odd indices
    for order in ((7, 200, 3, 64, 1), (300, 0, 299, 1)):
        bernoulli_fraction.cache_clear()
        for m in order:
            assert bernoulli_fraction(m) == want[m], m
    with pytest.raises(ValueError):
        bernoulli_fraction(-1)


def test_zeta_nonpos_exact():
    assert zeta_nonpos(0) == Fraction(-1, 2)
    assert zeta_nonpos(1) == Fraction(-1, 12)
    assert zeta_nonpos(2) == 0
    assert zeta_nonpos(3) == Fraction(1, 120)
    assert zeta_nonpos(4) == 0
    assert zeta_nonpos(11) == Fraction(691, 32760)


def test_zeta_even_closed_forms(ctx50):
    pi = +ctx50.mp.pi
    assert abs(zeta_int(2, ctx50) - pi**2 / 6) < as_mp(ctx50, "1e-48")
    assert abs(zeta_int(4, ctx50) - pi**4 / 90) < as_mp(ctx50, "1e-48")
    assert abs(zeta_int(2, ctx50) * 6 / pi**2 - 1) < as_mp(ctx50, "1e-48")


def test_zeta_against_mpmath(ctx50):
    with mpmath.workdps(70):
        for m in (2, 3, 5, 7, 9, 12, 15):
            ref = mpmath.zeta(m)
            assert abs(zeta_int(m, ctx50) - as_mp(ctx50, mpmath.nstr(ref, 60))) < as_mp(
                ctx50, "1e-48"
            )


def test_zeta_prime_against_mpmath(ctx50):
    with mpmath.workdps(70):
        for m in (2, 3, 4, 7):
            ref = mpmath.zeta(m, 1, 1)
            assert abs(
                zeta_prime_int(m, ctx50) - as_mp(ctx50, mpmath.nstr(ref, 60))
            ) < as_mp(ctx50, "1e-47")


def test_zeta_prime_neg_values(ctx50):
    mp = ctx50.mp
    # d = 0 closed form
    assert abs(zeta_prime_neg(0, ctx50) + mp.log(2 * mp.pi) / 2) < as_mp(
        ctx50, "1e-48"
    )
    # even case identity
    want = -zeta_int(3, ctx50) / (4 * (+ctx50.mp.pi) ** 2)
    assert abs(zeta_prime_neg(2, ctx50) - want) < as_mp(ctx50, "1e-48")
    with mpmath.workdps(70):
        for d in range(0, 7):
            ref = mpmath.zeta(-d, 1, 1)
            assert abs(
                zeta_prime_neg(d, ctx50) - as_mp(ctx50, mpmath.nstr(ref, 60))
            ) < as_mp(ctx50, "1e-46"), d
    with pytest.raises(ValueError):
        zeta_prime_neg(7, ctx50)


def test_euler_gamma(ctx50):
    with mpmath.workdps(70):
        ref = mpmath.nstr(+mpmath.euler, 60)
    assert abs(euler_gamma(ctx50) - as_mp(ctx50, ref)) < as_mp(ctx50, "1e-48")


@pytest.mark.parametrize("digits", [50, 100])
def test_mpmath_values_match_euler_maclaurin(digits):
    # zeta(odd), zeta' and gamma come from mpmath; the Euler-Maclaurin
    # sums of the oracle module are the independent reference, which
    # agrees to within two digits of the working precision
    ctx = PrecisionContext(digits)
    tol = ctx.mp.mpf(10) ** (2 - digits)
    for m in range(3, 16, 2):
        assert abs(zeta_int(m, ctx) - zeta_em(m, ctx)) < tol, m
    for m in range(2, 8):
        assert abs(zeta_prime_int(m, ctx) - zeta_prime_em(m, ctx)) < tol, m
    assert abs(euler_gamma(ctx) - euler_gamma_em(ctx)) < tol


def test_em_sum_restarts_when_terms_grow(ctx50):
    # zeta(3) from N = 2: the correction terms start to grow long before
    # they fall below 10^-60, so the sum restarts at 4, 8, ... until the
    # cutoff is large enough; no production caller starts that low
    mp = ctx50.mp
    cutoffs = []

    def head(big_n):
        cutoffs.append(big_n)
        val = sum(mp.mpf(1) / n**3 for n in range(1, big_n + 1))
        return val + mp.mpf(1) / (2 * big_n**2) - mp.mpf(1) / (2 * big_n**3)

    def term(big_n, k):
        coeff = Fraction(bernoulli_fraction(2 * k) * factorial(2 * k + 1), 2 * factorial(2 * k))
        return ctx50.real(coeff) / mp.mpf(big_n ** (2 * k + 2))

    val = _em_sum(ctx50, 2, head, term, ctx50.eps_target())
    assert cutoffs[:2] == [2, 4] and len(cutoffs) > 2
    with mpmath.workdps(70):
        ref = mpmath.nstr(mpmath.zeta(3), 60)
    assert abs(val - as_mp(ctx50, ref)) < as_mp(ctx50, "1e-48")


def test_precision_stability():
    lo = PrecisionContext(50)
    hi = PrecisionContext(100)
    pairs = [
        (zeta_int(3, lo), zeta_int(3, hi)),
        (zeta_prime_int(2, lo), zeta_prime_int(2, hi)),
        (zeta_prime_neg(1, lo), zeta_prime_neg(1, hi)),
        (zeta_prime_neg(2, lo), zeta_prime_neg(2, hi)),
        (euler_gamma(lo), euler_gamma(hi)),
    ]
    for a, b in pairs:
        assert abs(lo.mp.mpf(1) * a - lo.mp.mpf(str(b))) < lo.mp.mpf("1e-48")


def test_context_guards():
    with pytest.raises(ValueError):
        PrecisionContext(30)
    ctx = PrecisionContext(50)
    # dyadic rationals promote exactly
    assert ctx.real(Fraction(3, 4)) == ctx.mp.mpf(3) / 4
    with pytest.raises(ValueError):
        ctx.power_frac(ctx.mp.mpf(-2), Fraction(1, 3))

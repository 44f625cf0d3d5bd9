"""Constant assembly for the exponential-polynomial asymptotics, plus the
exact-vs-asymptotic comparison utilities."""

import random
from fractions import Fraction

import mpmath
import pytest

from commtuple import (
    AsymptoticExpansion,
    BigIntSeq,
    TruncPoly,
    compare_exact_asym,
    estimate_B1,
    evaluate_expansion,
    expansion_one_pole,
    expansion_three_pole,
    expansion_two_pole,
    lf_data_ntuple,
    lf_data_power,
    recip_power_coeff,
    rho_series_three_pole,
)

TOL = "1e-44"


def zeta_prime_ref(s):
    """High-precision zeta'(s) string via the independent library route."""
    with mpmath.workdps(70):
        return mpmath.nstr(mpmath.zeta(s, 1, 1), 55)


def test_pair_family_constants(ctx50):
    mp = ctx50.mp
    exp = expansion_one_pole(lf_data_ntuple(2, ctx50), ctx50)
    assert exp.b == 1
    assert len(exp.terms) == 1
    a1, lam = exp.terms[0]
    assert lam == Fraction(1, 2)
    assert abs(a1 - mp.pi * mp.sqrt(mp.mpf(2) / 3)) < mp.mpf(TOL)
    assert abs(exp.C - 1 / (4 * mp.sqrt(3))) < mp.mpf(TOL)


def test_power_zero_matches_pair_family(ctx50):
    mp = ctx50.mp
    a = expansion_one_pole(lf_data_ntuple(2, ctx50), ctx50)
    b = expansion_one_pole(lf_data_power(0, ctx50), ctx50)
    assert a.b == b.b
    assert abs(a.C - b.C) < mp.mpf(TOL)
    assert a.terms[0][1] == b.terms[0][1]
    assert abs(a.terms[0][0] - b.terms[0][0]) < mp.mpf(TOL)


def test_plane_partition_constants(ctx50):
    mp = ctx50.mp
    exp = expansion_one_pole(lf_data_power(1, ctx50), ctx50)
    assert exp.b == Fraction(25, 36)
    a1, lam = exp.terms[0]
    assert lam == Fraction(2, 3)
    with mpmath.workdps(70):
        z3 = mpmath.zeta(3)
        want_a1 = mpmath.mpf(3) / 2 * (2 * z3) ** (mpmath.mpf(1) / 3)
        want_c = (
            mpmath.exp(mpmath.zeta(-1, 1, 1))
            * (2 * z3) ** (mpmath.mpf(7) / 36)
            / mpmath.sqrt(6 * mpmath.pi)
        )
        assert abs(a1 - mp.mpf(mpmath.nstr(want_a1, 55))) < mp.mpf(TOL)
        assert abs(exp.C - mp.mpf(mpmath.nstr(want_c, 55))) < mp.mpf(TOL)


def test_triple_family_constants(ctx50):
    mp = ctx50.mp
    exp = expansion_two_pole(lf_data_ntuple(3, ctx50), ctx50)
    assert exp.b == Fraction(47, 72)
    assert [lam for _, lam in exp.terms] == [
        Fraction(2, 3),
        Fraction(1, 3),
        Fraction(0),
    ]
    z3 = mp.zeta(3)
    third = Fraction(1, 3)
    want_a1 = ctx50.power_frac(3 * mp.pi, Fraction(2, 3)) * ctx50.power_frac(
        z3, third
    ) / 2
    want_a2 = -ctx50.power_frac(mp.pi, Fraction(4, 3)) / (
        4 * ctx50.power_frac(mp.mpf(3), Fraction(2, 3)) * ctx50.power_frac(z3, third)
    )
    want_a3 = -mp.pi**2 / (288 * z3)
    assert abs(exp.terms[0][0] - want_a1) < mp.mpf(TOL)
    assert abs(exp.terms[1][0] - want_a2) < mp.mpf(TOL)
    assert abs(exp.terms[2][0] - want_a3) < mp.mpf(TOL)
    # constant-exponent term folded into the prefactor gives the closed form
    folded = exp.C * mp.exp(exp.terms[2][0])
    zp1 = mp.mpf(zeta_prime_ref(-1))
    want_folded = (
        mp.exp(-zp1 / 2 - mp.pi**2 / (288 * z3))
        * ctx50.power_frac(z3, Fraction(11, 72))
        / (
            ctx50.power_frac(mp.mpf(2), Fraction(11, 24))
            * ctx50.power_frac(mp.mpf(3), Fraction(47, 72))
            * ctx50.power_frac(mp.pi, Fraction(11, 72))
        )
    )
    assert abs(folded - want_folded) < mp.mpf(TOL)


def test_triple_family_constant_term_identity(ctx50):
    # the constant exponent term equals -c2^2/(6 c1)
    mp = ctx50.mp
    data = lf_data_ntuple(3, ctx50)
    exp = expansion_two_pole(data, ctx50)
    c1 = mp.pi**2 * mp.zeta(3) / 3
    c2 = -mp.pi**2 / 12
    assert abs(exp.terms[2][0] + c2**2 / (6 * c1)) < mp.mpf(TOL)


def test_quadruple_family_constants(ctx50):
    mp = ctx50.mp
    data = lf_data_ntuple(4, ctx50)
    exp = expansion_three_pole(4, data, ctx50)
    assert exp.b == Fraction(5, 8)
    assert [lam for _, lam in exp.terms] == [Fraction(3 - k, 4) for k in range(4)]
    want_a1 = (
        ctx50.power_frac(mp.mpf(2), Fraction(7, 4))
        * ctx50.power_frac(mp.pi, Fraction(3, 2))
        * ctx50.power_frac(mp.zeta(3), Fraction(1, 4))
        / (
            ctx50.power_frac(mp.mpf(3), Fraction(3, 2))
            * ctx50.power_frac(mp.mpf(5), Fraction(1, 4))
        )
    )
    assert abs(exp.terms[0][0] - want_a1) < mp.mpf(TOL)
    zp2 = mp.mpf(zeta_prime_ref(-2))
    want_c = (
        mp.exp(zp2 / 24)
        * ctx50.power_frac(data.c1, Fraction(1, 8))
        / mp.sqrt(8 * mp.pi)
    )
    assert abs(exp.C - want_c) < mp.mpf(TOL)


def test_higher_rank_leading_constants(ctx50):
    # A_1 = (ell/(ell-1)) (Gamma(ell) prod_{j=2..ell} zeta(j))^{1/ell};
    # for rank >= 5 the L-derivative factor is exp(zeta'(-2)/2880) then 1
    mp = ctx50.mp
    for ell in (5, 6, 7, 8):
        data = lf_data_ntuple(ell, ctx50)
        exp = expansion_three_pole(ell, data, ctx50)
        assert exp.b == Fraction(ell + 1, 2 * ell)
        with mpmath.workdps(70):
            prod = mpmath.factorial(ell - 1)
            for j in range(2, ell + 1):
                prod *= mpmath.zeta(j)
            want = (
                mpmath.mpf(ell) / (ell - 1) * prod ** (mpmath.mpf(1) / ell)
            )
            assert abs(exp.terms[0][0] - mp.mpf(mpmath.nstr(want, 55))) < mp.mpf(
                "1e-40"
            )
        want_c = ctx50.power_frac(data.c1, Fraction(1, 2 * ell)) / mp.sqrt(
            2 * mp.pi * ell
        )
        if ell == 5:
            zp2 = mp.mpf(zeta_prime_ref(-2))
            want_c = want_c * mp.exp(zp2 / 2880)
        assert abs(exp.C - want_c) < mp.mpf("1e-40")


def test_three_pole_terms_against_series_route(ctx50):
    # rebuild every A_k through generic truncated-series arithmetic
    mp = ctx50.mp
    from commtuple import rho_series_three_pole

    for ell in (4, 5, 6):
        data = lf_data_ntuple(ell, ctx50)
        exp = expansion_three_pole(ell, data, ctx50)
        K = rho_series_three_pole(ell, ell + 1, data, ctx50).K
        kpoly = TruncPoly(mp, K, ell)
        inv = kpoly.inverse()
        cs = (data.c1, data.c2, data.c3)
        for k in range(1, ell + 1):
            want = K[k - 1]
            for i in (1, 2, 3):
                if k - i >= 0:
                    want += cs[i - 1] * (inv ** (ell - i)).coeff(k - i) / (ell - i)
            assert abs(exp.terms[k - 1][0] - want) < mp.mpf("1e-42"), (ell, k)


def test_recip_power_coeff_against_truncpoly(ctx50):
    mp = ctx50.mp
    rng = random.Random(771204)
    for _ in range(4):
        K = [mp.mpf(rng.uniform(0.5, 2.0))] + [
            mp.mpf(rng.uniform(-1, 1)) for _ in range(5)
        ]
        kpoly = TruncPoly(mp, K, 5)
        inv = kpoly.inverse()
        for nu in (1, 2, 3):
            ref = inv**nu
            for m in range(6):
                got = recip_power_coeff(K, Fraction(nu), m, ctx50)
                assert abs(got - ref.coeff(m)) < mp.mpf("1e-42")
        # fractional exponent: square of the -1/2 power is the reciprocal
        half = [recip_power_coeff(K, Fraction(1, 2), m, ctx50) for m in range(6)]
        sq = TruncPoly(mp, half, 5) ** 2
        for m in range(6):
            assert abs(sq.coeff(m) - inv.coeff(m)) < mp.mpf("1e-40")


def test_expansion_validation(ctx50):
    mp = ctx50.mp
    one = mp.mpf(1)
    with pytest.raises(ValueError):
        AsymptoticExpansion("x", one, Fraction(1), ((one, Fraction(3, 2)),))
    with pytest.raises(ValueError):
        AsymptoticExpansion(
            "x", one, Fraction(1), ((one, Fraction(1, 3)), (one, Fraction(1, 2)))
        )


def test_three_pole_given_saddle_series(ctx50):
    data = lf_data_ntuple(5, ctx50)
    own = expansion_three_pole(5, data, ctx50)
    saddle = rho_series_three_pole(5, 6, data, ctx50)
    assert expansion_three_pole(5, data, ctx50, saddle) == own
    with pytest.raises(ValueError):
        expansion_three_pole(5, data, ctx50, rho_series_three_pole(5, 5, data, ctx50))
    with pytest.raises(ValueError):
        expansion_three_pole(
            5, data, ctx50, rho_series_three_pole(6, 7, lf_data_ntuple(6, ctx50), ctx50)
        )


def test_evaluate_pair_family_point(ctx50):
    # closed-form check at n = 1
    mp = ctx50.mp
    exp = expansion_one_pole(lf_data_ntuple(2, ctx50), ctx50)
    val = evaluate_expansion(exp, 1, ctx50)
    want = mp.exp(mp.pi * mp.sqrt(mp.mpf(2) / 3)) / (4 * mp.sqrt(3))
    assert abs(val - want) < mp.mpf("1e-40")
    with pytest.raises(ValueError):
        evaluate_expansion(exp, 0, ctx50)


def test_compare_pair_family(ctx50, p_10k):
    exp = expansion_one_pole(lf_data_ntuple(2, ctx50), ctx50)
    rows = compare_exact_asym(p_10k, exp, [5000], ctx50)
    assert rows[0].n == 5000
    assert rows[0].exact == p_10k[5000]
    assert abs(rows[0].ratio - 1) < 0.015
    assert abs(rows[0].log_error) < 0.015


def test_compare_triple_family_improves(ctx50, n3_10k):
    exp = expansion_two_pole(lf_data_ntuple(3, ctx50), ctx50)
    rows = compare_exact_asym(n3_10k, exp, [1000, 10000], ctx50)
    assert abs(rows[1].ratio - 1) < abs(rows[0].ratio - 1)
    assert abs(rows[1].ratio - 1) < 0.01


def test_compare_rejects_nonpositive(ctx50):
    exp = expansion_one_pole(lf_data_ntuple(2, ctx50), ctx50)
    seq = BigIntSeq((1, 0, 2), offset=0, label="bad")
    with pytest.raises(ValueError):
        compare_exact_asym(seq, exp, [1], ctx50)


def test_estimate_B1_synthetic_zero(ctx50):
    # a sequence manufactured from the expansion itself has no first
    # correction, so the fitted coefficient collapses to rounding noise
    mp = ctx50.mp
    exp = expansion_one_pole(lf_data_ntuple(2, ctx50), ctx50)
    vals = tuple(
        int(mp.nint(evaluate_expansion(exp, n, ctx50))) for n in range(300, 341)
    )
    seq = BigIntSeq(vals, offset=300, label="synthetic")
    est = estimate_B1(seq, exp, (300, 340), ctx50)
    assert abs(est) < mp.mpf("1e-6")


def test_estimate_B1_pair_family_windows(ctx50, p_10k):
    exp = expansion_one_pole(lf_data_ntuple(2, ctx50), ctx50)
    lo = estimate_B1(p_10k, exp, (2000, 3000), ctx50)
    hi = estimate_B1(p_10k, exp, (4000, 5000), ctx50)
    assert abs(lo - hi) <= 0.1 * min(abs(lo), abs(hi))
    assert lo < 0 and hi < 0
    with pytest.raises(ValueError):
        estimate_B1(p_10k, exp, (100, 105), ctx50)


def test_data_shape_guards(ctx50):
    two = lf_data_ntuple(3, ctx50)
    three = lf_data_ntuple(4, ctx50)
    with pytest.raises(ValueError):
        expansion_one_pole(two, ctx50)
    with pytest.raises(ValueError):
        expansion_two_pole(three, ctx50)
    with pytest.raises(ValueError):
        expansion_three_pole(3, two, ctx50)
    with pytest.raises(ValueError):
        expansion_three_pole(4, two, ctx50)

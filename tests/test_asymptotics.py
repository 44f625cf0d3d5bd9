"""Constant assembly for the exponential-polynomial asymptotics, plus the
exact-vs-asymptotic comparison utilities."""

from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commtuple import (
    AsymptoticExpansion,
    BigIntSeq,
    LSeriesData,
    PrecisionContext,
    compare_exact_asym,
    dressed_residue,
    evaluate_expansion,
    expansion,
    lf_data_ntuple,
    lf_data_power,
    saddle_series,
)
from commtuple.oracles import TruncPoly, curve_saddle_series

TOL = "1e-44"


def zeta_prime_ref(s):
    """High-precision zeta'(s) string via the independent library route."""
    with mpmath.workdps(70):
        return mpmath.nstr(mpmath.zeta(s, 1, 1), 55)


def test_pair_family_constants(ctx50):
    mp = ctx50.mp
    exp = expansion(lf_data_ntuple(2, ctx50), ctx50)
    assert exp.b == 1
    assert len(exp.terms) == 1
    a1, lam = exp.terms[0]
    assert lam == Fraction(1, 2)
    assert abs(a1 - mp.pi * mp.sqrt(mp.mpf(2) / 3)) < mp.mpf(TOL)
    assert abs(exp.C - 1 / (4 * mp.sqrt(3))) < mp.mpf(TOL)


def test_power_zero_matches_pair_family(ctx50):
    mp = ctx50.mp
    a = expansion(lf_data_ntuple(2, ctx50), ctx50)
    b = expansion(lf_data_power(0, ctx50), ctx50)
    assert a.b == b.b
    assert abs(a.C - b.C) < mp.mpf(TOL)
    assert a.terms[0][1] == b.terms[0][1]
    assert abs(a.terms[0][0] - b.terms[0][0]) < mp.mpf(TOL)


def test_plane_partition_constants(ctx50):
    mp = ctx50.mp
    exp = expansion(lf_data_power(1, ctx50), ctx50)
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
    exp = expansion(lf_data_ntuple(3, ctx50), ctx50)
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
    exp = expansion(data, ctx50)
    c1 = mp.pi**2 * mp.zeta(3) / 3
    c2 = -mp.pi**2 / 12
    assert abs(exp.terms[2][0] + c2**2 / (6 * c1)) < mp.mpf(TOL)


def test_quadruple_family_constants(ctx50):
    mp = ctx50.mp
    data = lf_data_ntuple(4, ctx50)
    exp = expansion(data, ctx50)
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
        * ctx50.power_frac(dressed_residue(data.poles[0], ctx50), Fraction(1, 8))
        / mp.sqrt(8 * mp.pi)
    )
    assert abs(exp.C - want_c) < mp.mpf(TOL)


def test_higher_rank_leading_constants(ctx50):
    # A_1 = (ell/(ell-1)) (Gamma(ell) prod_{j=2..ell} zeta(j))^{1/ell};
    # for rank >= 5 the L-derivative factor is exp(zeta'(-2)/2880) then 1
    mp = ctx50.mp
    for ell in (5, 6, 7, 8):
        data = lf_data_ntuple(ell, ctx50)
        exp = expansion(data, ctx50)
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
        c1 = dressed_residue(data.poles[0], ctx50)
        want_c = ctx50.power_frac(c1, Fraction(1, 2 * ell)) / mp.sqrt(2 * mp.pi * ell)
        if ell == 5:
            zp2 = mp.mpf(zeta_prime_ref(-2))
            want_c = want_c * mp.exp(zp2 / 2880)
        assert abs(exp.C - want_c) < mp.mpf("1e-40")


def test_three_pole_terms_against_series_route(ctx50):
    # rebuild every A_k through generic truncated-series arithmetic
    mp = ctx50.mp
    for ell in (4, 5, 6):
        data = lf_data_ntuple(ell, ctx50)
        exp = expansion(data, ctx50)
        K = saddle_series(data, ctx50).K
        kpoly = TruncPoly(mp, K, ell)
        inv = kpoly.inverse()
        cs = [dressed_residue(pole, ctx50) for pole in data.poles]
        for k in range(1, ell + 1):
            want = K[k - 1]
            for i in (1, 2, 3):
                if k - i >= 0:
                    want += cs[i - 1] * (inv ** (ell - i)).coeff(k - i) / (ell - i)
            assert abs(exp.terms[k - 1][0] - want) < mp.mpf("1e-42"), (ell, k)


def test_expansion_validation(ctx50):
    mp = ctx50.mp
    one = mp.mpf(1)
    saddle = saddle_series(lf_data_ntuple(2, ctx50), ctx50)
    with pytest.raises(ValueError):
        AsymptoticExpansion("x", one, Fraction(1), ((one, Fraction(3, 2)),), saddle)
    with pytest.raises(ValueError):
        AsymptoticExpansion(
            "x", one, Fraction(1), ((one, Fraction(1, 3)), (one, Fraction(1, 2))),
            saddle,
        )


def test_three_pole_keeps_its_saddle_series(ctx50):
    data = lf_data_ntuple(5, ctx50)
    exp = expansion(data, ctx50)
    assert exp.saddle == saddle_series(data, ctx50)
    # the series carries one K_j past the J terms of the expansion
    assert len(exp.saddle.K) == len(exp.terms) + 1 == exp.saddle.expansion_terms + 1


def test_evaluate_pair_family_point(ctx50):
    # closed-form check at n = 1
    mp = ctx50.mp
    exp = expansion(lf_data_ntuple(2, ctx50), ctx50)
    val = evaluate_expansion(exp, 1, ctx50)
    want = mp.exp(mp.pi * mp.sqrt(mp.mpf(2) / 3)) / (4 * mp.sqrt(3))
    assert abs(val - want) < mp.mpf("1e-40")
    with pytest.raises(ValueError):
        evaluate_expansion(exp, 0, ctx50)


def test_compare_pair_family(ctx50, p_10k):
    exp = expansion(lf_data_ntuple(2, ctx50), ctx50)
    rows = compare_exact_asym(p_10k, exp, [5000], ctx50)
    assert rows[0].n == 5000
    assert rows[0].exact == p_10k[5000]
    assert abs(rows[0].ratio - 1) < 0.015
    assert abs(rows[0].log_error) < 0.015


def test_compare_triple_family_improves(ctx50, n3_10k):
    exp = expansion(lf_data_ntuple(3, ctx50), ctx50)
    rows = compare_exact_asym(n3_10k, exp, [1000, 10000], ctx50)
    assert abs(rows[1].ratio - 1) < abs(rows[0].ratio - 1)
    assert abs(rows[1].ratio - 1) < 0.01


def test_compare_rejects_nonpositive(ctx50):
    exp = expansion(lf_data_ntuple(2, ctx50), ctx50)
    seq = BigIntSeq((1, 0, 2), offset=0, label="bad")
    with pytest.raises(ValueError):
        compare_exact_asym(seq, exp, [1], ctx50)


def test_pair_family_correction_windows(ctx50, p_10k):
    # exact/asym - 1 decays as n^{-1/2} = n^{lambda_1 - 1}: its mean
    # scaled by n^{1/2} over two windows is the same negative constant
    exp = expansion(lf_data_ntuple(2, ctx50), ctx50)
    scale_expo = 1 - exp.terms[0][1]

    def scaled_correction(lo, hi):
        acc = ctx50.mp.mpf(0)
        for n in range(lo, hi + 1):
            ratio = ctx50.real(p_10k[n]) / evaluate_expansion(exp, n, ctx50)
            acc += (ratio - 1) * ctx50.power_frac(ctx50.real(n), scale_expo)
        return acc / (hi - lo + 1)

    lo = scaled_correction(2000, 3000)
    hi = scaled_correction(4000, 5000)
    assert abs(lo - hi) <= 0.1 * min(abs(lo), abs(hi))
    assert lo < 0 and hi < 0


def test_two_pole_past_five_terms(ctx50):
    # poles (6, 5): seven exponents, past the five closed-form K_j
    mp = ctx50.mp
    data = LSeriesData("synthetic", ((Fraction(6), mp.mpf(1)), (Fraction(5), mp.mpf(-2))),
                       Fraction(0), mp.mpf(0))
    exp = expansion(data, ctx50)
    assert [lam for _, lam in exp.terms] == [Fraction(6 - k, 7) for k in range(7)]


def test_expansion_rejects_half_integer_pole(ctx50):
    half = LSeriesData("synthetic", ((Fraction(5, 2), ctx50.real(1)),), Fraction(0),
                       ctx50.real(0))
    with pytest.raises(ValueError):
        expansion(half, ctx50)


@st.composite
def pole_data(draw):
    """Synthetic L-series data with 1-3 integer poles, the dominant one at
    alpha <= 8 with a positive residue.  With two or three poles, the
    gaps are 1-3 and the expansion has J = alpha // s + 1 > 5 terms
    (s the gcd of the gaps)."""
    ctx = PrecisionContext(50)
    count = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.integers(1, 3), min_size=count - 1, max_size=count - 1))
    alpha = draw(st.integers(sum(gaps) + 1, 8))
    nus = [alpha]
    for g in gaps:
        nus.append(nus[-1] - g)
    if count > 1:
        assume(alpha // gcd(*(alpha - nu for nu in nus)) + 1 > 5)
    residues = [draw(st.fractions(Fraction(1, 8), 4, max_denominator=64))]
    residues += [draw(st.fractions(-4, 4, max_denominator=64)) for _ in gaps]
    poles = tuple((Fraction(nu), ctx.real(w)) for nu, w in zip(nus, residues))
    return LSeriesData("synthetic", poles, Fraction(0), ctx.real(0))


def check_against_oracle_assembly(data):
    """expansion(data) against K from the Newton oracle and A_k from
    integer powers of the series reciprocal of R(x) = K_1 + K_2 x + ...:
    A_k = K_k + sum_i (c_i/nu_i) [x^{k-1-p_i}] R(x)^{-nu_i}."""
    ctx = PrecisionContext(50)
    mp = ctx.mp
    nus = [int(nu) for nu, _ in data.poles]
    alpha = nus[0]
    step = gcd(*(alpha - nu for nu in nus)) or alpha + 1
    cs = [dressed_residue(pole, ctx) for pole in data.poles]
    ps = [(alpha - nu) // step for nu in nus]
    J = alpha // step + 1
    K = curve_saddle_series(
        [(c, p, nu + 1) for c, p, nu in zip(cs, ps, nus)], J + 1, ctx)
    recip = TruncPoly(mp, K, J).inverse()
    exp = expansion(data, ctx)
    assert [lam for _, lam in exp.terms] == [
        Fraction(alpha - k * step, alpha + 1) for k in range(J)]
    bound = mp.mpf(10) ** -(ctx.digits - 5)
    for k, (got, _) in enumerate(exp.terms, start=1):
        want = K[k - 1]
        for c, p, nu in zip(cs, ps, nus):
            if k - 1 - p >= 0:
                want += c / nu * (recip**nu).coeff(k - 1 - p)
        assert abs(got - want) <= bound * max(1, abs(want)), (k, got, want)


@settings(max_examples=60, deadline=None)
@given(pole_data())
def test_expansion_matches_oracle_assembly(data):
    check_against_oracle_assembly(data)


def test_expansion_on_even_grid_matches_oracle_assembly(ctx50):
    # poles (10, 8, 4): grid step s = 2, x = n^{-2/11}, J = 6 terms
    poles = ((Fraction(10), ctx50.real(1)), (Fraction(8), ctx50.real(-3)),
             (Fraction(4), ctx50.real("0.5")))
    data = LSeriesData("synthetic", poles, Fraction(0), ctx50.real(0))
    assert len(expansion(data, ctx50).terms) == 6
    check_against_oracle_assembly(data)


_FAMILIES = [("ntuple", ell) for ell in range(2, 11)] + [("power", d) for d in range(5)]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_FAMILIES), st.sampled_from([50, 64, 80]))
def test_precision_doubling_reproduces_constants(family, digits):
    # the constants at 2D digits agree with those at D to D digits
    kind, param = family
    runs = []
    for ctx in (PrecisionContext(digits), PrecisionContext(2 * digits)):
        data = (lf_data_ntuple if kind == "ntuple" else lf_data_power)(param, ctx)
        runs.append(expansion(data, ctx))
    short, long = runs
    assert short.b == long.b
    assert [lam for _, lam in short.terms] == [lam for _, lam in long.terms]
    mp = PrecisionContext(2 * digits).mp
    bound = mp.mpf(10) ** -digits
    values = zip([short.C] + [a for a, _ in short.terms],
                 [long.C] + [a for a, _ in long.terms])
    for x, y in values:
        assert abs(mp.mpf(x) - y) <= bound * abs(y)

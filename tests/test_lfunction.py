"""Pole data, residues, L(0), L'(0), and the three-pole saddle
coefficients on the saddle curve."""

from fractions import Fraction

import mpmath
import pytest

from commtuple import (
    PolygonalIndicator,
    Power,
    SubgroupCount,
    dressed_residue,
    lf_data_for,
    lf_data_ntuple,
    lf_data_power,
    saddle_series,
    zeta_int,
    zeta_nonpos,
    zeta_prime_neg,
)


def tol(ctx, e="1e-45"):
    return ctx.mp.mpf(e)


def test_two_pole_free_data(ctx50):
    mp = ctx50.mp
    data = lf_data_ntuple(2, ctx50)
    assert data.alpha == 1
    assert [loc for loc, _ in data.poles] == [1]
    assert abs(data.poles[0][1] - 1) < tol(ctx50)
    assert data.l_at_zero == Fraction(-1, 2)
    assert abs(data.l_prime_at_zero + mp.log(2 * mp.pi) / 2) < tol(ctx50)
    assert len(saddle_series(data, ctx50).curve) == 1


def test_ell3_data(ctx50):
    mp = ctx50.mp
    data = lf_data_ntuple(3, ctx50)
    assert data.alpha == 2
    assert [loc for loc, _ in data.poles] == [2, 1]
    z2 = zeta_int(2, ctx50)
    assert abs(data.poles[0][1] - z2) < tol(ctx50)
    assert abs(data.poles[1][1] + mp.mpf(1) / 2) < tol(ctx50)
    assert data.l_at_zero == Fraction(1, 24)
    want = mp.log(2 * mp.pi) / 24 - zeta_prime_neg(1, ctx50) / 2
    assert abs(data.l_prime_at_zero - want) < tol(ctx50)
    assert len(saddle_series(data, ctx50).curve) == 2


def test_three_pole_locations_and_residues(ctx50):
    mp = ctx50.mp
    for ell in range(4, 9):
        data = lf_data_ntuple(ell, ctx50)
        assert data.alpha == ell - 1
        assert [loc for loc, _ in data.poles] == [ell - 1, ell - 2, ell - 3]
        assert data.l_at_zero == 0
        # residue at nu is the product of the remaining zeta factors;
        # arguments below 2 can only be 0 or -1 here
        for loc, res in data.poles:
            nu = int(loc)
            want = mp.mpf(1)
            for k in range(0, ell - 1):
                if k == nu - 1:
                    continue
                arg = nu - k
                if arg >= 2:
                    want *= zeta_int(arg, ctx50)
                else:
                    want *= ctx50.real(zeta_nonpos(-arg))
            assert abs(res - want) < tol(ctx50), (ell, nu)


def test_l_prime_at_zero_values(ctx50):
    d4 = lf_data_ntuple(4, ctx50)
    assert abs(d4.l_prime_at_zero - zeta_prime_neg(2, ctx50) / 24) < tol(ctx50)
    d5 = lf_data_ntuple(5, ctx50)
    assert abs(d5.l_prime_at_zero - zeta_prime_neg(2, ctx50) / 2880) < tol(ctx50)
    for ell in (6, 7, 8):
        assert lf_data_ntuple(ell, ctx50).l_prime_at_zero == 0


@pytest.mark.parametrize("build, arg, shifts", [
    *(pytest.param(lf_data_ntuple, ell, range(ell - 1), id=f"ntuple{ell}")
      for ell in range(2, 13)),
    *(pytest.param(lf_data_power, d, [d], id=f"power{d}") for d in range(5)),
])
def test_l_data_matches_zeta_limits(ctx50, build, arg, shifts):
    # L(s) = prod zeta(s - k) from mpmath's own zeta at 110 digits: a
    # residue is the limit h L(nu + h), and nu counts as a pole when that
    # limit is far from 0 (else it is O(h))
    got = build(arg, ctx50)
    with mpmath.workdps(110):
        h = mpmath.mpf("1e-45")

        def limit(nu):
            return h * mpmath.fprod(mpmath.zeta(nu + h - k) for k in shifts)

        limits = {nu: limit(nu) for nu in range(1, max(shifts) + 2)}
        poles = [nu for nu in sorted(limits, reverse=True)
                 if abs(limits[nu]) > mpmath.mpf("1e-30")]
        assert [loc for loc, _ in got.poles] == poles
        for loc, res in got.poles:
            want = limits[int(loc)]
            assert abs(mpmath.mpf(res) - want) < mpmath.mpf("1e-40") * abs(want)
        zeros = {k: mpmath.zeta(-k) for k in shifts}
        l_at_zero = mpmath.fprod(zeros.values())
        assert mpmath.mpf(got.l_at_zero.numerator) / got.l_at_zero.denominator == l_at_zero
        l_prime = mpmath.fsum(
            mpmath.zeta(-j, 1, 1)
            * mpmath.fprod(zeros[k] for k in shifts if k != j)
            for j in shifts)
        assert abs(mpmath.mpf(got.l_prime_at_zero) - l_prime) < mpmath.mpf("1e-40")


def curve_coefficients(ell, ctx):
    return [c for c, _, _ in saddle_series(lf_data_ntuple(ell, ctx), ctx).curve]


def test_saddle_curve_ell4_closed_forms(ctx50):
    c1, c2, c3 = curve_coefficients(4, ctx50)
    z2 = zeta_int(2, ctx50)
    z3 = zeta_int(3, ctx50)
    z4 = zeta_int(4, ctx50)
    assert abs(c1 - 6 * z4 * z3 * z2) < tol(ctx50)
    assert abs(c2 + z2 * z3) < tol(ctx50)
    assert abs(c3 - z2 / 24) < tol(ctx50)


def test_c1_against_independent_zeta():
    from commtuple import PrecisionContext

    ctx = PrecisionContext(50)
    for ell in range(4, 9):
        c1, c2, c3 = curve_coefficients(ell, ctx)
        with mpmath.workdps(70):
            ref = mpmath.factorial(ell - 1)
            for j in range(2, ell + 1):
                ref *= mpmath.zeta(j)
            ref = mpmath.nstr(ref, 55)
        assert abs(c1 - ctx.mp.mpf(ref)) < ctx.mp.mpf("1e-40") * c1
        assert c2 < 0 < c3 < c1


def test_c1_dressed_residue_consistency(ctx50):
    # the three-pole curve is c1 z^ell + c2 x z^(ell-1) + c3 x^2 z^(ell-2),
    # c_i the dressed residue of the pole at ell - i
    for ell in range(4, 9):
        data = lf_data_ntuple(ell, ctx50)
        curve = saddle_series(data, ctx50).curve
        assert [(p, q) for _, p, q in curve] == [(0, ell), (1, ell - 1), (2, ell - 2)]
        for (c, _, _), pole in zip(curve, data.poles, strict=True):
            assert abs(c - dressed_residue(pole, ctx50)) < tol(ctx50)


def test_power_family_data(ctx50):
    d0 = lf_data_power(0, ctx50)
    assert d0.alpha == 1
    assert d0.l_at_zero == Fraction(-1, 2)
    d1 = lf_data_power(1, ctx50)
    assert d1.alpha == 2
    assert d1.l_at_zero == Fraction(-1, 12)
    assert abs(d1.l_prime_at_zero - zeta_prime_neg(1, ctx50)) < tol(ctx50)
    d2 = lf_data_power(2, ctx50)
    want = -zeta_int(3, ctx50) / (4 * ctx50.mp.pi**2)
    assert abs(d2.l_prime_at_zero - want) < tol(ctx50)
    for d in (0, 1, 2, 3, 4):
        data = lf_data_power(d, ctx50)
        assert [loc for loc, _ in data.poles] == [d + 1]
        assert abs(data.poles[0][1] - 1) < tol(ctx50)
    with pytest.raises(ValueError):
        lf_data_power(5, ctx50)


def test_dispatch(ctx50):
    a = lf_data_for(SubgroupCount(2), ctx50)
    b = lf_data_ntuple(3, ctx50)
    assert a.family == b.family and a.poles == b.poles
    c = lf_data_for(Power(1), ctx50)
    assert c.alpha == 2
    with pytest.raises(ValueError):
        lf_data_for(PolygonalIndicator(3), ctx50)
    with pytest.raises(ValueError):
        lf_data_ntuple(1, ctx50)

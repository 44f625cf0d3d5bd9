"""Truncated polynomial arithmetic, the power recurrence, saddle
series, and the numeric saddle oracle."""

import random
from fractions import Fraction
from math import log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commtuple import (
    LSeriesData,
    PolygonalIndicator,
    Power,
    PrecisionContext,
    SubgroupCount,
    TableExponent,
    dressed_residue,
    evaluate_exponent,
    lf_data_ntuple,
    lf_data_power,
    ntuple_exponent,
    rho_numeric,
    saddle_series,
)
from commtuple import asymptotics, saddle
from commtuple.oracles import (
    TruncPoly,
    curve_saddle_series,
    two_pole_K,
)


def _reference_tail(spec, z, ctx, mode):
    """The tail test of exp_weight_sum_reference, or None for a finite
    table: check_from, and a test of (m, u^m) that holds once every
    certified tail bound past m is below ctx.eps_target()."""
    if spec.growth is None:
        return None
    mp = ctx.mp
    u = mp.exp(-z)
    target = ctx.eps_target()
    inv_gap = 1 / (1 - u)
    w_pow = spec.growth + (0 if mode == "phi" else 1)
    tail_pows = ((w_pow + 1, 2), (w_pow, 1)) if mode == "newton" else ((w_pow, 1),)

    def passes(m, um):
        for w, k in tail_pows:
            uhat = mp.exp(mp.mpf(w) / m) * u
            if not uhat < 1:
                return False
            tail = mp.mpf(m + 1) ** w * um * u / (1 - uhat) * inv_gap**k
            if not tail < target:
                return False
        return True

    return max(16, int(2 * tail_pows[0][0] / float(z)) + 1), passes


def exp_weight_sum_reference(spec, z, ctx, mode):
    """Oracle for saddle._exp_weight_sum: the same sums, one term at a
    time in mpf, with the gap from -expm1(-mz) while m < ceil(1/z), and
    the tail test on every term from check_from on.  Mode "phi", which
    production has no use for, gives Phi(z) = -sum_m f(m) log(1 - e^{-mz})."""
    mp = ctx.mp
    z = ctx.real(z)
    u = mp.exp(-z)
    tail = _reference_tail(spec, z, ctx, mode)
    exact_gap_below = int(mp.ceil(1 / z))
    table = [0]
    total = total2 = mp.mpf(0)
    um = mp.mpf(1)
    m = 0
    while tail is not None or m < len(spec.values):
        m += 1
        if m >= len(table):
            size = 2 * m if tail is not None else len(spec.values)
            table = evaluate_exponent(spec, size)
        um = um * u
        fm = table[m]
        if fm:
            gap = -mp.expm1(-m * z) if m < exact_gap_below else 1 - um
            if mode == "phi":
                total -= fm * mp.log(gap)
            else:
                term = m * fm * um / gap
                total += term
                if mode == "newton":
                    total2 += m * term / gap
        if tail is not None and m >= tail[0] and tail[1](m, um):
            break
    return (total, total2) if mode == "newton" else total


def tail_cutoff_reference(spec, z, ctx, mode):
    """The first m >= check_from at which the per-term tail test of
    exp_weight_sum_reference passes, by a linear scan."""
    check_from, passes = _reference_tail(spec, z, ctx, mode)
    u = ctx.mp.exp(-z)
    um = ctx.mp.mpf(1)
    for _ in range(check_from):
        um = um * u
    m = check_from
    while not passes(m, um):
        m += 1
        um = um * u
    return m


def test_truncpoly_algebra(ctx50):
    mp = ctx50.mp
    one_plus = TruncPoly(mp, [1, 1], 4)
    one_minus = TruncPoly(mp, [1, -1], 4)
    prod = one_plus * one_minus
    assert [float(prod.coeff(i)) for i in range(5)] == [1.0, 0.0, -1.0, 0.0, 0.0]
    p = TruncPoly(mp, [2, 1, -3, 0.5], 6)
    r = p * p.inverse()
    assert abs(r.coeff(0) - 1) < mp.mpf("1e-48")
    for i in range(1, 7):
        assert abs(r.coeff(i)) < mp.mpf("1e-46")
    assert (p**3).coeff(0) == p.coeff(0) ** 3
    with pytest.raises(ZeroDivisionError):
        TruncPoly(mp, [0, 1], 3).inverse()


@pytest.mark.parametrize("e", [Fraction(3), Fraction(-2), Fraction(1, 2),
                               Fraction(-5, 3), Fraction(7, 4)])
def test_series_power_against_truncpoly(ctx50, e):
    # g = f^e has g^b = f^a for e = a/b, checked in dense series products;
    # zeros in f are skipped, so f is given some
    mp = ctx50.mp
    rng = random.Random(2404)
    f = [mp.mpf(1)] + [mp.mpf(rng.uniform(-1, 1)) if i % 3 else mp.mpf(0)
                       for i in range(1, 9)]
    g = asymptotics.series_power(f, e, 9, ctx50)
    assert len(g) == 9 and g[0] == 1
    base = TruncPoly(mp, f, 8)
    if e.numerator < 0:
        base = base.inverse()
    want = base ** abs(e.numerator)
    got = TruncPoly(mp, g, 8) ** e.denominator
    for i in range(9):
        assert abs(got.coeff(i) - want.coeff(i)) < mp.mpf("1e-45"), i
    # a short f is read as cut after its last coefficient
    assert asymptotics.series_power([mp.mpf(1)], e, 3, ctx50) == [1, 0, 0]


def test_two_pole_closed_vs_series(ctx50):
    mp = ctx50.mp
    data = lf_data_ntuple(3, ctx50)
    c1 = dressed_residue(data.poles[0], ctx50)
    c2 = dressed_residue(data.poles[1], ctx50)
    # saddle coefficients of the two-pole family
    assert abs(c1 - mp.pi**2 * ctx50.mp.zeta(3) / 3) < mp.mpf("1e-40")
    assert abs(c2 + mp.pi**2 / 12) < mp.mpf("1e-40")
    closed = two_pole_K(2, 1, c1, c2, 5, ctx50)
    series = curve_saddle_series([(c1, 0, 3), (c2, 1, 2)], 5, ctx50)
    for x, y in zip(closed, series):
        assert abs(x - y) < mp.mpf("1e-40")
    assert closed[2] == 0  # alpha - 2 beta vanishes at (2, 1)
    k2 = c2 / (3 * ctx50.power_frac(c1, Fraction(1, 3)))
    assert abs(closed[1] - k2) < mp.mpf("1e-45")


def test_two_pole_other_exponents(ctx50):
    mp = ctx50.mp
    rng = random.Random(1199)
    for alpha, beta in ((3, 1), (4, 3), (3, 2)):
        c1 = mp.mpf(rng.uniform(0.5, 4.0))
        c2 = mp.mpf(rng.uniform(-2.0, 2.0))
        closed = two_pole_K(alpha, beta, c1, c2, 5, ctx50)
        series = curve_saddle_series([(c1, 0, alpha + 1), (c2, 1, beta + 1)], 5, ctx50)
        for x, y in zip(closed, series):
            assert abs(x - y) < mp.mpf("1e-38")


def test_two_pole_vanishing_c2(ctx50):
    mp = ctx50.mp
    ks = two_pole_K(2, 1, mp.mpf(3), mp.mpf(0), 5, ctx50)
    assert abs(ks[0] - ctx50.power_frac(mp.mpf(3), Fraction(1, 3))) < mp.mpf("1e-48")
    assert all(k == 0 for k in ks[1:])


def test_two_pole_guards(ctx50):
    mp = ctx50.mp
    with pytest.raises(ValueError):
        two_pole_K(1, 2, mp.mpf(1), mp.mpf(1), 3, ctx50)
    with pytest.raises(ValueError):
        two_pole_K(2, 1, mp.mpf(1), mp.mpf(1), 6, ctx50)


def test_three_pole_series_leading_term(ctx50):
    mp = ctx50.mp
    for ell in (4, 5, 6):
        data = lf_data_ntuple(ell, ctx50)
        saddle = saddle_series(data, ctx50)
        assert saddle.ell == ell
        K = curve_saddle_series(saddle.curve, 6, ctx50)
        c1 = dressed_residue(data.poles[0], ctx50)
        want = ctx50.power_frac(c1, Fraction(1, ell))
        assert abs(K[0] - want) < mp.mpf("1e-45")


def test_three_pole_monomial_degenerate(ctx50):
    # the three-pole curve 2 z^4 + 0 x z^3 + 0 x^2 z^2 = 1
    mp = ctx50.mp
    curve = ((mp.mpf(2), 0, 4), (mp.mpf(0), 1, 3), (mp.mpf(0), 2, 2))
    K = curve_saddle_series(curve, 6, ctx50)
    assert abs(K[0] - ctx50.power_frac(mp.mpf(2), Fraction(1, 4))) < mp.mpf(
        "1e-48"
    )
    for k in K[1:]:
        assert abs(k) < mp.mpf("1e-48")


def test_three_pole_structural_zeros(ctx50):
    # K_{ell, j} vanishes whenever ell divides j
    mp = ctx50.mp
    for ell in (4, 5, 6):
        data = lf_data_ntuple(ell, ctx50)
        K = curve_saddle_series(saddle_series(data, ctx50).curve, 2 * ell + 1, ctx50)
        assert abs(K[ell - 1]) < mp.mpf("1e-50"), ell
        assert abs(K[2 * ell - 1]) < mp.mpf("1e-50"), ell
        assert abs(K[1]) > mp.mpf("1e-3")


def test_curve_guards(ctx50):
    mp = ctx50.mp
    with pytest.raises(ValueError):
        curve_saddle_series([(mp.mpf(1), 0, 3), (mp.mpf(1), 0, 2)], 4, ctx50)
    with pytest.raises(ValueError):
        curve_saddle_series([(mp.mpf(1), 1, 3)], 4, ctx50)
    with pytest.raises(ValueError):
        curve_saddle_series([(mp.mpf(-1), 0, 3)], 4, ctx50)
    with pytest.raises(ValueError):
        curve_saddle_series([(mp.mpf(1), 0, 3)], 0, ctx50)


def test_rho_numeric_leading_order(ctx50):
    mp = ctx50.mp
    rho = rho_numeric(Power(0), 600, ctx50)
    lead = mp.pi / mp.sqrt(mp.mpf(6 * 600))
    assert abs(rho / lead - 1) < 0.05
    # strictly decreasing in n
    prev = rho_numeric(Power(0), 50, ctx50)
    for n in (51, 60, 200):
        cur = rho_numeric(Power(0), n, ctx50)
        assert cur < prev
        prev = cur


def test_rho_numeric_matches_series(ctx50):
    mp = ctx50.mp
    data = lf_data_ntuple(4, ctx50)
    K = curve_saddle_series(saddle_series(data, ctx50).curve, 6, ctx50)
    n = 1000
    rho = rho_numeric(SubgroupCount(3), n, ctx50)
    errs = []
    for j_top in (1, 2, 3):
        part = sum(
            K[j] * ctx50.power_frac(mp.mpf(n), Fraction(-(j + 1), 4))
            for j in range(j_top)
        )
        errs.append(abs(rho - part))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < mp.mpf("1e-8")


def test_rho_numeric_starts_near_root(ctx50, monkeypatch):
    # the tangent at z = 1 is followed whole and lands near the root
    # 0.188, so no further passes are spent halving toward it
    calls = []
    weight_sum = saddle._exp_weight_sum

    def counted(*args, **kwargs):
        calls.append(args[1])
        return weight_sum(*args, **kwargs)

    monkeypatch.setattr(saddle, "_exp_weight_sum", counted)
    rho = rho_numeric(SubgroupCount(3), 10**4, ctx50)
    assert ctx50.mp.nstr(rho, 50) == "0.18792226622457854317504841244316034698873662801038"
    assert calls[0] == 1
    assert len(calls) <= 6


def test_rho_numeric_guards(ctx50):
    assert ctx50.digits >= 50
    with pytest.raises(ValueError):
        rho_numeric(TableExponent((0, 0, 0)), 10, ctx50)
    with pytest.raises(ValueError):
        rho_numeric(Power(0), 0, ctx50)


def test_phi_closed_form(ctx50):
    mp = ctx50.mp
    delta = TableExponent((1,))
    for zv in ("0.3", "1.1"):
        z = mp.mpf(zv)
        want = -mp.log(1 - mp.exp(-z))
        got = exp_weight_sum_reference(delta, z, ctx50, "phi")
        assert abs(got - want) < mp.mpf("1e-48")
    # -Phi' > 0
    assert saddle._exp_weight_sum(delta, mp.mpf("0.5"), ctx50)[0] > 0
    assert saddle._exp_weight_sum(SubgroupCount(2), mp.mpf("0.5"), ctx50)[0] > 0
    with pytest.raises(ValueError, match="z must be positive"):
        saddle._exp_weight_sum(delta, mp.mpf(0), ctx50)


def test_phi_laurent_agreement(ctx50):
    # for the rank-2 weight every correction term of the small-z
    # expansion vanishes; the direct sum should match the pole data far
    # below the working scale (bounds frozen from a derived run)
    mp = ctx50.mp
    data = lf_data_ntuple(3, ctx50)
    spec = SubgroupCount(2)
    bounds = {"0.1": "1e-28", "0.05": "1e-40"}
    for zv, bound in bounds.items():
        z = mp.mpf(zv)
        laurent = mp.mpf(0)
        for pole, res in data.poles:
            nu = int(pole)
            laurent += dressed_residue((pole, res), ctx50) / nu * z**-nu
        laurent += -ctx50.real(data.l_at_zero) * mp.log(z) + data.l_prime_at_zero
        phi = exp_weight_sum_reference(spec, z, ctx50, "phi")
        assert abs(phi - laurent) < mp.mpf(bound)


def test_three_pole_series_against_lagrange_oracle(ctx50):
    # the Lagrange-Burmann K_j of saddle_series against the Newton oracle
    mp = ctx50.mp
    for ell in (4, 5, 8):
        data = lf_data_ntuple(ell, ctx50)
        c1, c2, c3 = (dressed_residue(pole, ctx50) for pole in data.poles)
        mon = [(c1, 0, ell), (c2, 1, ell - 1), (c3, 2, ell - 2)]
        got = saddle_series(data, ctx50).K
        want = curve_saddle_series(mon, ell + 1, ctx50)
        assert len(got) == len(want) == ell + 1
        for x, y in zip(got, want):
            assert abs(x - y) < mp.mpf("1e-50") * max(1, abs(y))


@st.composite
def generated_poles(draw):
    """Two or three integer poles alpha > nu >= 1 (alpha <= 8), the
    leading residue positive and the others nonzero of either sign."""
    nus = sorted(draw(st.sets(st.integers(1, 8), min_size=2, max_size=3)), reverse=True)
    residues = [draw(st.fractions(Fraction(1, 4), 4, max_denominator=64))]
    for _ in nus[1:]:
        residues.append(draw(st.fractions(-2, 2, max_denominator=64)
                             .filter(lambda q: q != 0)))
    return tuple((Fraction(nu), r) for nu, r in zip(nus, residues))


def _gap_sums(gaps, top):
    """For m = 0..top, whether m is a sum of gaps, each used any number
    of times: the x-powers that the curve's x-monomials reach."""
    reached = [True]
    for m in range(1, top + 1):
        reached.append(any(g <= m and reached[m - g] for g in gaps))
    return reached


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(st.just("ntuple"), st.integers(2, 12)),
                 st.tuples(st.just("power"), st.integers(0, 4)),
                 st.tuples(st.just("poles"), generated_poles())),
       st.sampled_from([50, 100]))
def test_saddle_series_matches_lagrange_burmann(family, digits):
    # K_j is an exact 0 where its exponent (1 + (j-1) s)/(alpha+1) is an
    # integer, and where j - 1 is no sum of the curve's gaps
    # p_i = (alpha - nu_i)/s (so every K_j past K_1 of a single pole);
    # every K_j matches the Newton route
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    kind, arg = family
    if kind == "ntuple":
        data = lf_data_ntuple(arg, ctx)
    elif kind == "power":
        data = lf_data_power(arg, ctx)
    else:
        data = LSeriesData("generated", arg, Fraction(0), mp.mpf(0))
    expansion = saddle_series(data, ctx)
    K = expansion.K
    terms = len(K)
    reached = _gap_sums([p for _, p, _ in expansion.curve[1:]], terms - 1)
    want = curve_saddle_series(expansion.curve, terms, ctx)
    for j in range(1, terms + 1):
        integral = (1 + (j - 1) * expansion.step) % expansion.ell == 0
        assert (K[j - 1] == 0) == (integral or not reached[j - 1]), j
        y = want[j - 1]
        if K[j - 1] == 0:
            assert abs(y) <= mp.mpf("1e-45") * K[0], j
        else:
            assert abs(K[j - 1] - y) <= mp.mpf("1e-45") * abs(y), j
    if kind == "ntuple":
        # gaps 1 and 2 reach every x-power: zero exactly when ell | j
        assert [k == 0 for k in K] == [j % arg == 0 for j in range(1, terms + 1)]
    # the helper sees which powers gaps 2 and 3 miss, and that no gap
    # reaches anything past 0
    assert _gap_sums([2, 3], 5) == [True, False, True, True, True, True]
    assert _gap_sums([], 2) == [True, False, False]


@settings(max_examples=12, deadline=None)
@given(
    st.one_of(st.builds(Power, st.integers(0, 2)),
              st.builds(SubgroupCount, st.integers(1, 3))),
    st.integers(1, 500),
)
def test_rho_numeric_solves_saddle_equation(spec, n):
    ctx = PrecisionContext(50)
    rho = rho_numeric(spec, n, ctx)
    assert rho > 0
    residual = saddle._exp_weight_sum(spec, rho, ctx)[0] - n
    assert abs(residual) <= ctx.mp.mpf(10) ** -ctx.digits * n


def _weight_id(value):
    """Test id of a weight: Power(d) as power<d>, SubgroupCount(r) as
    the tuple length r + 1 of the ntuple family it weights, and a
    TableExponent as table<len>."""
    if isinstance(value, Power):
        return f"power{value.d}"
    if isinstance(value, SubgroupCount):
        return str(value.rank + 1)
    if isinstance(value, TableExponent):
        return f"table{len(value.values)}"
    return None


@pytest.mark.parametrize("spec, n, want, passes", [
    # the analytic benchmark's solves
    (ntuple_exponent(4, 8), 10**3,
     "0.33228454374170656154479124994631474476904942529909", 6),
    (ntuple_exponent(4, 8), 10**4,
     "0.18792226622457854317504841244316034698873662801038", 6),
    (ntuple_exponent(2, 8), 10**2,
     "0.12580504750128083263508693621838052318548553902148", 7),
    # roots on both sides of z = 1 and far from it
    (Power(0), 50, "0.17652037775439977322472761202064653016607624609455", 7),
    (Power(0), 600, "0.051946658112417927347997907803654353435360661947742", 7),
    (Power(1), 37, "0.40127483900374159065980537208946200552764655041738", 6),
    (Power(2), 500, "0.33758539705781970048236602986387040510411833876982", 5),
    (SubgroupCount(1), 1, "1.0749844198335927019602878726139625838540820320663", 6),
    (SubgroupCount(2), 250, "0.24671391950510108138389165929820429315961288105766", 7),
    # -Phi' = 1/(e^z - 1): roots far below z = 1, each reached by whole steps
    (TableExponent((1,)), 10**5,
     "0.0000099999500003333308333533331666680952255953492053492", 6),
    (TableExponent((1,)), 10**7,
     "0.00000009999999500000033333330833333533333316666668095238", 6),
], ids=_weight_id)
def test_rho_numeric_benchmark_points(ctx50, monkeypatch, spec, n, want, passes):
    # the root and the number of weight-sum passes it takes
    calls = []
    weight_sum = saddle._exp_weight_sum

    def counted(*args, **kwargs):
        calls.append(args[1])
        return weight_sum(*args, **kwargs)

    monkeypatch.setattr(saddle, "_exp_weight_sum", counted)
    rho = rho_numeric(spec, n, ctx50)
    assert ctx50.mp.nstr(rho, 50) == want
    assert len(calls) == passes


@st.composite
def weight_sum_cases(draw):
    """A weight and log-uniform z.  Finite tables, with zeros, go
    down to z = 1e-3, where the fixed-point gaps 2^P - U_m cancel most
    of their bits and the reference takes every gap from expm1; infinite
    weights stop at 1e-2, because the per-term reference needs about
    2e5 mpf terms (10-17 s) at 1e-3."""
    spec = draw(st.one_of(
        st.builds(Power, st.integers(0, 3)),
        st.builds(SubgroupCount, st.integers(1, 3)),
        st.builds(TableExponent, st.lists(
            st.one_of(st.just(0), st.integers(1, 10**6)), min_size=1, max_size=40)),
    ))
    low = -3 if isinstance(spec, TableExponent) else -2
    return spec, 10 ** draw(st.floats(low, 0.6))


def check_weight_sum(spec, z, ctx):
    """_exp_weight_sum against exp_weight_sum_reference at z."""
    mp = ctx.mp
    z = ctx.real(z)
    got = saddle._exp_weight_sum(spec, z, ctx)
    # 64 more bits leave the reference's own rounding far below the bound
    with mp.workprec(mp.prec + 64):
        want = exp_weight_sum_reference(spec, z, ctx, "newton")
    eps = ctx.eps_target()
    for x, y in zip(got, want):
        # both stop at the same m; what remains is the fixed-point error
        # (< eps) and one rounding to the working precision
        assert abs(x - y) <= eps * (1 + abs(y))


@settings(max_examples=40, deadline=None)
@given(weight_sum_cases())
def test_weight_sum_matches_reference(case):
    spec, z = case
    check_weight_sum(spec, z, PrecisionContext(50))


_WIDE_TABLE = TableExponent((0, 10**6, 0, 999_983, 3, 0, 0, 10**6, 1, 0,
                             524_287, 0, 7, 10**6))


@pytest.mark.parametrize("digits", [100, 200])
@pytest.mark.parametrize("spec, z", [
    # the analytic benchmark's roots for N_4
    (SubgroupCount(3), "0.18792226622457854"),
    (SubgroupCount(3), "0.33228454374170656"),
    (Power(0), "0.05"),
    # a finite table with zeros and 10^6-sized weights, where 2^P - U_m
    # cancels most of its bits
    (_WIDE_TABLE, "0.001"),
    (_WIDE_TABLE, "0.01"),
], ids=lambda value: _weight_id(value) or value)
def test_weight_sum_matches_reference_wide(spec, z, digits):
    # the hypothesis test above runs at 50 digits only
    check_weight_sum(spec, z, PrecisionContext(digits))


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.builds(Power, st.integers(0, 8)),
              st.builds(SubgroupCount, st.integers(1, 5)),
              st.builds(PolygonalIndicator, st.integers(3, 6))),
    st.floats(-2, 1),
)
def test_tail_cutoff_matches_linear_scan(spec, log_z):
    ctx = PrecisionContext(50)
    z = ctx.real(10**log_z)
    M = saddle._tail_cutoff(spec, z, ctx)
    assert M == tail_cutoff_reference(spec, z, ctx, "newton")
    # the Phi'' tail bound alone also certifies the -Phi' tail
    assert tail_cutoff_reference(spec, z, ctx, "dphi") <= M


@pytest.mark.parametrize("bias", [-2.0, 2.0])
def test_tail_cutoff_when_the_float_estimate_misses(monkeypatch, bias):
    # a float log that is off by `bias` puts the estimate of M below it
    # (bias < 0) or above it (bias > 0); the certified search must still
    # return the first passing m
    ctx = PrecisionContext(50)
    spec = SubgroupCount(2)
    zs = [ctx.real(z) for z in ("0.05", "0.3", "2")]
    want = [tail_cutoff_reference(spec, z, ctx, "newton") for z in zs]
    searches = []
    first_passing = saddle._first_passing

    def counted(test, lo, hi):
        searches.append(test)
        return first_passing(test, lo, hi)

    monkeypatch.setattr(saddle, "log", lambda x: log(x) + bias)
    monkeypatch.setattr(saddle, "_first_passing", counted)
    assert [saddle._tail_cutoff(spec, z, ctx) for z in zs] == want
    # each cutoff needed the certified search after its estimate
    assert len(searches) == 2 * len(zs)


def test_hopeless_weight_sum_fails_before_any_weight(monkeypatch):
    # at z = 1e-6 the tail falls below 1e-60 only past m = 10^8
    def refuse(spec, table, upto):
        raise AssertionError(f"weight table grown to {upto}")

    monkeypatch.setattr(saddle, "_grow_weights", refuse)
    ctx = PrecisionContext(50)
    with pytest.raises(ArithmeticError, match="weight sum failed to converge"):
        saddle._exp_weight_sum(Power(0), ctx.mp.mpf("1e-6"), ctx)


@pytest.mark.parametrize("n, want", [
    (10**5, "0.0000099999500003333308333533331666680952255953492053492"),
    (10**7, "0.00000009999999500000033333330833333533333316666668095238"),
])
def test_rho_numeric_small_root(ctx50, n, want):
    # one weight at m = 1: -Phi'(z) = 1/(e^z - 1) = n at z = log(1 + 1/n);
    # a root this small needs 1 - e^{-z} without cancellation
    rho = rho_numeric(TableExponent((1,)), n, ctx50)
    assert ctx50.mp.nstr(rho, 50) == want
    assert abs(rho - ctx50.mp.log1p(ctx50.mp.mpf(1) / n)) < ctx50.mp.mpf(10) ** -58 * rho

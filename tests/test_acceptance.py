"""Acceptance gate: one test per release criterion.

Each test prints a single summary line on success; tolerances and time
budgets are stated inline and asserted, not just logged.
"""

import time
from fractions import Fraction
from math import factorial

import mpmath

from commtuple import (
    bessenrodt_ono_scan,
    compare_exact_asym,
    dressed_residue,
    expand_product,
    expansion,
    factorial_scaled,
    lf_data_ntuple,
    log_concavity_scan,
    log_convexity_scan,
    ntuple_exponent,
    ntuple_sequence,
    rho_numeric,
    saddle_series,
    subgroup_count_table,
    weighted_divisor_table,
)
from commtuple.arith import PolygonalIndicator, Power, TableExponent
from commtuple.cli import main as cli_main
from commtuple.oracles import (
    brute_force_commuting,
    curve_saddle_series,
    expand_product_direct,
    hnf_subgroup_count,
    pentagonal_p,
    two_pole_K,
)


def test_criterion_01_arithmetic_ground_truth():
    start = time.perf_counter()
    n_max = 10**4
    sigma = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for k in range(d, n_max + 1, d):
            sigma[k] += d
    g2 = subgroup_count_table(2, n_max)
    assert g2[1:] == sigma[1:]
    for ell in range(1, 5):
        table = subgroup_count_table(ell, 30)
        for n in range(1, 31):
            assert table[n] == hnf_subgroup_count(ell, n), (ell, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"criterion 01 arithmetic ground truth: PASS "
          f"(sigma_1 to 1e4 exact, HNF oracle ell<=4 n<=30 exact, "
          f"{elapsed:.1f}s < 10s)")


def test_criterion_02_divisor_identity():
    start = time.perf_counter()
    n_max = 2000
    for ell in range(2, 7):
        prev = subgroup_count_table(ell - 1, n_max)
        assert weighted_divisor_table(prev) == subgroup_count_table(ell, n_max), ell
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"criterion 02 divisor identity: PASS "
          f"(weighted divisor table of rank ell-1 equals rank ell, "
          f"ell=2..6, n<=2000 exact, {elapsed:.1f}s < 30s)")


def test_criterion_03_sequence_oracles():
    expanded = expand_product(ntuple_exponent(2, 5000), 5000)
    recur = pentagonal_p(5000)
    assert expanded.values == recur.values
    assert expanded[100] == 190569292
    specs = [
        ntuple_exponent(2, 300),
        ntuple_exponent(3, 300),
        ntuple_exponent(4, 300),
        Power(1),
        Power(2),
        PolygonalIndicator(3),
        PolygonalIndicator(5),
        TableExponent(tuple(i % 4 for i in range(1, 301))),
    ]
    for spec in specs:
        fast = expand_product(spec, 300)
        slow = expand_product_direct(spec, 300)
        assert fast.values == slow.values, spec
    print("criterion 03 sequence oracles: PASS "
          "(pentagonal recurrence matches expansion to n=5000 incl "
          "p(100)=190569292; direct product matches at N=300 for "
          f"{len(specs)} families, exact)")


def test_criterion_04_brute_force_oracle():
    start = time.perf_counter()
    for ell in (2, 3):
        seq = ntuple_sequence(ell, 5)
        for n in range(6):
            assert factorial(n) * seq[n] == brute_force_commuting(ell, n), (ell, n)
    n3 = ntuple_sequence(3, 4)
    assert n3.values == (1, 1, 4, 8, 21)
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    print(f"criterion 04 brute force oracle: PASS "
          f"(n! N_ell(n) equals tuple enumeration, ell in {{2,3}}, n<=5, "
          f"exact, {elapsed:.1f}s < 5s)")


def test_criterion_05_integrality_witness():
    # the expansion kernel raises on any inexact division step
    for ell in range(2, 7):
        seq = ntuple_sequence(ell, 2000)
        assert all(isinstance(v, int) and v >= 1 for v in seq.values), ell
    print("criterion 05 integrality witness: PASS "
          "(recurrence division exact for ell=2..6, n<=2000)")


def test_criterion_06_constant_reproduction(ctx50):
    start = time.perf_counter()
    mp = ctx50.mp
    tol = mp.mpf("1e-30")
    with mpmath.workdps(70):
        refs = {
            "z3": mpmath.nstr(mpmath.zeta(3), 55),
            "zp1": mpmath.nstr(mpmath.zeta(-1, 1, 1), 55),
            "zp2": mpmath.nstr(mpmath.zeta(-2, 1, 1), 55),
        }
    z3 = mp.mpf(refs["z3"])
    zp1 = mp.mpf(refs["zp1"])
    zp2 = mp.mpf(refs["zp2"])
    pf = ctx50.power_frac

    exp3 = expansion(lf_data_ntuple(3, ctx50), ctx50)
    assert exp3.b == Fraction(47, 72)
    assert abs(exp3.terms[0][0]
               - pf(3 * mp.pi, Fraction(2, 3)) * pf(z3, Fraction(1, 3)) / 2) < tol
    assert abs(exp3.terms[1][0]
               + pf(mp.pi, Fraction(4, 3))
               / (4 * pf(mp.mpf(3), Fraction(2, 3)) * pf(z3, Fraction(1, 3)))) < tol
    assert abs(exp3.terms[2][0] + mp.pi**2 / (288 * z3)) < tol
    folded = exp3.C * mp.exp(exp3.terms[2][0])
    want3 = (mp.exp(-zp1 / 2 - mp.pi**2 / (288 * z3))
             * pf(z3, Fraction(11, 72))
             / (pf(mp.mpf(2), Fraction(11, 24))
                * pf(mp.mpf(3), Fraction(47, 72))
                * pf(mp.pi, Fraction(11, 72))))
    assert abs(folded - want3) < tol

    data4 = lf_data_ntuple(4, ctx50)
    exp4 = expansion(data4, ctx50)
    assert exp4.b == Fraction(5, 8)
    want41 = (pf(mp.mpf(2), Fraction(7, 4)) * pf(mp.pi, Fraction(3, 2))
              * pf(z3, Fraction(1, 4))
              / (pf(mp.mpf(3), Fraction(3, 2)) * pf(mp.mpf(5), Fraction(1, 4))))
    assert abs(exp4.terms[0][0] - want41) < tol
    c1 = dressed_residue(data4.poles[0], ctx50)
    assert abs(exp4.C - mp.exp(zp2 / 24) * pf(c1, Fraction(1, 8))
               / mp.sqrt(8 * mp.pi)) < tol

    data5 = lf_data_ntuple(5, ctx50)
    exp5 = expansion(data5, ctx50)
    assert exp5.b == Fraction(3, 5)
    c1 = dressed_residue(data5.poles[0], ctx50)
    assert abs(exp5.C - mp.exp(zp2 / 2880) * pf(c1, Fraction(1, 10))
               / mp.sqrt(10 * mp.pi)) < tol

    checked = 0
    for ell in (5, 6, 7, 8):
        data = lf_data_ntuple(ell, ctx50)
        exp = expansion(data, ctx50)
        with mpmath.workdps(70):
            c1_ref = mpmath.factorial(ell - 1)
            for j in range(2, ell + 1):
                c1_ref *= mpmath.zeta(j)
            a1_ref = mpmath.mpf(ell) / (ell - 1) * c1_ref ** (mpmath.mpf(1) / ell)
            c_ref = c1_ref ** (mpmath.mpf(1) / (2 * ell)) / mpmath.sqrt(
                2 * mpmath.pi * ell)
            if ell == 5:
                c_ref *= mpmath.exp(mpmath.zeta(-2, 1, 1) / 2880)
            a1_ref = mpmath.nstr(a1_ref, 55)
            c_ref = mpmath.nstr(c_ref, 55)
        assert abs(exp.terms[0][0] - mp.mpf(a1_ref)) < tol, ell
        assert abs(exp.C - mp.mpf(c_ref)) < tol, ell
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"criterion 06 constant reproduction: PASS "
          f"(rank 3 full set, rank 4/5 pieces, rank 5..8 leading constants, "
          f"all to 1e-30 at 50 digits, {elapsed:.1f}s < 60s)")


def test_criterion_07_k_coefficient_cross_check(ctx50):
    mp = ctx50.mp
    data = lf_data_ntuple(3, ctx50)
    c1 = dressed_residue(data.poles[0], ctx50)
    c2 = dressed_residue(data.poles[1], ctx50)
    closed = two_pole_K(2, 1, c1, c2, 5, ctx50)
    generic = curve_saddle_series([(c1, 0, 3), (c2, 1, 2)], 5, ctx50)
    production = saddle_series(data, ctx50).K
    assert len(production) == 4
    for j, (x, y) in enumerate(zip(closed, generic), start=1):
        assert abs(x - y) < mp.mpf("1e-30"), j
    for j, (x, y) in enumerate(zip(closed, production), start=1):
        assert abs(x - y) < mp.mpf("1e-30"), j
    print("criterion 07 K-coefficient cross-check: PASS "
          "(generic inversion K_1..K_5 and the production series K_1..K_4 "
          "equal the closed forms at (2,1) with rank-3 pole data, to 1e-30)")


def test_criterion_08_saddle_consistency(ctx50):
    mp = ctx50.mp
    zero = mp.mpf("1e-50")
    points = (10**3, 10**4, 10**5)
    decades = ((10**3, 10**4), (10**4, 10**5))
    cells = 0
    for ell in (4, 5, 6):
        data = lf_data_ntuple(ell, ctx50)
        K = curve_saddle_series(saddle_series(data, ctx50).curve, 6, ctx50)
        for j in range(1, 7):
            assert (abs(K[j - 1]) < zero) == (j % ell == 0), (ell, j)
        spec = ntuple_exponent(ell, 8)
        err = {}
        for n in points:
            rho = rho_numeric(spec, n, ctx50)
            nn = ctx50.real(n)
            part = mp.mpf(0)
            for J in range(1, 5):
                part += K[J - 1] * ctx50.power_frac(nn, Fraction(-J, ell))
                err[(J, n)] = abs(rho - part)
        # (a) error decreases in J; exactly flat across a vanishing term
        for n in points:
            for J in range(1, 4):
                if abs(K[J]) < zero:
                    assert err[(J + 1, n)] == err[(J, n)], (ell, J, n)
                else:
                    assert err[(J + 1, n)] < err[(J, n)], (ell, J, n)
        # (b) decade scaling of err_J is n^{-(J+1)/ell} while the first
        # dropped coefficient K_{J+1} is genuine
        for J in range(1, 5):
            if abs(K[J]) < zero:
                continue
            pred = ctx50.power_frac(mp.mpf(10), Fraction(-(J + 1), ell))
            for lo, hi in decades:
                r = err[(J, hi)] / err[(J, lo)]
                assert pred / 4 < r < pred * 4, (ell, J, lo, float(r))
                cells += 1
        # (c) the J -> J+1 improvement factor scales like n^{-1/ell}
        # across a decade; one-sided where K_{J+2} vanishes identically
        pred1 = ctx50.power_frac(mp.mpf(10), Fraction(-1, ell))
        for J in range(1, 4):
            for lo, hi in decades:
                imp_lo = err[(J + 1, lo)] / err[(J, lo)]
                imp_hi = err[(J + 1, hi)] / err[(J, hi)]
                r = imp_hi / imp_lo
                if abs(K[J + 1]) < zero:
                    assert 0 < r <= pred1 * 4, (ell, J, lo, float(r))
                else:
                    assert pred1 / 4 < r < pred1 * 4, (ell, J, lo, float(r))
                cells += 1
    print(f"criterion 08 saddle consistency: PASS "
          f"(ell in {{4,5,6}}, n in {{1e3,1e4,1e5}}: partial-sum error "
          f"decreases in J=1..4 and decade factors track the predicted "
          f"powers within 4x over {cells} cells; cells whose governing "
          f"coefficient vanishes identically are bounded one-sided)")


def test_criterion_09_asymptotic_convergence(ctx50, p_10k, n3_10k):
    start = time.perf_counter()
    points = (1000, 3162, 10000)
    summary = []
    # N_2 and N_3 come from the session tables (to 10^4 + 1)
    tables = {2: p_10k, 3: n3_10k}
    for ell in (2, 3, 4, 5):
        seq = tables[ell] if ell in tables else ntuple_sequence(ell, 10**4)
        data = lf_data_ntuple(ell, ctx50)
        exp = expansion(data, ctx50)
        rows = compare_exact_asym(seq, exp, points, ctx50)
        devs = [abs(r.ratio - 1) for r in rows]
        assert devs[2] < 0.05, ell
        assert devs[2] < devs[0], ell
        scaled = [
            d * ctx50.power_frac(ctx50.real(n), Fraction(1, ell))
            for d, n in zip(devs, points)
        ]
        spread = max(scaled) / min(scaled)
        assert spread < 4, (ell, float(spread))
        summary.append(f"ell={ell} dev {float(devs[2]):.4f} spread "
                       f"{float(spread):.2f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"criterion 09 asymptotic convergence: PASS "
          f"({'; '.join(summary)}; all within 5% at n=1e4, strictly "
          f"improving, scaled spread < 4x, {elapsed:.0f}s < 300s)")


def test_criterion_10_inequality_thresholds(p_10k, n3_10k):
    rep = log_concavity_scan(p_10k, 2, 10**4)
    assert rep.minimal_threshold == 26
    assert rep.violations == tuple(range(3, 26, 2))
    assert rep.equalities == ()

    rep3 = log_concavity_scan(n3_10k, 22, 10**4)
    assert rep3.violations == ()

    bo = bessenrodt_ono_scan(p_10k, 200)
    assert bo.equalities == ((2, 6), (2, 7), (3, 4))
    deep = [p for p in bo.equalities if p[0] > 1 and sum(p) > 8]
    assert deep == [(2, 7)]
    assert all(a == 1 or a + b <= 8 for a, b in bo.violations)

    conv = log_convexity_scan(factorial_scaled(p_10k), 2, 10**4)
    assert conv.violations == ()
    print("criterion 10 inequality thresholds: PASS "
          "(log-concavity threshold 26 with violations exactly odd 3..25; "
          "rank-3 clean on [22,1e4]; pair-inequality equalities "
          "{(2,6),(2,7),(3,4)} with (2,7) the only one at a,b>1, a+b>8; "
          "violations only a=1 or a+b<=8; factorial-scaled log-convexity "
          "clean on (1,1e4])")


def test_criterion_11_determinism(tmp_path, capsys):
    jobs_variants = ("1", "3", "5")
    cases = {
        "seq": ["seq", "--family", "ntuple", "--ell", "3", "--max-n", "50"],
        "constants": ["constants", "--family", "ntuple", "--ell", "4",
                      "--format", "json"],
        "compare": ["compare", "--family", "ntuple", "--ell", "2",
                    "--points", "100,200", "--format", "csv"],
    }
    for name, argv in cases.items():
        paths = []
        for run in (0, 1):
            out = tmp_path / f"{name}-{run}.txt"
            rc = cli_main(argv + ["--out", str(out)])
            assert rc == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes(), name
    scans = {
        "logconcave": ["logconcave", "--family", "ntuple", "--ell", "2",
                       "--max-n", "500"],
        "bo": ["bo", "--family", "ntuple", "--ell", "2", "--max-sum", "120"],
        "logconvex": ["logconvex", "--family", "ntuple", "--ell", "2",
                      "--max-n", "300"],
    }
    for name, argv in scans.items():
        blobs = []
        for jobs in jobs_variants:
            out = tmp_path / f"{name}-j{jobs}.txt"
            rc = cli_main(argv + ["--jobs", jobs, "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], name
    capsys.readouterr()
    print("criterion 11 determinism: PASS "
          "(byte-identical outputs across repeat runs and jobs 1/3/5)")

"""Exact big-integer inequality scanners: log-concavity, log-convexity,
and the multiplicative pair inequality."""

import json
from itertools import compress
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commtuple import (
    BigIntSeq,
    ScanReport,
    bessenrodt_ono_scan,
    factorial_scaled,
    log_concavity_scan,
    log_convexity_scan,
    ntuple_sequence,
    report_to_json,
)
from commtuple.inequalities import (
    _BLOCK,
    _SCREEN_BITS,
    _factorial_log_convexity_scan,
    _screen,
    _window_extrema,
)


def test_log_concavity_single_violation():
    # 7^2 = 49 < 5 * 11
    seq = ntuple_sequence(2, 12)
    rep = log_concavity_scan(seq, 4, 6)
    assert rep.violations == (5,)
    assert rep.equalities == ()
    assert rep.minimal_threshold == 6
    assert rep.property == "log-concavity"
    assert (rep.lo, rep.hi) == (4, 6)


def test_log_concavity_partition_prefix(p_10k):
    rep = log_concavity_scan(p_10k, 2, 100)
    assert rep.violations == tuple(range(3, 26, 2))
    assert rep.equalities == ()
    assert rep.minimal_threshold == 26


def test_constant_sequence_everywhere_tight():
    ones = BigIntSeq((1,) * 52, offset=0, label="ones")
    rep = log_concavity_scan(ones, 1, 50)
    assert rep.violations == ()
    assert rep.equalities == tuple(range(1, 51))
    assert rep.minimal_threshold == 1
    rep2 = bessenrodt_ono_scan(ones, 20)
    assert rep2.violations == ()
    assert rep2.minimal_threshold == 2
    assert all(a <= b and a + b <= 20 for a, b in rep2.equalities)


def test_log_convexity_factorial_scaled():
    scaled = factorial_scaled(ntuple_sequence(2, 301))
    assert scaled.label == "ntuple-2-scaled"
    assert scaled[3] == 18
    rep = log_convexity_scan(scaled, 2, 300)
    assert rep.violations == ()
    assert rep.equalities == ()
    assert rep.minimal_threshold == 2
    assert rep.property == "log-convexity"


def test_pair_inequality_small():
    seq = ntuple_sequence(2, 10)
    rep = bessenrodt_ono_scan(seq, 9)
    assert (2, 2) in rep.violations
    assert (1, 7) in rep.violations
    assert (4, 5) not in rep.violations
    assert rep.equalities == ((2, 6), (2, 7), (3, 4))
    assert rep.minimal_threshold == 10
    assert rep.property == "bessenrodt-ono"


def test_pair_inequality_structure():
    seq = ntuple_sequence(2, 60)
    rep = bessenrodt_ono_scan(seq, 60)
    assert all(a == 1 or a + b <= 8 for a, b in rep.violations)
    assert rep.equalities == ((2, 6), (2, 7), (3, 4))
    # a = 1 violates at every sum, so the window never certifies a threshold
    assert rep.minimal_threshold == 61


def test_parallel_matches_serial(p_10k):
    conc = log_concavity_scan(p_10k, 2, 2000)
    scaled = factorial_scaled(ntuple_sequence(2, 201))
    conv = log_convexity_scan(scaled, 2, 200)
    pairs = bessenrodt_ono_scan(p_10k, 120)
    for jobs in (2, 3, 5):
        assert log_concavity_scan(p_10k, 2, 2000, jobs=jobs) == conc
        assert log_convexity_scan(scaled, 2, 200, jobs=jobs) == conv
        assert bessenrodt_ono_scan(p_10k, 120, jobs=jobs) == pairs


def test_report_json_shape():
    seq = ntuple_sequence(2, 12)
    rep = log_concavity_scan(seq, 4, 6)
    out = report_to_json(rep)
    obj = json.loads(out)
    assert list(obj.keys()) == [
        "family",
        "property",
        "range",
        "violations",
        "equalities",
        "minimal_threshold",
    ]
    assert obj["family"] == "ntuple-2"
    assert obj["range"] == [4, 6]
    assert obj["violations"] == [5]
    assert obj["minimal_threshold"] == 6
    pair = bessenrodt_ono_scan(seq, 9)
    pobj = json.loads(report_to_json(pair))
    assert [2, 6] in pobj["equalities"]


def test_scan_guards(p_10k):
    seq = ntuple_sequence(2, 20)
    with pytest.raises(ValueError):
        log_concavity_scan(seq, 0, 10)
    with pytest.raises(ValueError):
        log_convexity_scan(seq, 1, 10)
    with pytest.raises(ValueError):
        log_concavity_scan(seq, 5, 4)
    with pytest.raises(ValueError):
        log_concavity_scan(seq, 2, 20)  # guard value at 21 missing
    with pytest.raises(ValueError):
        bessenrodt_ono_scan(seq, 1)
    with pytest.raises(ValueError):
        bessenrodt_ono_scan(seq, 30)
    bad = BigIntSeq((1, 2, 0, 3, 4, 5), offset=0, label="bad")
    with pytest.raises(ValueError):
        log_concavity_scan(bad, 1, 4)
    with pytest.raises(ValueError):
        ScanReport("x", "log-concavity", 1, 9, (5, 3), (), 6)


def test_jobs_below_one_rejected():
    seq = ntuple_sequence(2, 20)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            log_concavity_scan(seq, 2, 10, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            log_convexity_scan(factorial_scaled(seq), 2, 10, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            bessenrodt_ono_scan(seq, 10, jobs=jobs)


def test_factorial_log_convexity_matches_scaled_scan():
    for ell, top in ((2, 400), (3, 200)):
        seq = ntuple_sequence(ell, top + 1)
        want = log_convexity_scan(factorial_scaled(seq), 2, top)
        assert _factorial_log_convexity_scan(seq, 2, top) == want
    with pytest.raises(ValueError):
        _factorial_log_convexity_scan(seq, 1, 10)


# --- generated sequences against a naive exact reference ---


def naive_second_order(seq, lo, hi, w_mid, w_side, convex, label):
    viols, eqs = [], []
    for n in range(lo, hi + 1):
        mid = w_mid(n) * seq[n] * seq[n]
        side = w_side(n) * seq[n - 1] * seq[n + 1]
        if mid == side:
            eqs.append(n)
        elif (mid > side) if convex else (mid < side):
            viols.append(n)
    prop = "log-convexity" if convex else "log-concavity"
    threshold = viols[-1] + 1 if viols else lo
    return ScanReport(label, prop, lo, hi, tuple(viols), tuple(eqs), threshold)


def naive_pairs(seq, max_sum):
    viols, eqs = [], []
    for a in range(1, max_sum // 2 + 1):
        for b in range(a, max_sum - a + 1):
            prod, total = seq[a] * seq[b], seq[a + b]
            if prod < total:
                viols.append((a, b))
            elif prod == total:
                eqs.append((a, b))
    threshold = max(a + b for a, b in viols) + 1 if viols else 2
    return ScanReport(seq.label, "bessenrodt-ono", 1, max_sum, tuple(viols),
                      tuple(eqs), threshold)


def check_all_scans(seq, jobs):
    lo, hi = seq.offset, seq.last_index()
    n_min, n_max = max(lo + 1, 2), hi - 1
    if n_min <= n_max:
        one = lambda n: 1
        assert log_concavity_scan(seq, n_min, n_max, jobs=jobs) == naive_second_order(
            seq, n_min, n_max, one, one, False, seq.label)
        assert log_convexity_scan(seq, n_min, n_max, jobs=jobs) == naive_second_order(
            seq, n_min, n_max, one, one, True, seq.label)
        assert _factorial_log_convexity_scan(seq, n_min, n_max) == naive_second_order(
            seq, n_min, n_max, lambda n: n, lambda n: n + 1, True, seq.label + "-scaled")
    if lo <= 1 and hi >= 2:
        assert bessenrodt_ono_scan(seq, hi, jobs=jobs) == naive_pairs(seq, hi)


JOBS = st.sampled_from((1, 2, 3, 5))
OFFSET = st.integers(0, 2)


@st.composite
def wide_sequences(draw):
    """Positive values of 1 to 10^4 bits, in any order."""
    values = draw(st.lists(
        st.integers(1, 10**4).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)),
        min_size=3, max_size=16))
    return BigIntSeq(values, draw(OFFSET), "wide")


@st.composite
def near_geometric(draw, noise=True):
    """c(n) = a r^n + d(n) with |d(n)| far below the leading 64 bits, so
    both c(n)^2 vs c(n-1) c(n+1) and (for a = 1) c(a) c(b) vs c(a+b)
    agree in their leading bits and differ, if at all, in low bits."""
    r = draw(st.integers(2, 700).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)))
    a = draw(st.one_of(st.just(1), st.integers(1, 1 << 200)))
    size = draw(st.integers(3, 14))
    offset = draw(OFFSET)
    values = [a * r ** (offset + i) for i in range(size)]
    if noise:
        width = max(0, min(v.bit_length() for v in values) - 100)
        values = [v + draw(st.integers(-(1 << width) + 1, (1 << width) - 1))
                  for v in values]
    return BigIntSeq(values, offset, "near-geometric")


@settings(max_examples=60, deadline=None)
@given(wide_sequences(), JOBS)
def test_scans_match_naive_on_wide_values(seq, jobs):
    check_all_scans(seq, jobs)


@settings(max_examples=60, deadline=None)
@given(near_geometric(), JOBS)
def test_scans_match_naive_on_near_ties(seq, jobs):
    check_all_scans(seq, jobs)


@settings(max_examples=40, deadline=None)
@given(near_geometric(noise=False), JOBS)
def test_geometric_sequences_tie_everywhere(seq, jobs):
    check_all_scans(seq, jobs)
    lo, hi = seq.offset, seq.last_index()
    n_min = max(lo + 1, 2)
    if n_min < hi:
        rep = log_concavity_scan(seq, n_min, hi - 1, jobs=jobs)
        assert rep.violations == ()
        assert rep.equalities == tuple(range(n_min, hi))
    if lo <= 1 and seq[1] * seq[1] == seq[2]:  # a = 1: c(n) = r^n
        pairs = bessenrodt_ono_scan(seq, hi, jobs=jobs)
        assert pairs.violations == ()
        assert len(pairs.equalities) == sum(hi - 2 * a + 1 for a in range(1, hi // 2 + 1))


def test_near_ties_reach_the_exact_comparison():
    # leading bits agree, so the screen must leave these to the products
    r = (1 << 900) + 12345
    x, y, z = r ** 2 + 3, r + 1, r ** 3 - 5
    assert _screen(1, x, x, 1, y, z) == 0
    assert _screen(1, r, r, 1, r * r + 1, 1) == 0
    assert _screen(1, r, r, 1, r * r >> 1, 1) == 1
    assert _screen(2, r, r, 1, r * r * 3, 1) == -1


# --- the block screen of the pair scan ---


def bessenrodt_ono_reference(seq, max_sum):
    """The pair scan with only the per-pair bit-length prefilter: every
    pair with L(a+b) - L(b) > L(a) - 2 goes on to the leading-bit screen
    and, where that cannot decide, to the exact products."""
    c = (0,) * seq.offset + seq.values[: max_sum + 1 - seq.offset]
    bits = [x.bit_length() for x in c]
    viols, eqs = [], []
    for a in range(1, max_sum // 2 + 1):
        ca = c[a]
        room = bits[a] - 2
        open_b = compress(range(a, max_sum - a + 1),
                          map(room.__lt__, map(sub, bits[2 * a: max_sum + 1],
                                               bits[a: max_sum - a + 1])))
        for b in open_b:
            cb, cab = c[b], c[a + b]
            if bits[a] + bits[b] >= _SCREEN_BITS:
                sign = _screen(1, ca, cb, 1, cab, 1)
                if sign:
                    if sign < 0:
                        viols.append((a, b))
                    continue
            prod = ca * cb
            if prod < cab:
                viols.append((a, b))
            elif prod == cab:
                eqs.append((a, b))
    threshold = max(a + b for a, b in viols) + 1 if viols else 2
    return ScanReport(seq.label, "bessenrodt-ono", 1, max_sum, tuple(viols),
                      tuple(eqs), threshold)


def test_block_screen_matches_reference(p_10k, n3_10k):
    assert bessenrodt_ono_scan(p_10k, 2000) == bessenrodt_ono_reference(p_10k, 2000)
    assert bessenrodt_ono_scan(n3_10k, 3000) == bessenrodt_ono_reference(n3_10k, 3000)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=3 * _BLOCK), st.integers(1, 3 * _BLOCK))
def test_window_extrema_match_slices(xs, width):
    hi, lo = _window_extrema(xs, width)
    assert hi == [max(xs[i: i + width]) for i in range(len(xs))]
    assert lo == [min(xs[i: i + width]) for i in range(len(xs))]


@st.composite
def bit_length_runs(draw):
    """Positive values on 2 to 400 indices whose bit lengths come in runs:
    flat, rising, falling, random, or a single spike or drop, so some
    blocks of b are closed by their bit lengths and others stay open."""
    lengths = []
    size = draw(st.integers(2, 400))
    while len(lengths) < size:
        kind = draw(st.sampled_from(("flat", "rise", "fall", "random", "spike")))
        run = draw(st.integers(1, 3 * _BLOCK))
        start = draw(st.integers(1, 400))
        if kind == "flat":
            lengths += [start] * run
        elif kind == "rise":
            step = draw(st.integers(0, 5))
            lengths += [start + step * i for i in range(run)]
        elif kind == "fall":
            step = draw(st.integers(1, 5))
            lengths += [max(1, start - step * i) for i in range(run)]
        elif kind == "random":
            lengths += draw(st.lists(st.integers(1, 400), min_size=run, max_size=run))
        else:
            lengths.append(draw(st.sampled_from((1, 2, 800, 1200))))
    values = [draw(st.integers(1 << (k - 1), (1 << k) - 1)) for k in lengths[:size]]
    offset = draw(st.integers(0, 1))
    last = offset + size - 1
    hi = draw(st.one_of(st.just(last), st.integers(2, last))) if last >= 2 else None
    return BigIntSeq(values, offset, "runs"), hi


@settings(max_examples=50, deadline=None)
@given(bit_length_runs())
def test_block_screen_matches_naive(case):
    seq, hi = case
    if hi is not None:
        assert bessenrodt_ono_scan(seq, hi) == naive_pairs(seq, hi)


def test_block_screen_finds_a_lone_violation():
    # every pair holds by its bit lengths except those summing to 150,
    # which sits deep in a block whose other pairs are all ruled out
    values = [1 << 100] * 200
    values[150] = 1 << 250
    seq = BigIntSeq(values, 0, "spike")
    rep = bessenrodt_ono_scan(seq, 199)
    assert rep.violations == tuple((a, 150 - a) for a in range(1, 76))
    assert rep == naive_pairs(seq, 199)

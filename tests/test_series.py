"""Product expansions, the pentagonal and brute-force oracles, and the
sequence container."""

import copy
import hashlib
import json
import math
import pickle
import random
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commtuple import (
    BigIntSeq,
    Power,
    SubgroupCount,
    TableExponent,
    evaluate_exponent,
    expand_product,
    factorial_scaled,
    ntuple_exponent,
    ntuple_sequence,
    seq_to_csv,
    seq_to_json,
    subgroup_count_table,
    weighted_divisor_table,
)
from commtuple import series
from commtuple.oracles import (
    brute_force_commuting,
    expand_kernel,
    expand_product_direct,
    pentagonal_p,
)
from commtuple.series import _exact_context, _middle_product, _run_kernel


def test_weighted_divisor_table():
    c = weighted_divisor_table([0] + [1] * 10)
    assert c[6] == 12
    delta = weighted_divisor_table([0, 1] + [0] * 9)
    assert delta[1:] == [1] * 10
    # f = g_2 produces the rank-3 subgroup counts
    g2 = subgroup_count_table(2, 400)
    g3 = subgroup_count_table(3, 400)
    assert weighted_divisor_table(g2) == g3


def test_expand_product_known_prefixes():
    assert list(expand_product(Power(0), 4).values) == [1, 1, 2, 3, 5]
    assert list(expand_product(SubgroupCount(2), 4).values) == [1, 1, 4, 8, 21]
    assert list(expand_product(Power(1), 4).values) == [1, 1, 3, 6, 13]


def test_expand_product_direct_examples():
    assert list(expand_product_direct(TableExponent((0,) * 5), 5).values) == [
        1,
        0,
        0,
        0,
        0,
        0,
    ]
    # (1 - q^2)^{-3} = 1 + 3 q^2 + ...
    assert expand_product_direct(TableExponent((0, 3, 0, 0)), 4)[2] == 3
    assert list(expand_product_direct(Power(0), 10).values) == list(
        pentagonal_p(10).values
    )


def test_pentagonal_oracle():
    p = pentagonal_p(120)
    assert p[5] == 7
    assert p[26] == 2436
    assert p[100] == 190569292
    assert list(p.values[:10]) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_expand_matches_direct_across_families():
    rng = random.Random(99173)
    specs = [
        Power(0),
        Power(1),
        Power(2),
        SubgroupCount(2),
        SubgroupCount(3),
        TableExponent(tuple(rng.randrange(0, 4) for _ in range(120))),
    ]
    for spec in specs:
        a = expand_product(spec, 120)
        b = expand_product_direct(spec, 120)
        assert list(a.values) == list(b.values), spec


def test_kernel_refuses_signed_c():
    # signed weights still give integer coefficients (each factor
    # (1-q^n)^{-f} with f < 0 is a plain polynomial), but the kernel's
    # Kronecker slots could borrow on a negative c(k), so it refuses
    rng = random.Random(5511)
    for n_max in (90, 90, 90, 90, 400):
        f = [0] + [rng.randrange(-6, 7) for _ in range(n_max)]
        c = weighted_divisor_table(f)
        assert min(c[1:]) < 0
        with pytest.raises(ValueError, match="negative c"):
            _run_kernel(c, n_max)


def test_kernel_matches_oracle_on_wide_rows():
    # N_7's rows reach about 1300 bits by n = 700, so the Kronecker
    # products of the top cross terms pack slots of a few hundred digits
    n_max = 700
    c = weighted_divisor_table(evaluate_exponent(SubgroupCount(6), n_max))
    p = _run_kernel(c, n_max)
    assert p[n_max].bit_length() > 1200
    assert p == expand_kernel(c, n_max)
    assert all(isinstance(v, int) for v in p)


def test_middle_product_at_full_slots():
    # 99 terms of (10^50 - 1)(10^20 - 1) make 72 digits, the digits of a
    # row, a c and the number of rows together: the largest sum a slot
    # of that width holds
    xs, ys = [10**50 - 1] * 99, [10**20 - 1] * 150
    with localcontext(_exact_context()):
        got = _middle_product([Decimal(x) for x in xs], [Decimal(y) for y in ys], 52)
    full = 99 * xs[0] * ys[0]
    assert len(str(full)) == 72
    assert [int(v) for v in got] == [full] * 52


def test_kernel_past_str_digit_limit():
    # with f(1) = 10^40 the rows pass CPython's 4300-digit int/str limit
    # near n = 110, and row 300 has about 11400 digits
    n_max = 300
    c = weighted_divisor_table([0, 10**40] + [0] * (n_max - 1))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        p = _run_kernel(c, n_max)
    finally:
        sys.set_int_max_str_digits(limit)
    assert p[n_max].bit_length() > 11000 * 3.32
    assert p == expand_kernel(c, n_max)


@st.composite
def weight_tables(draw):
    """Non-negative f(1..N) built from runs: zeros (f(1) = 0 is allowed,
    so p need not be monotone), small weights, and weights up to 10^4
    whose coefficients are thousands of bits wide.  N = 600 and 1000
    run two and three levels of Kronecker cross terms; from N = 191
    (192 rows) a node splits into halves of at least 96 rows, and from
    N = 383 both halves of the root split again."""
    n_max = draw(st.one_of(st.sampled_from([127, 128, 129, 191, 192, 193, 256,
                                            383, 384, 600, 1000]),
                           st.integers(0, 400)))
    values: list[int] = []
    while len(values) < n_max:
        kind = draw(st.sampled_from(["zeros", "small", "wide"]))
        run = draw(st.integers(1, 80))
        if kind == "zeros":
            values += [0] * run
        elif kind == "small":
            values += draw(st.lists(st.integers(0, 3), min_size=run, max_size=run))
        else:
            values += draw(st.lists(st.integers(0, 10**4), min_size=1, max_size=3))
    return TableExponent(tuple(values[:n_max])), n_max


@settings(max_examples=60, deadline=None)
@given(weight_tables())
def test_kernel_matches_oracles(table):
    spec, n_max = table
    seq = expand_product(spec, n_max)
    c = weighted_divisor_table(evaluate_exponent(spec, n_max))
    assert list(seq.values) == expand_kernel(c, n_max)
    if n_max <= 120:
        assert seq.values == expand_product_direct(spec, n_max).values


@pytest.mark.parametrize("k, n_max", [(50, 300), (200, 300), (700, 1000)],
                         ids=["50", "200", "700"])
def test_integrality_witness_in_production_kernel(k, n_max, monkeypatch):
    # c(k) + 1 adds p(0) = 1 to k p(k) alone, so row k is the first
    # inexact row, whether p(0) c(k) reaches it in the first leaf (k = 50)
    # or through a Kronecker cross term (p(0) and row k in different
    # halves of a node: the root for k = 200 and 700)
    crosses = []
    cross = series._Expansion.cross

    def record(self, l, mid, r):
        crosses.append((l, mid, r))
        cross(self, l, mid, r)

    monkeypatch.setattr(series._Expansion, "cross", record)
    c = weighted_divisor_table(evaluate_exponent(ntuple_exponent(2, n_max), n_max))
    assert _run_kernel(c, n_max) == list(pentagonal_p(n_max).values)
    # every cross term packs at least 96 left rows into a Kronecker product
    assert all(mid - l >= 96 for l, mid, _ in crosses)
    reaching = [(l, mid, r) for l, mid, r in crosses if l == 0 and mid <= k < r]
    assert len(reaching) == (0 if k == 50 else 1)
    c[k] += 1
    with pytest.raises(ArithmeticError, match=f"at n={k}$"):
        _run_kernel(c, n_max)


def test_integrality_witness_through_high_pieces(monkeypatch):
    # f(2) = 10^40: p(n) is 0 for odd n and binom(10^40 + n/2 - 1, n/2)
    # for even n, so the root cross term (left rows 0..199) cuts rows of
    # up to 3805 digits into pieces and pads the zero rows between them
    n_max = 400
    c = weighted_divisor_table([0, 0, 10**40] + [0] * (n_max - 2))
    p = _run_kernel(c, n_max)
    assert p == expand_kernel(c, n_max)
    assert p[199] == 0 and len(str(p[198])) > 3 * series._SLICE
    cross = series._Expansion.cross
    for piece in (1, 2):
        # a 1 at digit 300 or 600 of row 199's copy meets row 201 through
        # c(2) = 2 10^40 alone, and 201 divides no 2 10^m
        def corrupt(self, l, mid, r, piece=piece):
            if (l, mid) == (0, 200):
                self.dp[199] += Decimal(10) ** (piece * series._SLICE)
            cross(self, l, mid, r)

        monkeypatch.setattr(series._Expansion, "cross", corrupt)
        with pytest.raises(ArithmeticError, match="at n=201$"):
            _run_kernel(c, n_max)


def test_integrality_witness_at_planned_piece_boundaries(monkeypatch):
    # the f(2) = 10^40 table above: a 1 at the first digit of each piece
    # the root cross term plans must reach row 201 the same way
    n_max = 400
    c = weighted_divisor_table([0, 0, 10**40] + [0] * (n_max - 2))
    plans = []
    cross = series._Expansion.cross

    def record(self, l, mid, r):
        if (l, mid) == (0, 200):
            plans.append(self.plan(l, mid, r))
        cross(self, l, mid, r)

    monkeypatch.setattr(series._Expansion, "cross", record)
    _run_kernel(c, n_max)
    [plan] = plans
    starts = [start for start, _ in plan]
    assert starts[0] == 0 and len(starts) > 3
    # past 1024 words the pieces are wider than _SLICE
    assert all(b - a > series._SLICE for a, b in zip(starts, starts[1:]))
    for start in starts:
        def corrupt(self, l, mid, r, start=start):
            if (l, mid) == (0, 200):
                self.dp[199] += Decimal(10) ** start
            cross(self, l, mid, r)

        monkeypatch.setattr(series._Expansion, "cross", corrupt)
        with pytest.raises(ArithmeticError, match="at n=201$"):
            _run_kernel(c, n_max)


def test_transform_len_is_libmpdecs():
    # the least 2^j or 3 2^j words that hold the product
    lengths = sorted({m << j for m in (1, 3) for j in range(25)})
    for words in [*range(1025, 5000), 32_000, 33_000, 49_152, 49_153, 98_305]:
        assert series._transform_len(words) == min(t for t in lengths if t >= words)


def test_piece_width_fills_the_same_transform():
    for nx in (1, 2, 96, 150, 191, 700, 2500):
        for ny in (1, 96, 300, 1400, 5000):
            for extra in (3, 9, 30, 70):
                for left in (1, 40, 299, 300, 301, 420, 900, 3805, 20000):
                    width = series._piece_width(nx, ny, extra, left)
                    base = min(series._SLICE, left)
                    assert base <= width <= left
                    words = series._packed_words(nx, ny, extra, base)
                    if words <= 1024:
                        assert width == base
                        continue
                    room = series._transform_len(words)
                    assert series._transform_len(
                        series._packed_words(nx, ny, extra, width)) <= room
                    # and one digit more would need a longer transform
                    if width < left:
                        assert series._packed_words(nx, ny, extra, width + 1) > room


def test_packed_words_bound_middle_products_factors(monkeypatch):
    # _piece_width's size model against the factors _middle_product
    # really packs: never fewer words, and at most one more
    rng = random.Random(22)
    packed = []
    pack = series._pack

    def record(xs, width):
        d = pack(xs, width)
        packed.append(-(-len(d.as_tuple().digits) // 19))
        return d

    monkeypatch.setattr(series, "_pack", record)
    for nx, ny, width, c_digits in [(96, 191, 300, 9), (150, 400, 437, 31),
                                    (1, 5, 20, 1), (700, 1401, 360, 60)]:
        xs = [rng.randrange(10**width) for _ in range(nx - 1)]
        xs.append(rng.randrange(10 ** (width - 1), 10**width))
        ys = [rng.randrange(10**c_digits) for _ in range(ny - 1)]
        ys.append(10**c_digits - 1)
        packed.clear()
        with localcontext(_exact_context()):
            _middle_product([Decimal(x) for x in xs], [Decimal(y) for y in ys], 1)
        extra = (c_digits - 1) + len(str(nx)) + 2
        model = series._packed_words(nx, ny, extra, width)
        assert 0 <= model - sum(packed) <= 1


@st.composite
def wide_weight_tables(draw):
    """c(1..N) of f(1..N) that starts with a weight of up to 10^40 and
    goes on in runs of zeros and of such weights: rows of thousands of
    digits whose cross terms pass 1024 words, next to zero or short
    rows (f(1) = 0 makes p(1) = 0), so the rows are not monotone."""
    n_max = draw(st.sampled_from([192, 256, 300]))
    values = [0] * draw(st.integers(0, 2))
    while len(values) < n_max:
        values += draw(st.lists(st.integers(10**20, 10**40), min_size=1, max_size=3))
        values += [0] * draw(st.integers(0, 60))
    return n_max, weighted_divisor_table([0] + values[:n_max])


@settings(max_examples=10, deadline=None)
@given(wide_weight_tables())
def test_kernel_matches_oracle_on_planned_pieces(table):
    n_max, c = table
    p = _run_kernel(c, n_max)
    assert max(p).bit_length() > 3.3 * 2 * series._SLICE
    assert p == expand_kernel(c, n_max)


@pytest.mark.parametrize("ell, n_max, serialise, digest", [
    (5, 3000, seq_to_csv, "08163f71ffbd28f04cd777fe344f68907c629edf2e884e9a544c7abb93fb7e70"),
    (8, 2800, seq_to_json, "062d286b516e56a082066aa2bb08b734830ed81592674de97936032a9199aa9c"),
], ids=["N5-csv", "N8-json"])
def test_wide_table_bytes(ell, n_max, serialise, digest):
    # the tables-wide benchmark's outputs, rows of up to about 6000 bits,
    # pinned byte for byte; tests/golden/ holds only small tables
    text = serialise(ntuple_sequence(ell, n_max))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def commuting_count(ell, n):
    """n! N_ell(n), the number of commuting ell-tuples in S_n."""
    return math.factorial(n) * ntuple_sequence(ell, n)[n]


def test_commuting_counts():
    assert commuting_count(1, 4) == 24
    assert commuting_count(2, 3) == 18
    assert commuting_count(3, 2) == 8
    assert brute_force_commuting(2, 2) == 4
    assert brute_force_commuting(3, 3) == 48
    assert brute_force_commuting(2, 4) == 120


def test_brute_force_matches_expansion():
    for ell in (1, 2, 3):
        for n in range(0, 5):
            assert brute_force_commuting(ell, n) == commuting_count(ell, n)


def test_brute_force_pairs_are_class_counts():
    p = pentagonal_p(5)
    for n in range(0, 6):
        assert brute_force_commuting(2, n) == math.factorial(n) * p[n]


def test_brute_force_bounds():
    with pytest.raises(ValueError):
        brute_force_commuting(4, 2)
    with pytest.raises(ValueError):
        brute_force_commuting(2, 6)


def test_ntuple_sequence_labels_and_monotonicity():
    one = ntuple_sequence(1, 30)
    assert list(one.values) == [1] * 31
    n3 = ntuple_sequence(3, 200)
    assert n3.label == "ntuple-3"
    for n in range(1, 200):
        assert n3[n + 1] >= n3[n]


def test_factorial_scaled():
    seq = BigIntSeq((1, 1, 2, 3), 0, "demo")
    scaled = factorial_scaled(seq)
    assert list(scaled.values) == [1, 1, 4, 18]
    assert scaled.label == "demo-scaled"


def test_bigintseq_indexing():
    seq = BigIntSeq((5, 6, 7), 2, "window")
    assert seq[2] == 5
    assert seq[4] == 7
    assert seq.last_index() == 4
    assert len(seq) == 3
    with pytest.raises(IndexError):
        seq[1]
    with pytest.raises(IndexError):
        seq[5]


def test_bigintseq_record():
    # BigIntSeq behaves as a frozen dataclass of (values, offset, label)
    seq = BigIntSeq([1, True, 2.0], 3, "x")
    assert seq.values == (1, 1, 2) and [type(v) for v in seq.values] == [int] * 3
    assert repr(BigIntSeq((1, 2), label="x")) == "BigIntSeq(values=(1, 2), offset=0, label='x')"
    assert seq == BigIntSeq(values=(1, 1, 2), offset=3, label="x")
    assert hash(seq) == hash(BigIntSeq((1, 1, 2), 3, "x")) == hash(((1, 1, 2), 3, "x"))
    assert BigIntSeq((1, 2)) == BigIntSeq((1, 2), 0, "")
    for other in (BigIntSeq((1, 1, 2), 2, "x"), BigIntSeq((1, 1, 2), 3, "y"),
                  BigIntSeq((1, 1), 3, "x"), TableExponent((1, 1, 2)), ((1, 1, 2), 3, "x")):
        assert seq != other and not seq == other
    for name, value in (("values", (9,)), ("offset", 0), ("label", "y"), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(seq, name, value)
    with pytest.raises(AttributeError):
        del seq.label
    assert seq.label == "x"
    for clone in (pickle.loads(pickle.dumps(seq)), copy.copy(seq), copy.deepcopy(seq)):
        assert type(clone) is BigIntSeq and clone == seq and hash(clone) == hash(seq)


def test_serializers():
    seq = BigIntSeq((1, 1, 2), 0, "p")
    assert seq_to_csv(seq) == "n,value\n0,1\n1,1\n2,2\n"
    assert seq_to_json(seq) == '["1","1","2"]\n'
    # byte for byte what json.dumps makes of the digit strings
    for values in ((), (0,), (-7, 3, -(10**60), 10**60)):
        want = json.dumps([str(v) for v in values], separators=(",", ":")) + "\n"
        assert seq_to_json(BigIntSeq(values, 1, "x")) == want


def test_integrality_witness_rejects_bad_table():
    # a hand-broken c-table must trip the exact-division check
    with pytest.raises(ArithmeticError):
        expand_kernel([0, 1, 1, 2], 3)

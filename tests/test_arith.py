"""Weight tables, Dirichlet convolution, subgroup counts and the
Hermite-form oracle."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commtuple import (
    PolygonalIndicator,
    Power,
    SubgroupCount,
    TableExponent,
    evaluate_exponent,
    is_polygonal,
    subgroup_count_table,
)
from commtuple.oracles import dirichlet_convolve, hnf_subgroup_count


def naive_sigma(m, n):
    return sum(d**m for d in range(1, n + 1) if n % d == 0)


def test_dirichlet_convolve_examples():
    one = evaluate_exponent(Power(0), 10)
    ident = evaluate_exponent(Power(1), 10)
    sq = evaluate_exponent(Power(2), 10)
    assert dirichlet_convolve(one, one)[4] == 3
    assert dirichlet_convolve(one, ident)[6] == 12
    assert dirichlet_convolve(ident, sq)[2] == 6


def test_dirichlet_convolve_commutative_associative():
    rng = random.Random(20240817)
    n = 120
    for _ in range(5):
        a = [0] + [rng.randrange(-9, 10) for _ in range(n)]
        b = [0] + [rng.randrange(-9, 10) for _ in range(n)]
        c = [0] + [rng.randrange(-9, 10) for _ in range(n)]
        assert dirichlet_convolve(a, b) == dirichlet_convolve(b, a)
        left = dirichlet_convolve(dirichlet_convolve(a, b), c)
        right = dirichlet_convolve(a, dirichlet_convolve(b, c))
        assert left == right


def test_dirichlet_convolve_length_mismatch():
    with pytest.raises(ValueError):
        dirichlet_convolve([0, 1, 1], [0, 1])


def test_subgroup_count_low_rank():
    assert subgroup_count_table(1, 20)[1:] == [1] * 20
    sig = [naive_sigma(1, n) for n in range(1, 501)]
    assert subgroup_count_table(2, 500)[1:] == sig
    g3 = subgroup_count_table(3, 8)
    assert g3[1:7] == [1, 7, 13, 35, 31, 91]


def convolved_subgroup_counts(ell, n_max):
    """Id^0 * Id^1 * ... * Id^(ell-1), one Dirichlet convolution at a time."""
    table = evaluate_exponent(Power(0), n_max)
    for p in range(1, ell):
        table = dirichlet_convolve(table, evaluate_exponent(Power(p), n_max))
    return table


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 1500))
def test_subgroup_count_matches_convolution(ell, n_max):
    assert subgroup_count_table(ell, n_max) == convolved_subgroup_counts(ell, n_max)


@pytest.mark.parametrize("ell, n_max", [
    (1, 1), (5, 1),      # only the sentinel and g(1)
    (4, 997),            # ends at a prime
    (6, 1024),           # ends at a prime power
    (3, 2187),           # ends at an odd prime power
    (8, 2800),
])
def test_subgroup_count_fixed_cases(ell, n_max):
    table = subgroup_count_table(ell, n_max)
    assert table == convolved_subgroup_counts(ell, n_max)
    assert len(table) == n_max + 1 and table[:2] == [0, 1]


def test_subgroup_count_multiplicative():
    for ell in (2, 3, 4, 5):
        g = subgroup_count_table(ell, 1000)
        for m, n in ((2, 3), (4, 9), (8, 27), (5, 7), (16, 25), (11, 13)):
            assert g[m * n] == g[m] * g[n]


def test_subgroup_recursion_identity():
    # g_ell(N) = sum over d | N of d * g_{ell-1}(d)
    for ell in (2, 3, 4, 5):
        g_lo = subgroup_count_table(ell - 1, 1000)
        g_hi = subgroup_count_table(ell, 1000)
        for n in range(1, 1001):
            acc = sum(d * g_lo[d] for d in range(1, n + 1) if n % d == 0)
            assert acc == g_hi[n]


def test_hnf_oracle_matches_tables():
    assert hnf_subgroup_count(2, 2) == 3
    assert hnf_subgroup_count(3, 2) == 7
    assert hnf_subgroup_count(1, 17) == 1
    assert hnf_subgroup_count(3, 4) == 35
    for ell in (1, 2, 3, 4):
        table = subgroup_count_table(ell, 64)
        for n in range(1, 65):
            assert hnf_subgroup_count(ell, n) == table[n]


def test_hnf_oracle_bounds():
    with pytest.raises(ValueError):
        hnf_subgroup_count(5, 3)
    with pytest.raises(ValueError):
        hnf_subgroup_count(2, 65)
    with pytest.raises(ValueError):
        hnf_subgroup_count(2, 0)


def test_polygonal_membership():
    # triangular: 1 3 6 10 15; squares: 1 4 9 16; pentagonal: 1 5 12 22
    assert [n for n in range(1, 16) if is_polygonal(3, n)] == [1, 3, 6, 10, 15]
    assert [n for n in range(1, 17) if is_polygonal(4, n)] == [1, 4, 9, 16]
    assert [n for n in range(1, 23) if is_polygonal(5, n)] == [1, 5, 12, 22]
    assert not is_polygonal(4, 5)
    assert is_polygonal(3, 6)


def test_evaluate_exponent_families():
    assert evaluate_exponent(Power(2), 3)[3] == 9
    assert evaluate_exponent(PolygonalIndicator(3), 6)[6] == 1
    assert evaluate_exponent(PolygonalIndicator(4), 5)[5] == 0
    assert evaluate_exponent(SubgroupCount(1), 5)[1:] == [1] * 5
    assert evaluate_exponent(SubgroupCount(3), 6) == subgroup_count_table(3, 6)
    t = TableExponent((5, 0, 2))
    assert evaluate_exponent(t, 3) == [0, 5, 0, 2]
    specs = [SubgroupCount(3), Power(2), PolygonalIndicator(5), t]
    assert [s.label for s in specs] == [
        "subgroups-rank-3", "power-2", "polygonal-5", "table-3"]
    assert [s.growth for s in specs] == [4, 2, 0, None]


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.builds(SubgroupCount, st.integers(1, 7)),
                 st.builds(Power, st.integers(0, 4)),
                 st.builds(PolygonalIndicator, st.integers(3, 8))),
       st.integers(1, 3000))
def test_weights_below_growth_bound(spec, n_max):
    # the tail cutoff of saddle._exp_weight_sum rests on f(m) <= m^growth
    f = evaluate_exponent(spec, n_max)
    assert all(f[m] <= m**spec.growth for m in range(1, n_max + 1))


def test_evaluate_exponent_table_too_short():
    with pytest.raises(ValueError):
        evaluate_exponent(TableExponent((1, 2)), 5)


def test_spec_validation():
    with pytest.raises(ValueError, match="^rank must be a positive integer$"):
        SubgroupCount(0)
    with pytest.raises(ValueError, match="^d must be >= 0$"):
        Power(-1)
    with pytest.raises(ValueError, match="^k must be >= 3$"):
        PolygonalIndicator(2)
    with pytest.raises(ValueError, match="^table values must be >= 0$"):
        TableExponent((1, -2, 3))
    with pytest.raises(ValueError, match="^n_max must be >= 0$"):
        evaluate_exponent(Power(1), -1)
    with pytest.raises(ValueError, match="^ell must be >= 1$"):
        subgroup_count_table(0, 5)
    with pytest.raises(ValueError, match="^n_max must be >= 1$"):
        subgroup_count_table(2, 0)
    with pytest.raises(ValueError, match="^k must be >= 3$"):
        is_polygonal(2, 5)


# (class, fields, other fields, repr): the specs behave as frozen
# dataclasses of these fields would
SPEC_RECORDS = [
    (SubgroupCount, (3,), (4,), "SubgroupCount(rank=3)"),
    (Power, (2,), (1,), "Power(d=2)"),
    (PolygonalIndicator, (5,), (6,), "PolygonalIndicator(k=5)"),
    (TableExponent, ((5, 0, 2),), ((5, 0),), "TableExponent(values=(5, 0, 2))"),
]


@pytest.mark.parametrize("cls, fields, other, text", SPEC_RECORDS)
def test_spec_records(cls, fields, other, text):
    spec = cls(*fields)
    assert repr(spec) == text
    assert spec == cls(*fields) and not spec != cls(*fields)
    assert spec != cls(*other)
    assert hash(spec) == hash(cls(*fields)) == hash(fields)
    # equal fields in another class, or in a bare tuple, are not equal
    assert Power(1) != SubgroupCount(1) and Power(3) != PolygonalIndicator(3)
    assert SubgroupCount(3) != PolygonalIndicator(3)
    assert spec != fields
    name = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(spec, name, other[0])
    with pytest.raises(AttributeError):
        spec.extra = 1
    with pytest.raises(AttributeError):
        delattr(spec, name)
    assert getattr(spec, name) == fields[0]
    for clone in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert type(clone) is cls and clone == spec and hash(clone) == hash(spec)


def test_table_exponent_coerces_to_int():
    spec = TableExponent([5, True, 2.0])
    assert spec.values == (5, 1, 2)
    assert [type(v) for v in spec.values] == [int] * 3
    assert TableExponent(values=(1, 2)) == TableExponent((1, 2))

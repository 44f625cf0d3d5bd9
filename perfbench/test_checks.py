"""Tests of the benchmark's own checks: each accepts the program's real
output and rejects a deliberately corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from commtuple import (  # noqa: E402
    BigIntSeq,
    PrecisionContext,
    bessenrodt_ono_scan,
    factorial_scaled,
    log_concavity_scan,
    log_convexity_scan,
    ntuple_exponent,
    ntuple_sequence,
    rho_numeric,
    seq_to_csv,
    seq_to_json,
)
from commtuple.cli import main as cli_main  # noqa: E402

N = 400


@pytest.fixture(scope="module")
def p():
    return checks.pentagonal(N + 1)


@pytest.fixture(scope="module")
def n3():
    return list(ntuple_sequence(3, N).values)


@pytest.fixture(scope="module")
def n3_ref():
    return checks.modular_sequence(checks.subgroup_counts(2, N))


def constants_text(tmp_path, ell, digits=50):
    out = tmp_path / f"c{ell}-{digits}.txt"
    assert cli_main(["constants", "--family", "ntuple", "--ell", str(ell),
                     "--digits", str(digits), "--out", str(out)]) == 0
    return out.read_text()


def bump_digit(text: str, key: str, offset: int) -> str:
    """Change one digit of the value on the line starting with `key`,
    `offset` characters after the decimal point."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(key):
            pos = line.index(".", line.index(": ")) + offset
            digit = "1" if line[pos] != "1" else "2"
            lines[i] = line[:pos] + digit + line[pos + 1:]
            return "\n".join(lines) + "\n"
    raise KeyError(key)


# --- references ---


def test_references_agree_with_program_on_small_cases(p):
    assert p == list(ntuple_sequence(2, N + 1).values)
    for rank in (1, 2, 3, 7):
        f = checks.subgroup_counts(rank, 120)
        assert checks.modular_sequence(f) == [
            v % checks.CHECK_MODULUS for v in ntuple_sequence(rank + 1, 120).values]


# --- tables ---


def test_table_check_accepts_real_table(n3, n3_ref):
    bits = checks.check_table(n3, n3_ref, checks.N3_PREFIX)
    assert bits == sum(v.bit_length() for v in n3)


@pytest.mark.parametrize("n,delta", [(0, 1), (7, -1), (250, 1), (N, checks.CHECK_PRIMES[0])])
def test_table_check_rejects_changed_value(n3, n3_ref, n, delta):
    bad = list(n3)
    bad[n] += delta
    with pytest.raises(checks.CheckError):
        checks.check_table(bad, n3_ref)


def test_table_check_rejects_short_table(n3, n3_ref):
    with pytest.raises(checks.CheckError):
        checks.check_table(n3[:-1], n3_ref)


def test_table_check_rejects_wrong_exact_prefix(n3):
    bad = list(n3)
    bad[10] = 1317
    # a modular reference that the corruption matches, so only the exact
    # prefix can catch it
    with pytest.raises(checks.CheckError):
        checks.check_table(bad, [v % checks.CHECK_MODULUS for v in bad], checks.N3_PREFIX)


def test_parse_table_reads_both_formats_and_rejects_bad_rows(n3):
    seq = BigIntSeq(n3, 0, "ntuple-3")
    assert checks.parse_table(seq_to_csv(seq), "csv") == n3
    assert checks.parse_table(seq_to_json(seq), "json") == n3
    csv = seq_to_csv(seq).splitlines()
    csv[3], csv[4] = csv[4], csv[3]
    with pytest.raises(checks.CheckError):
        checks.parse_table("\n".join(csv) + "\n", "csv")
    with pytest.raises(checks.CheckError):
        checks.parse_table(seq_to_csv(seq).replace("n,value\n", ""), "csv")
    with pytest.raises(checks.CheckError):
        checks.parse_table(seq_to_json(seq).replace('"1316"', "1316"), "json")


# --- scan reports ---


@pytest.fixture(scope="module")
def seq(p):
    return BigIntSeq(p, 0, "partitions")


def test_log_concavity_check(seq, p):
    rep = log_concavity_scan(seq, 2, N)
    checks.check_log_concavity(rep, p, 2, N)
    for bad in (
        dataclasses.replace(rep, violations=rep.violations[:-1]),
        dataclasses.replace(rep, violations=rep.violations + (N,)),
        dataclasses.replace(rep, equalities=(100,)),
        dataclasses.replace(rep, minimal_threshold=24),
        dataclasses.replace(rep, hi=N - 1),
    ):
        with pytest.raises(checks.CheckError):
            checks.check_log_concavity(bad, p, 2, N)


def test_bessenrodt_ono_check(seq, p):
    max_sum = 60
    rep = bessenrodt_ono_scan(seq, max_sum)
    checks.check_bessenrodt_ono(rep, p, max_sum)
    viols = list(rep.violations)
    for bad in (
        dataclasses.replace(rep, equalities=rep.equalities[:-1]),
        dataclasses.replace(rep, equalities=rep.equalities + ((5, 6),)),
        dataclasses.replace(rep, violations=tuple(sorted(viols + [(4, 6)]))),
        dataclasses.replace(rep, violations=tuple(v for v in viols if v != (1, 7))),
        dataclasses.replace(rep, minimal_threshold=rep.minimal_threshold - 1),
    ):
        with pytest.raises(checks.CheckError):
            checks.check_bessenrodt_ono(bad, p, max_sum)


def test_factorial_convexity_check(p):
    short = BigIntSeq(p[:N + 2], 0, "partitions")
    rep = log_convexity_scan(factorial_scaled(short), 2, N)
    checks.check_factorial_convexity(rep, p, 2, N)
    for bad in (
        dataclasses.replace(rep, violations=(17,)),
        dataclasses.replace(rep, equalities=(17,)),
        dataclasses.replace(rep, lo=3),
    ):
        with pytest.raises(checks.CheckError):
            checks.check_factorial_convexity(bad, p, 2, N)


def test_same_report_check(seq):
    one = log_concavity_scan(seq, 2, N, jobs=1)
    two = log_concavity_scan(seq, 2, N, jobs=2)
    checks.check_same_report(one, two)
    with pytest.raises(checks.CheckError):
        checks.check_same_report(one, dataclasses.replace(two, violations=two.violations[1:]))


# --- constants ---


@pytest.mark.parametrize("ell,key", [(2, "C"), (3, "A[2]"), (3, "C"), (4, "A[1]"),
                                     (4, "K[1]"), (5, "C")])
def test_constants_check(tmp_path, ell, key):
    text = constants_text(tmp_path, ell)
    refs = checks.closed_forms(ell)
    checks.check_constants(checks.parse_constants(text), ell, refs, "1e-40")
    bad = checks.parse_constants(bump_digit(text, key, 30))
    with pytest.raises(checks.CheckError):
        checks.check_constants(bad, ell, refs, "1e-40")


def test_constants_check_rejects_wrong_b_and_family(tmp_path):
    parsed = checks.parse_constants(constants_text(tmp_path, 3))
    refs = checks.closed_forms(3)
    with pytest.raises(checks.CheckError):
        checks.check_constants({**parsed, "b": "47/73"}, 3, refs, "1e-40")
    with pytest.raises(checks.CheckError):
        checks.check_constants(parsed, 4, checks.closed_forms(4), "1e-40")


def test_precision_agreement_check(tmp_path):
    short = constants_text(tmp_path, 4)
    long = constants_text(tmp_path, 4, digits=100)
    checks.check_precision_agreement(checks.parse_constants(short),
                                     checks.parse_constants(long), "1e-45")
    bad = checks.parse_constants(bump_digit(long, "A[3]", 40))
    with pytest.raises(checks.CheckError):
        checks.check_precision_agreement(checks.parse_constants(short), bad, "1e-45")


# --- numeric saddle point ---


def test_saddle_check(tmp_path):
    ctx = PrecisionContext(50)
    n = 200
    rho = rho_numeric(ntuple_exponent(4, 8), n, ctx)
    parsed = checks.parse_constants(constants_text(tmp_path, 4))
    ks = [parsed[f"K[{j}]"] for j in range(1, 5)]
    f = checks.subgroup_counts(3, 2000)
    checks.check_saddle(rho, f, n, ks, 4)
    with pytest.raises(checks.CheckError):
        checks.check_saddle(rho * (1 + ctx.mp.mpf("1e-20")), f, n, ks, 4)
    with pytest.raises(checks.CheckError):
        checks.check_saddle(rho, f, n, [ks[0], ks[1].lstrip("-"), *ks[2:]], 4)


# --- rescaling to the reference speed ---


def test_scale_to_reference_speed():
    import calibrate

    ref = calibrate.REFERENCE_S
    assert calibrate.scale(2.0, ref, ref) == pytest.approx(2.0)
    # a machine running at half speed takes twice as long for both
    assert calibrate.scale(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert calibrate.scale(3.0, ref, 2 * ref) == pytest.approx(2.0)
    assert calibrate.reference_s() > 0

"""Reference computations made apart from the program, and the checks
that compare the program's outputs against them.

Nothing in this module imports commtuple.  Each check raises CheckError
with a short reason when an output is wrong, and returns nothing (or a
computed size) when it is right.
"""

from __future__ import annotations

import json
import operator
import random
import re
from fractions import Fraction

import mpmath

# Two primes above every table length the benchmark uses; agreement
# modulo their product is agreement modulo each prime.
CHECK_PRIMES = (2147483629, 2147483587)
CHECK_MODULUS = CHECK_PRIMES[0] * CHECK_PRIMES[1]

N3_PREFIX = (1, 1, 4, 8, 21, 39, 92, 170, 360, 667, 1316)


class CheckError(Exception):
    """An output of the program disagrees with its reference."""


# --- exact sequences ---


def pentagonal(n_max: int) -> list[int]:
    """Partition numbers p(0..n_max) by Euler's pentagonal recurrence."""
    gen = []
    j = 1
    while j * (3 * j - 1) // 2 <= n_max:
        sign = 1 if j % 2 else -1
        gen.append((j * (3 * j - 1) // 2, sign))
        gen.append((j * (3 * j + 1) // 2, sign))
        j += 1
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        for g, sign in gen:
            if g > n:
                break
            total += sign * p[n - g]
        p[n] = total
    return p


def smallest_prime_factors(n_max: int) -> list[int]:
    spf = list(range(n_max + 1))
    for i in range(2, int(n_max**0.5) + 1):
        if spf[i] == i:
            for m in range(i * i, n_max + 1, i):
                if spf[m] == m:
                    spf[m] = i
    return spf


def subgroup_counts(rank: int, n_max: int) -> list[int]:
    """(0, g(1), ..., g(n_max)) with g(n) the number of index-n subgroups
    of Z^rank, from the multiplicative formula
    g(p^k) = prod_{i=1}^{rank-1} (p^{k+i} - 1) / (p^i - 1)."""
    spf = smallest_prime_factors(n_max)
    g = [0] * (n_max + 1)
    if n_max >= 1:
        g[1] = 1
    for n in range(2, n_max + 1):
        p = spf[n]
        m, k = n, 0
        while m % p == 0:
            m //= p
            k += 1
        local = 1
        for i in range(1, rank):
            local = local * (p ** (k + i) - 1) // (p**i - 1)
        g[n] = g[m] * local
    return g


def seeded_weights(seed: int, n_max: int) -> list[int]:
    """f(1..n_max): f(1) = 1, so that every coefficient is positive, then
    a fixed multiset of weights 0..3 in an order drawn from the seed, so
    that every seed gives inputs of the same size."""
    values = [i % 4 for i in range(n_max - 1)]
    random.Random(seed).shuffle(values)
    return [1] + values


def modular_sequence(f: list[int], modulus: int = CHECK_MODULUS) -> list[int]:
    """Coefficients of prod (1 - q^n)^{-f(n)} modulo `modulus`, from
    n p(n) = sum_{k<=n} c(k) p(n-k) with c(k) = sum_{d|k} d f(d); f is
    (0, f(1), ..., f(N)) and every n <= N must be invertible."""
    n_max = len(f) - 1
    c = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        if f[d]:
            for m in range(d, n_max + 1, d):
                c[m] += d * f[d]
    c = [v % modulus for v in c]
    p = [1] + [0] * n_max
    mul = operator.mul
    for n in range(1, n_max + 1):
        acc = sum(map(mul, c[1 : n + 1], p[n - 1 :: -1]))
        p[n] = acc * pow(n, -1, modulus) % modulus
    return p


# --- table outputs ---


def parse_table(text: str, fmt: str) -> list[int]:
    """Values of a `commtuple seq` output, checking that CSV rows run
    n = 0, 1, 2, ... in order."""
    if fmt == "json":
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise CheckError(f"output is not JSON: {exc}") from None
        if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
            raise CheckError("JSON output is not a list of decimal strings")
        rows = raw
    else:
        lines = text.splitlines()
        if not lines or lines[0] != "n,value":
            raise CheckError("CSV output lacks its n,value header")
        rows = []
        for i, line in enumerate(lines[1:]):
            n_str, _, v_str = line.partition(",")
            if n_str != str(i):
                raise CheckError(f"CSV row {i} has index {n_str!r}")
            rows.append(v_str)
    try:
        return [int(v) for v in rows]
    except ValueError:
        raise CheckError("a table value is not a decimal integer") from None


def check_table(values: list[int], ref_mod: list[int], exact=None,
                modulus: int = CHECK_MODULUS) -> int:
    """Table against its modular reference (and an exact prefix or whole
    exact reference when given); returns the sum of bit lengths."""
    if len(values) != len(ref_mod):
        raise CheckError(f"table has {len(values)} values, expected {len(ref_mod)}")
    bits = 0
    for n, (v, r) in enumerate(zip(values, ref_mod)):
        if v <= 0:
            raise CheckError(f"non-positive value at n={n}")
        if v % modulus != r:
            raise CheckError(f"value at n={n} disagrees modulo the check primes")
        bits += v.bit_length()
    if exact is not None and list(values[: len(exact)]) != list(exact):
        raise CheckError("table disagrees with its exact reference")
    return bits


# --- scan reports ---


def _report_core(report) -> tuple:
    return (tuple(report.violations), tuple(report.equalities),
            report.minimal_threshold, report.lo, report.hi)


def check_same_report(r1, r2) -> None:
    """Reports of one scan at different --jobs values must be identical."""
    if _report_core(r1) != _report_core(r2) or r1.property != r2.property:
        raise CheckError(f"{r1.property} report depends on jobs")


def second_order_reference(c: list[int], lo: int, hi: int, lw, rw, convex: bool):
    """Violations and equalities of lw(n) c_n^2 vs rw(n) c_{n-1} c_{n+1}."""
    viols, eqs = [], []
    for n in range(lo, hi + 1):
        mid = lw(n) * c[n] * c[n]
        side = rw(n) * c[n - 1] * c[n + 1]
        if mid == side:
            eqs.append(n)
        elif (mid > side) if convex else (mid < side):
            viols.append(n)
    return tuple(viols), tuple(eqs)


def check_log_concavity(report, p: list[int], lo: int, hi: int) -> None:
    """p(n) fails log-concavity exactly at the odd n in 3..25 (DeSalvo-Pak)."""
    if (report.lo, report.hi) != (lo, hi):
        raise CheckError("log-concavity report covers the wrong window")
    want_v = tuple(range(3, 26, 2))
    if tuple(report.violations) != want_v or tuple(report.equalities):
        raise CheckError("log-concavity violations are not the odd n in 3..25")
    if report.minimal_threshold != 26:
        raise CheckError("log-concavity threshold is not 26")
    own = second_order_reference(p, lo, hi, lambda n: 1, lambda n: 1, False)
    if own != (tuple(report.violations), tuple(report.equalities)):
        raise CheckError("log-concavity report disagrees with the direct scan")


def check_bessenrodt_ono(report, p: list[int], max_sum: int) -> None:
    """Equalities exactly (2,6), (2,7), (3,4); every violation has a = 1
    or a + b <= 8.  For a, b >= 2 and a + b >= 10 the strict inequality
    is a theorem, so the direct scan need only cover the rest."""
    if (report.lo, report.hi) != (1, max_sum):
        raise CheckError("pair report covers the wrong window")
    if tuple(map(tuple, report.equalities)) != ((2, 6), (2, 7), (3, 4)):
        raise CheckError("pair equalities are not (2,6), (2,7), (3,4)")
    viols = tuple(map(tuple, report.violations))
    if any(not (a == 1 or a + b <= 8) for a, b in viols):
        raise CheckError("a pair violation has a > 1 and a + b > 8")
    own = tuple(
        (a, b)
        for a in range(1, max_sum // 2 + 1)
        for b in range(a, max_sum - a + 1)
        if (a == 1 or a + b <= 9) and p[a] * p[b] < p[a + b]
    )
    if viols != own:
        raise CheckError("pair violations disagree with the direct scan")
    want_threshold = max(a + b for a, b in own) + 1
    if report.minimal_threshold != want_threshold:
        raise CheckError("pair threshold disagrees with the violations")


def check_factorial_convexity(report, p: list[int], lo: int, hi: int) -> None:
    """(n! p_n)^2 <= (n-1)! p_{n-1} (n+1)! p_{n+1} holds exactly when
    n p_n^2 <= (n+1) p_{n-1} p_{n+1}; the scan must find no violation
    and agree with that reduced test."""
    if (report.lo, report.hi) != (lo, hi):
        raise CheckError("log-convexity report covers the wrong window")
    if tuple(report.violations):
        raise CheckError("factorial-scaled log-convexity has violations")
    own = second_order_reference(p, lo, hi, lambda n: n, lambda n: n + 1, True)
    if own != (tuple(report.violations), tuple(report.equalities)):
        raise CheckError("log-convexity report disagrees with the reduced test")


def comparisons_pairs(max_sum: int) -> int:
    return sum(max_sum - 2 * a + 1 for a in range(1, max_sum // 2 + 1))


# --- constants ---

_LINE = re.compile(r"^(?P<key>[^:]+): (?:residue )?(?P<val>\S+)$")


def parse_constants(text: str) -> dict:
    """`commtuple constants` text output as {key: string}; A[k] lines are
    keyed 'A[k]' with their exponent kept as 'A[k] exponent'."""
    out = {}
    for line in text.splitlines():
        m = _LINE.match(line)
        if not m:
            raise CheckError(f"unreadable constants line {line!r}")
        key = m["key"]
        if key.startswith("A[") and " exponent " in key:
            name, _, expo = key.partition(" exponent ")
            out[name + " exponent"] = expo
            key = name
        out[key] = m["val"]
    return out


def closed_forms(ell: int, dps: int = 70) -> dict:
    """b, C and A_1 (and for ell = 3 every A_k) from mpmath closed forms,
    as mpf at `dps` digits."""
    with mpmath.workdps(dps):
        pi, z3 = mpmath.pi, mpmath.zeta(3)
        if ell == 2:
            return {"b": Fraction(1), "C": 1 / (4 * mpmath.sqrt(3)),
                    "A[1]": pi * mpmath.sqrt(mpmath.mpf(2) / 3),
                    "K[1]": pi / mpmath.sqrt(6)}
        if ell == 3:
            third = mpmath.mpf(1) / 3
            return {
                "b": Fraction(47, 72),
                "A[1]": (3 * pi) ** (2 * third) * z3**third / 2,
                "A[2]": -pi ** (4 * third) / (4 * 3 ** (2 * third) * z3**third),
                "A[3]": -pi**2 / (288 * z3),
                "C": mpmath.exp(-mpmath.zeta(-1, 1, 1) / 2)
                * z3 ** (mpmath.mpf(11) / 72)
                / (2 ** (mpmath.mpf(11) / 24) * 3 ** (mpmath.mpf(47) / 72)
                   * pi ** (mpmath.mpf(11) / 72)),
            }
        c1 = mpmath.factorial(ell - 1)
        for j in range(2, ell + 1):
            c1 *= mpmath.zeta(j)
        lprime = mpmath.mpf(0)
        if ell == 4:
            lprime = mpmath.zeta(-2, 1, 1) / 24
        elif ell == 5:
            lprime = mpmath.zeta(-2, 1, 1) / 2880
        return {
            "b": Fraction(ell + 1, 2 * ell),
            "A[1]": mpmath.mpf(ell) / (ell - 1) * c1 ** (mpmath.mpf(1) / ell),
            "C": mpmath.exp(lprime) * c1 ** (mpmath.mpf(1) / (2 * ell))
            / mpmath.sqrt(2 * pi * ell),
            "K[1]": c1 ** (mpmath.mpf(1) / ell),
        }


def _mpf(text: str):
    try:
        return mpmath.mpf(text)
    except ValueError:
        raise CheckError(f"{text!r} is not a number") from None


def check_constants(parsed: dict, ell: int, refs: dict, rel_tol) -> None:
    """Printed constants of family ntuple-ell against their closed forms."""
    if parsed.get("family") != f"ntuple-{ell}":
        raise CheckError(f"constants output is not for ntuple-{ell}")
    with mpmath.workdps(70):
        tol = mpmath.mpf(rel_tol)
        for key, want in refs.items():
            if key not in parsed:
                raise CheckError(f"constants output lacks {key}")
            if isinstance(want, Fraction):
                if Fraction(parsed[key]) != want:
                    raise CheckError(f"{key} of ntuple-{ell} is not {want}")
                continue
            got = _mpf(parsed[key])
            if abs(got - want) > tol * max(1, abs(want)):
                raise CheckError(f"{key} of ntuple-{ell} misses its closed form")


def check_precision_agreement(short: dict, long: dict, rel_tol) -> None:
    """Constants at more digits reproduce those at fewer to the shorter
    width: same keys, exact fields equal, numbers within rel_tol."""
    if short.keys() != long.keys():
        raise CheckError("constants at two precisions list different fields")
    with mpmath.workdps(120):
        tol = mpmath.mpf(rel_tol)
        for key, s in short.items():
            a, b = long[key], s
            try:
                fa, fb = _mpf(a), _mpf(b)
            except CheckError:
                if a != b:
                    raise CheckError(f"{key} differs between precisions") from None
                continue
            if abs(fa - fb) > tol * max(1, abs(fa)):
                raise CheckError(f"{key} differs between precisions")


# --- numeric saddle point ---


def minus_phi_prime(f: list[int], z, dps: int = 40):
    """sum_m m f(m) e^{-mz} / (1 - e^{-mz}), summed until the terms past
    their peak fall below 10^-(dps+5) of the total; f must be long
    enough to reach that point."""
    with mpmath.workdps(dps):
        z = mpmath.mpf(z)
        u = mpmath.exp(-z)
        total = mpmath.mpf(0)
        um = mpmath.mpf(1)
        eps = mpmath.mpf(10) ** (-(dps + 5))
        for m in range(1, len(f)):
            um *= u
            term = m * f[m] * um / (1 - um)
            total += term
            if m * z > 10 and term < eps * total:
                return total
    raise CheckError("weight table too short for the saddle residual")


def check_saddle(rho, f: list[int], n: int, ks: list, ell: int) -> None:
    """rho solves -Phi'(rho) = n, and the K-series partial sums
    sum_{j<=J} K_j n^{-j/ell} approach it with an error that does not grow
    in J and falls strictly while the added K_j is not negligible."""
    with mpmath.workdps(40):
        rho = mpmath.mpf(rho)
        if not rho > 0:
            raise CheckError("saddle point is not positive")
        resid = abs(minus_phi_prime(f, rho) - n) / n
        if resid > mpmath.mpf(10) ** -25:
            raise CheckError(f"saddle point misses -Phi'(rho) = {n}")
        part = mpmath.mpf(0)
        err = abs(rho)
        for j, k in enumerate(ks, start=1):
            k = mpmath.mpf(k)
            if abs(k) < mpmath.mpf(10) ** -30:
                continue  # identically vanishing coefficient
            part += k * mpmath.mpf(n) ** (mpmath.mpf(-j) / ell)
            new = abs(rho - part)
            if not new < err:
                raise CheckError(f"K-series partial sum {j} does not approach rho")
            err = new

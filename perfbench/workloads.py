"""The benchmark's workloads.

Each workload makes its inputs and references from the seed, lists the
operations of one round (its fixed task list, in an order drawn from the
seed), and checks a round's outputs.  Every workload gives most of its
time to one layer of the program:

    tables-narrow  series kernel on values of a few hundred to a few
                   thousand bits, through `commtuple seq`
    tables-wide    series kernel on values of 2-6 thousand bits, plus
                   decimal output, through `commtuple seq`
    scans          inequalities on p(n) made by the benchmark itself
    analytic       lfunction, saddle, asymptotics and precision, through
                   `commtuple constants` and rho_numeric
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import checks

# Digits that both the 50- and 100-digit constants must reproduce.
CONSTANTS_REL_TOL = "1e-40"
PRECISION_REL_TOL = "1e-45"

# Code run in a fresh interpreter to time set-up in CPU seconds: the
# prelude makes the benchmark's own inputs before the clock starts, the
# body is the workload's one-off program set-up after the import.  The
# reference loop runs before and after, to rescale the times.
PROBE = """\
import sys, time
sys.path[:0] = [sys.argv[1], {here!r}]
from calibrate import reference_s
{prelude}
c0 = reference_s()
t0 = time.process_time()
import commtuple
import commtuple.cli
t1 = time.process_time()
{body}
t2 = time.process_time()
c1 = reference_s()
print(repr(t1 - t0), repr(t2 - t0), repr(c0), repr(c1))
"""


class OpFailed(Exception):
    """The program reported an error for one operation."""


def run_cli(argv: list[str], out):
    """`commtuple ARGV --out OUT` in process; returns OUT.  The version
    banner and any error line go to a buffer instead of the benchmark's
    stderr."""
    from commtuple import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([*argv, "--out", str(out)])
    if rc != 0:
        raise OpFailed(err.getvalue().strip().splitlines()[-1])
    return out


class Workload:
    name = ""
    probe_prelude = ""
    probe_body = ""
    probe_args: tuple = ()

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def probe_code(self) -> str:
        return PROBE.format(here=str(Path(__file__).resolve().parent),
                            prelude=self.probe_prelude, body=self.probe_body)

    def prepare(self) -> None:
        """One-off program set-up, done once per run after the import."""

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, outputs: dict) -> dict:
        raise NotImplementedError

    def ordered(self, ops: list) -> list:
        random.Random(self.seed).shuffle(ops)
        return ops


# --- exact tables through `commtuple seq` ---


class Tables(Workload):
    """Subclasses list their tables as (label, CLI family arguments,
    max-n, output format, weights f(0..max-n), exact prefix or None)."""

    def tables(self) -> tuple:
        raise NotImplementedError

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.specs = self.tables()
        self.refs = {label: checks.modular_sequence(f)
                     for label, _fam, _n, _fmt, f, _exact in self.specs}

    def ops(self):
        ops = []
        for label, fam, n_max, fmt, _f, _exact in self.specs:
            argv = ["seq", *fam, "--max-n", str(n_max), "--format", fmt]
            path = self.workdir / f"{label}.{fmt}"
            ops.append((label, lambda argv=argv, path=path: run_cli(argv, path)))
        return self.ordered(ops)

    def check(self, outputs):
        bits = out_bytes = steps = 0
        for label, _fam, n_max, fmt, _f, exact in self.specs:
            if label not in outputs:
                continue
            out_bytes += len(outputs[label])
            values = checks.parse_table(outputs[label].decode(), fmt)
            bits += checks.check_table(values, self.refs[label], exact)
            steps += n_max * (n_max + 1) // 2
        return {"series.table_bits": bits, "cli.out_bytes": out_bytes,
                "series.kernel_steps": steps}


def _ntuple(ell: int, n_max: int, fmt: str, exact=None):
    return (f"ntuple-{ell}", ("--family", "ntuple", "--ell", str(ell)), n_max, fmt,
            checks.subgroup_counts(ell - 1, n_max), exact)


class TablesNarrow(Tables):
    name = "tables-narrow"
    N = 3000

    def tables(self):
        n = self.N
        weights = checks.seeded_weights(self.seed, n)
        path = self.workdir / "weights.csv"
        path.write_text("n,value\n" + "".join(
            f"{i},{w}\n" for i, w in enumerate(weights, start=1)))
        return (
            _ntuple(2, n, "csv", checks.pentagonal(n)),
            _ntuple(3, n, "csv", checks.N3_PREFIX),
            ("power-1", ("--family", "power", "--d", "1"), n, "csv",
             list(range(n + 1)), None),
            ("table-file", ("--family", "table-file", "--table", str(path)), n, "csv",
             [0] + weights, None),
        )


class TablesWide(Tables):
    name = "tables-wide"

    def tables(self):
        return (_ntuple(5, 3000, "csv"), _ntuple(8, 2800, "json"))


# --- inequality scans on the benchmark's own p(n) ---


class Scans(Workload):
    name = "scans"
    CONCAVE_MAX = 10**4
    BO_MAX_SUM = 2000
    CONVEX_MAX = 3000
    probe_prelude = "p = [int(v) for v in open(sys.argv[2]).read().split()]"
    probe_body = ("P = commtuple.BigIntSeq(p, 0, 'partitions')\n"
                  f"Q = commtuple.BigIntSeq(p[:{CONVEX_MAX + 2}], 0, 'partitions')")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.p = checks.pentagonal(self.CONCAVE_MAX + 1)
        self.probe_args = (str(workdir / "p.txt"),)
        (workdir / "p.txt").write_text(" ".join(map(str, self.p)))

    def prepare(self):
        from commtuple import BigIntSeq

        self.seq = BigIntSeq(self.p, 0, "partitions")
        self.short = BigIntSeq(self.p[: self.CONVEX_MAX + 2], 0, "partitions")

    def ops(self):
        from commtuple import inequalities, series

        ops = []
        for jobs in (1, 2):
            ops.append((f"logconcave-j{jobs}", lambda j=jobs: inequalities.log_concavity_scan(
                self.seq, 2, self.CONCAVE_MAX, jobs=j)))
            ops.append((f"bo-j{jobs}", lambda j=jobs: inequalities.bessenrodt_ono_scan(
                self.seq, self.BO_MAX_SUM, jobs=j)))
            ops.append((f"logconvex-j{jobs}", lambda j=jobs: inequalities.log_convexity_scan(
                series.factorial_scaled(self.short), 2, self.CONVEX_MAX, jobs=j)))
        return self.ordered(ops)

    def check(self, outputs):
        p = self.p
        comparisons = 0
        for kind, check, count in (
            ("logconcave", lambda r: checks.check_log_concavity(r, p, 2, self.CONCAVE_MAX),
             self.CONCAVE_MAX - 1),
            ("bo", lambda r: checks.check_bessenrodt_ono(r, p, self.BO_MAX_SUM),
             checks.comparisons_pairs(self.BO_MAX_SUM)),
            ("logconvex", lambda r: checks.check_factorial_convexity(r, p, 2, self.CONVEX_MAX),
             self.CONVEX_MAX - 1),
        ):
            reports = [outputs[k] for k in (f"{kind}-j1", f"{kind}-j2") if k in outputs]
            for r in reports:
                check(r)
                comparisons += count
            if len(reports) == 2:
                checks.check_same_report(*reports)
        return {"inequalities.comparisons": comparisons}


# --- constants and the numeric saddle point ---


class Analytic(Workload):
    name = "analytic"
    ELLS = (2, 3, 4, 5, 8)
    LONG = 5  # the family also computed at 100 digits
    CONSTANTS = tuple((ell, 50) for ell in ELLS) + ((LONG, 100),)
    RHO = ((4, 10**3), (4, 10**4), (2, 10**2))
    probe_body = "commtuple.PrecisionContext(50)\ncommtuple.PrecisionContext(100)"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.refs = {ell: checks.closed_forms(ell) for ell in self.ELLS}
        # weight tables long enough for the saddle residual
        self.weights = {2: checks.subgroup_counts(1, 8000),
                        4: checks.subgroup_counts(3, 2000)}

    def ops(self):
        from commtuple import PrecisionContext, saddle, series

        ops = []
        for ell, digits in self.CONSTANTS:
            argv = ["constants", "--family", "ntuple", "--ell", str(ell),
                    "--digits", str(digits)]
            path = self.workdir / f"constants-{ell}-{digits}.txt"
            ops.append((f"constants-{ell}-{digits}",
                        lambda argv=argv, path=path: run_cli(argv, path)))
        for ell, n in self.RHO:
            ops.append((f"rho-{ell}-{n}", lambda ell=ell, n=n: saddle.rho_numeric(
                series.ntuple_exponent(ell, 8), n, PrecisionContext(50))))
        return self.ordered(ops)

    def check(self, outputs):
        parsed = {}
        out_bytes = 0
        for ell, digits in self.CONSTANTS:
            raw = outputs.get(f"constants-{ell}-{digits}")
            if raw is None:
                continue
            out_bytes += len(raw)
            parsed[ell, digits] = checks.parse_constants(raw.decode())
            checks.check_constants(parsed[ell, digits], ell, self.refs[ell],
                                   CONSTANTS_REL_TOL)
        if (self.LONG, 50) in parsed and (self.LONG, 100) in parsed:
            checks.check_precision_agreement(parsed[self.LONG, 50],
                                             parsed[self.LONG, 100], PRECISION_REL_TOL)
        for ell, n in self.RHO:
            rho = outputs.get(f"rho-{ell}-{n}")
            if rho is None or (ell, 50) not in parsed:
                continue
            consts = parsed[ell, 50]
            ks = [consts[f"K[{j}]"] for j in range(1, ell + 1) if f"K[{j}]" in consts]
            if ell == 2:
                ks.append("-0.25")  # -Phi'(z) = pi^2/(6 z^2) - 1/(2z) + O(1)
            checks.check_saddle(rho, self.weights[ell], n, ks, ell)
        return {"cli.out_bytes": out_bytes}


WORKLOADS = {w.name: w for w in (TablesNarrow, TablesWide, Scans, Analytic)}

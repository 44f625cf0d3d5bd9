"""Command-line front end over the library modules.

Deterministic by construction: identical arguments produce byte-identical
standard output.  The version banner and error messages go to standard
error; data never carries timestamps.

Subcommands
    seq         exact sequence values, n = 0..max-n
    gl          subgroup-count table g_ell(n), n = 1..max-n
    constants   L-series data and expansion constants for one family
    compare     exact vs asymptotic ratio table
    logconcave  log-concavity scan
    bo          Bessenrodt-Ono pair scan
    logconvex   log-convexity scan of the factorial-scaled counts
    oracle      independent slow routes (hnf, commuting, direct, pentagonal)
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import sys
from decimal import Decimal
from functools import cache

from . import __version__
from .arith import (
    PolygonalIndicator,
    Power,
    TableExponent,
    subgroup_count_table,
)
from .series import (
    BigIntSeq,
    expand_product,
    ntuple_exponent,
    ntuple_sequence,
    seq_to_csv,
    seq_to_json,
)

_FAMILY_FLAGS = {"ntuple": "ell", "power": "d", "polygonal": "k", "table-file": "table"}


def _parse_points(text: str) -> tuple[int, ...]:
    try:
        pts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad --points value {text!r}") from None
    if not pts or any(p < 1 for p in pts):
        raise ValueError("--points needs positive integers")
    return pts


# ASCII int() literals; decimal reads them exactly and, unlike int(),
# past CPython's 4300-digit limit on str-to-int conversion
_INT_LITERAL = re.compile(r" *[+-]?[0-9]+(?:_[0-9]+)*")


def _read_table(path: str) -> TableExponent:
    """CSV file of rows n,value (header optional); each n from 1 to N
    exactly once."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line == "n,value":
                continue
            n_str, _, v_str = line.partition(",")
            try:
                n = int(n_str)
                v = int(Decimal(v_str) if _INT_LITERAL.fullmatch(v_str) else v_str)
            except ValueError:
                raise ValueError(f"bad table row {line!r}") from None
            if n < 1:
                raise ValueError(f"table row {line!r}: n must be >= 1")
            if n in rows:
                raise ValueError(f"table row {line!r}: duplicate n = {n}")
            rows[n] = v
    if not rows:
        raise ValueError(f"no usable rows in {path}")
    top = max(rows)
    if set(rows) != set(range(1, top + 1)):
        raise ValueError("table rows must cover n = 1..N without gaps")
    return TableExponent(tuple(rows[n] for n in range(1, top + 1)))


def _least(args: argparse.Namespace, name: str, least: int) -> int:
    """The value of the flag held in args.name, which must be >= least."""
    value = getattr(args, name)
    if value < least:
        raise ValueError(f"--{name.replace('_', '-')} must be >= {least}")
    return value


def _exponent_spec(args: argparse.Namespace, n_hint: int):
    """The family's weights; its own flag must be given, and no other's."""
    for family, flag in _FAMILY_FLAGS.items():
        given = getattr(args, flag) is not None
        if family == args.family and not given:
            raise ValueError(f"--family {family} requires --{flag}")
        if family != args.family and given:
            raise ValueError(f"--family {args.family} does not take --{flag}")
    if args.family == "ntuple":
        return ntuple_exponent(_least(args, "ell", 1), n_hint)
    if args.family == "power":
        return Power(_least(args, "d", 0))
    if args.family == "polygonal":
        return PolygonalIndicator(_least(args, "k", 3))
    return _read_table(args.table)


def _family_sequence(args: argparse.Namespace, n_max: int) -> BigIntSeq:
    spec = _exponent_spec(args, n_max)  # checks the family's flags
    if args.family == "ntuple":
        return ntuple_sequence(args.ell, n_max)  # labelled ntuple-<ell>
    return expand_product(spec, n_max)


def _analytic_data(args: argparse.Namespace):
    """The working precision and the family's L-series data (N_1 = 1 has none)."""
    from .lfunction import lf_data_for
    from .precision import PrecisionContext

    _least(args, "digits", 50)
    if args.family == "ntuple" and args.ell is not None:
        if args.ell < 2:
            raise ValueError(f"{args.subcommand} requires --ell >= 2")
        if args.ell > 63:  # past the lengths the tests and goldens pin
            raise ValueError(f"{args.subcommand} requires --ell <= 63")
    spec = _exponent_spec(args, 1)
    if args.family == "power" and args.d > 4:
        raise ValueError(f"{args.subcommand} requires --d <= 4")
    ctx = PrecisionContext(args.digits)
    return ctx, lf_data_for(spec, ctx)


def _expansion(args: argparse.Namespace, data, ctx):
    """The family's expansion, cut to its first --terms terms."""
    import dataclasses

    from .asymptotics import expansion

    exp = expansion(data, ctx)
    if args.terms is not None:
        if not 1 <= args.terms <= len(exp.terms):
            raise ValueError(f"--terms must be in 1..{len(exp.terms)} here")
        exp = dataclasses.replace(exp, terms=exp.terms[: args.terms])
    return exp


def _fmt_frac(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _emit_seq(seq: BigIntSeq, fmt: str) -> str:
    return seq_to_json(seq) if fmt == "json" else seq_to_csv(seq)


def _cmd_seq(args: argparse.Namespace) -> str:
    return _emit_seq(_family_sequence(args, _least(args, "max_n", 0)), args.fmt)


def _cmd_gl(args: argparse.Namespace) -> str:
    _least(args, "max_n", 1)
    if args.ell < 1:
        raise ValueError("gl requires --ell >= 1")
    table = subgroup_count_table(args.ell, args.max_n)
    seq = BigIntSeq(tuple(table[1:]), 1, f"subgroups-rank-{args.ell}")
    return _emit_seq(seq, args.fmt)


def _cmd_constants(args: argparse.Namespace) -> str:
    ctx, data = _analytic_data(args)
    exp = _expansion(args, data, ctx)
    saddle = exp.saddle
    ks = saddle.K[: len(exp.terms)]
    if args.fmt == "json":
        import json

        obj = {
            "family": data.family,
            "alpha": _fmt_frac(data.alpha),
            "poles": [
                {"location": _fmt_frac(loc), "residue": ctx.to_str(res)}
                for loc, res in data.poles
            ],
            "l_at_zero": _fmt_frac(data.l_at_zero),
            "l_prime_at_zero": ctx.to_str(data.l_prime_at_zero),
            "b": _fmt_frac(exp.b),
            "C": ctx.to_str(exp.C),
            "A": [
                {"k": i + 1, "exponent": _fmt_frac(lam), "value": ctx.to_str(a)}
                for i, (a, lam) in enumerate(exp.terms)
            ],
            "K": [ctx.to_str(k) for k in ks],
        }
        if len(saddle.curve) == 3:
            obj["c"] = [ctx.to_str(c) for c, _, _ in saddle.curve]
        return json.dumps(obj, indent=2) + "\n"
    lines = [
        f"family: {data.family}",
        f"alpha: {_fmt_frac(data.alpha)}",
    ]
    for loc, res in data.poles:
        lines.append(f"pole {_fmt_frac(loc)}: residue {ctx.to_str(res)}")
    lines.append(f"L(0): {_fmt_frac(data.l_at_zero)}")
    lines.append(f"L'(0): {ctx.to_str(data.l_prime_at_zero)}")
    if len(saddle.curve) == 3:
        for i, (c, _, _) in enumerate(saddle.curve, 1):
            lines.append(f"c{i}: {ctx.to_str(c)}")
    lines.append(f"b: {_fmt_frac(exp.b)}")
    lines.append(f"C: {ctx.to_str(exp.C)}")
    for i, (a, lam) in enumerate(exp.terms):
        lines.append(f"A[{i + 1}] exponent {_fmt_frac(lam)}: {ctx.to_str(a)}")
    for j, k in enumerate(ks):
        lines.append(f"K[{j + 1}]: {ctx.to_str(k)}")
    return "\n".join(lines) + "\n"


def _cmd_compare(args: argparse.Namespace) -> str:
    from .asymptotics import compare_exact_asym

    points = _parse_points(args.points)
    ctx, data = _analytic_data(args)
    exp = _expansion(args, data, ctx)
    seq = _family_sequence(args, max(points))
    rows = compare_exact_asym(seq, exp, sorted(points), ctx)
    if args.fmt == "json":
        import json

        obj = {
            "family": exp.family,
            "rows": [
                {
                    "n": r.n,
                    "ratio": ctx.to_str(r.ratio),
                    "log_error": ctx.to_str(r.log_error),
                }
                for r in rows
            ],
        }
        return json.dumps(obj, indent=2) + "\n"
    if args.fmt == "csv":
        lines = ["n,ratio,log_error"]
        for r in rows:
            lines.append(f"{r.n},{ctx.to_str(r.ratio)},{ctx.to_str(r.log_error)}")
        return "\n".join(lines) + "\n"
    mp = ctx.mp
    lines = [f"family: {exp.family}", "n ratio log_error"]
    for r in rows:
        lines.append(f"{r.n} {mp.nstr(r.ratio, 15)} {mp.nstr(r.log_error, 8)}")
    return "\n".join(lines) + "\n"


def _scan_output(report, fmt: str) -> str:
    if fmt == "json":
        from .inequalities import report_to_json

        return report_to_json(report) + "\n"

    def show(item):
        return f"({item[0]},{item[1]})" if isinstance(item, tuple) else str(item)

    lines = [
        f"family: {report.family}",
        f"property: {report.property}",
        f"range: [{report.lo}, {report.hi}]",
        f"violations ({len(report.violations)}): "
        + " ".join(show(v) for v in report.violations),
        f"equalities ({len(report.equalities)}): "
        + " ".join(show(e) for e in report.equalities),
        f"minimal_threshold: {report.minimal_threshold}",
    ]
    return "\n".join(lines) + "\n"


def _scan_sequence(args: argparse.Namespace, least: int) -> BigIntSeq:
    """The family's sequence to --max-n + 1, for a scan window
    [--min-n, --max-n] whose --min-n must be >= least."""
    _least(args, "min_n", least)
    if args.max_n < args.min_n:
        raise ValueError("--max-n must be >= --min-n")
    return _family_sequence(args, args.max_n + 1)


def _cmd_logconcave(args: argparse.Namespace) -> str:
    from .inequalities import log_concavity_scan

    seq = _scan_sequence(args, 1)
    return _scan_output(log_concavity_scan(seq, args.min_n, args.max_n), args.fmt)


def _cmd_logconvex(args: argparse.Namespace) -> str:
    from .inequalities import _factorial_log_convexity_scan

    if args.family != "ntuple":
        raise ValueError("logconvex scans the factorial-scaled tuple counts; "
                         "use --family ntuple")
    seq = _scan_sequence(args, 2)
    report = _factorial_log_convexity_scan(seq, args.min_n, args.max_n)
    return _scan_output(report, args.fmt)


def _cmd_bo(args: argparse.Namespace) -> str:
    from .inequalities import bessenrodt_ono_scan

    seq = _family_sequence(args, _least(args, "max_sum", 2))
    return _scan_output(bessenrodt_ono_scan(seq, args.max_sum), args.fmt)


def _refuse_unread(args: argparse.Namespace, op: str, names) -> None:
    """Refuse the first flag held in args.name, name in names, that was
    given: oracle op does not read it."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"oracle {op} does not take --{name.replace('_', '-')}")


def _cmd_oracle(args: argparse.Namespace) -> str:
    from .oracles import (
        brute_force_commuting,
        expand_product_direct,
        hnf_subgroup_count,
        pentagonal_p,
    )

    op = args.oracle_op
    counts = op in ("hnf", "commuting")  # one count, else a sequence
    _refuse_unread(args, op, ("max_n",) if counts else ("n",))
    if op != "direct":  # no family: the counts read --ell, pentagonal nothing
        if args.family != "ntuple":
            raise ValueError(f"oracle {op} does not take --family")
        _refuse_unread(args, op,
                       ("d", "k", "table") if counts else ("ell", "d", "k", "table"))
    if counts:
        if args.ell is None or args.n is None:
            raise ValueError(f"oracle {op} requires --ell and --n")
        count, ell_max, n_lo, n_hi = {  # the ranges each oracle supports
            "hnf": (hnf_subgroup_count, 4, 1, 64),
            "commuting": (brute_force_commuting, 3, 0, 5),
        }[op]
        if not 1 <= args.ell <= ell_max:
            raise ValueError(f"oracle {op} requires --ell in 1..{ell_max}")
        if not n_lo <= args.n <= n_hi:
            raise ValueError(f"oracle {op} requires --n in {n_lo}..{n_hi}")
        return f"{count(args.ell, args.n)}\n"
    if args.max_n is None:
        raise ValueError(f"oracle {op} requires --max-n")
    _least(args, "max_n", 0)
    if op == "direct":
        if args.max_n > 500:
            raise ValueError("oracle direct requires --max-n <= 500")
        seq = expand_product_direct(_exponent_spec(args, args.max_n), args.max_n)
    else:
        seq = pentagonal_p(args.max_n)
    return _emit_seq(seq, args.fmt)


# each subcommand's handler and output formats, its default format first
_COMMANDS = {
    "seq": (_cmd_seq, ("csv", "json")),
    "gl": (_cmd_gl, ("csv", "json")),
    "constants": (_cmd_constants, ("text", "json")),
    "compare": (_cmd_compare, ("text", "json", "csv")),
    "logconcave": (_cmd_logconcave, ("json", "text")),
    "bo": (_cmd_bo, ("json", "text")),
    "logconvex": (_cmd_logconvex, ("json", "text")),
    "oracle": (_cmd_oracle, ("csv", "json")),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept, so callers
    that run main many times in one process build it once (parse_args
    leaves it unchanged).  Importing the module does not build it."""
    fam = argparse.ArgumentParser(add_help=False)
    fam.add_argument("--family", choices=_FAMILY_FLAGS, default="ntuple",
                     help="sequence family (default ntuple)")
    fam.add_argument("--ell", type=int, help="tuple length for --family ntuple")
    fam.add_argument("--d", type=int, help="exponent for --family power")
    fam.add_argument("--k", type=int, help="gonality for --family polygonal")
    fam.add_argument("--table", help="CSV weight table for --family table-file")

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--format", choices=("csv", "json", "text"), dest="fmt",
                    help="output format (per-command default)")
    io.add_argument("--out", help="write output to this file instead of stdout")

    prec = argparse.ArgumentParser(add_help=False)
    prec.add_argument("--digits", type=int, default=50,
                      help="working precision in decimal digits (default 50)")
    prec.add_argument("--terms", type=int,
                      help="number of expansion terms (default: all)")

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1,
                      help="accepted for compatibility, must be >= 1; scans "
                           "run serially and neither the result nor the "
                           "work depends on it (default 1)")

    parser = argparse.ArgumentParser(
        prog="commtuple",
        description="Exact sequences, saddle-point asymptotics, and "
                    "inequality scans for commuting-tuple counting functions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("seq", parents=[fam, io],
                       help="exact sequence values for n = 0..max-n")
    p.add_argument("--max-n", type=int, required=True)

    p = sub.add_parser("gl", parents=[io],
                       help="subgroup-count table g_ell(n) for n = 1..max-n")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)

    sub.add_parser("constants", parents=[fam, io, prec],
                   help="L-series data and expansion constants")

    p = sub.add_parser("compare", parents=[fam, io, prec],
                       help="exact vs asymptotic ratio table")
    p.add_argument("--points", default="100,1000,10000",
                   help="comma-separated n values (default 100,1000,10000)")

    p = sub.add_parser("logconcave", parents=[fam, io, jobs],
                       help="log-concavity scan")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--min-n", type=int, default=2)

    p = sub.add_parser("bo", parents=[fam, io, jobs],
                       help="Bessenrodt-Ono pair scan")
    p.add_argument("--max-sum", type=int, required=True)

    p = sub.add_parser("logconvex", parents=[fam, io, jobs],
                       help="log-convexity scan of n! N_ell(n)")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--min-n", type=int, default=2)

    p = sub.add_parser("oracle", parents=[fam, io],
                       help="independent brute-force routes")
    p.add_argument("oracle_op", choices=("hnf", "commuting", "direct", "pentagonal"))
    p.add_argument("--n", type=int)
    p.add_argument("--max-n", type=int)

    return parser


def _write_out(path: str, text: str) -> None:
    """Write text to path, following symlinks.

    A new path, or a regular file with one link, is replaced by a complete
    file written beside it, so a failed write leaves no partial file.
    Anything else (a device, a pipe, a hard-linked file), and a file whose
    directory or owner rules out a replacement, is written in place.
    """
    target = os.path.realpath(path)
    try:
        old = os.stat(target)
    except FileNotFoundError:
        _replace_file(target, text, None)
        return
    if stat.S_ISREG(old.st_mode) and old.st_nlink == 1:
        try:
            _replace_file(target, text, old)
            return
        except PermissionError:
            pass
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _replace_file(target: str, text: str, old) -> None:
    """Replace target by a new file in its directory holding text, with the
    mode and owner of old (the os.stat of the file it replaces, or None)."""
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if old is not None:
            os.chmod(tmp, stat.S_IMODE(old.st_mode))
            new = os.stat(tmp)
            if (new.st_uid, new.st_gid) != (old.st_uid, old.st_gid):
                os.chown(tmp, old.st_uid, old.st_gid)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    print(f"commtuple {__version__}", file=sys.stderr)
    try:
        if "jobs" in vars(args):  # the scans' --jobs, which they never read
            _least(args, "jobs", 1)
        handler, formats = _COMMANDS[args.subcommand]
        args.fmt = args.fmt or formats[0]
        if args.fmt not in formats:
            raise ValueError(f"unsupported format {args.fmt!r}")
        text = handler(args)
        if args.out:
            try:
                _write_out(args.out, text)
            except OSError as exc:
                # name the path given, not a temporary file beside it
                raise OSError(exc.errno, exc.strerror, args.out) from None
        else:
            sys.stdout.write(text)
    except (ValueError, ArithmeticError, OSError, IndexError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

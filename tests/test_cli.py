"""End-to-end command-line checks through main(argv), in process so output
capture stays exact; the analytic commands also run in a fresh interpreter,
where they import the analytic modules themselves."""

import contextlib
import io
import json
import os
import random
import stat
import subprocess
import sys
import threading
from decimal import Decimal
from math import comb
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commtuple import factorial_scaled, log_convexity_scan, ntuple_sequence
from commtuple import cli, series
from commtuple.cli import _scan_output, main


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_seq_rows(capsys):
    rc, out, err = run(capsys, "seq", "--family", "ntuple", "--ell", "3",
                       "--max-n", "4")
    assert rc == 0
    assert out == "n,value\n0,1\n1,1\n2,4\n3,8\n4,21\n"
    assert err.startswith("commtuple ")
    rc, out, _ = run(capsys, "seq", "--family", "power", "--d", "1",
                     "--max-n", "4")
    assert rc == 0
    assert out == "n,value\n0,1\n1,1\n2,3\n3,6\n4,13\n"
    rc, out, _ = run(capsys, "seq", "--family", "ntuple", "--ell", "1",
                     "--max-n", "3")
    assert rc == 0
    assert out == "n,value\n0,1\n1,1\n2,1\n3,1\n"


def test_gl_rows(capsys):
    rc, out, _ = run(capsys, "gl", "--ell", "3", "--max-n", "6")
    assert rc == 0
    assert out == "n,value\n1,1\n2,7\n3,13\n4,35\n5,31\n6,91\n"


def test_oracle_rows(capsys):
    rc, out, _ = run(capsys, "oracle", "hnf", "--ell", "3", "--n", "4")
    assert (rc, out) == (0, "35\n")
    rc, out, _ = run(capsys, "oracle", "commuting", "--ell", "3", "--n", "3")
    assert (rc, out) == (0, "48\n")
    rc, out, _ = run(capsys, "oracle", "pentagonal", "--max-n", "5")
    assert (rc, out) == (0, "n,value\n0,1\n1,1\n2,2\n3,3\n4,5\n5,7\n")


def test_constants_text(capsys):
    rc, out, _ = run(capsys, "constants", "--family", "ntuple", "--ell", "3")
    assert rc == 0
    lines = out.splitlines()
    assert "b: 47/72" in lines
    assert lines[0] == "family: ntuple-3"
    assert "L(0): 1/24" in lines
    rc, out, _ = run(capsys, "constants", "--family", "ntuple", "--ell", "2")
    a_line = next(l for l in out.splitlines() if l.startswith("A[1] "))
    assert a_line.startswith("A[1] exponent 1/2: ")
    with mpmath.workdps(60):
        want = mpmath.pi * mpmath.sqrt(mpmath.mpf(2) / 3)
        got = mpmath.mpf(a_line.split(": ")[1])
        assert abs(got - want) < mpmath.mpf("1e-40")


def test_constants_json(capsys):
    rc, out, _ = run(capsys, "constants", "--family", "ntuple", "--ell", "4",
                     "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["family"] == "ntuple-4"
    assert obj["b"] == "5/8"
    assert obj["l_at_zero"] == "0"
    assert [p["location"] for p in obj["poles"]] == ["3", "2", "1"]
    assert len(obj["A"]) == 4
    assert obj["A"][0]["exponent"] == "3/4"
    assert len(obj["K"]) == 4
    assert len(obj["c"]) == 3
    assert abs(float(obj["C"]) - 0.2740954372920021) < 1e-12
    assert abs(float(obj["c"][0]) - 12.8404946307) < 1e-9


def test_constants_computes_saddle_series_once(capsys, monkeypatch):
    from commtuple import PrecisionContext, asymptotics, lf_data_ntuple
    from commtuple.oracles import curve_saddle_series

    ctx = PrecisionContext(50)
    curve = asymptotics.saddle_series(lf_data_ntuple(5, ctx), ctx).curve
    alone = curve_saddle_series(curve, 5, ctx)
    calls = []
    real = asymptotics.saddle_series

    def counted(data, ctx):
        calls.append(data.family)
        return real(data, ctx)

    monkeypatch.setattr(asymptotics, "saddle_series", counted)
    for extra, n_k in (((), 5), (("--terms", "3"), 3), (("--terms", "5"), 5)):
        calls.clear()
        rc, out, _ = run(capsys, "constants", "--family", "ntuple", "--ell", "5",
                         *extra)
        assert rc == 0
        # one K-series, whatever --terms cuts the expansion to
        assert calls == ["ntuple-5"]
        k_lines = [l for l in out.splitlines() if l.startswith("K[")]
        assert len(k_lines) == n_k
        # K_5 vanishes identically; the others print as the Newton oracle's do
        for j, line in enumerate(k_lines[:4]):
            assert line == f"K[{j + 1}]: {ctx.to_str(alone[j])}"


@pytest.mark.parametrize("argv", [
    ("constants", "--ell", "5"),
    ("compare", "--ell", "3", "--points", "100,1000"),
])
def test_analytic_commands_in_fresh_interpreter(capsys, argv):
    import commtuple

    env = dict(os.environ, PYTHONPATH=str(Path(commtuple.__file__).parent.parent))
    res = subprocess.run([sys.executable, "-m", "commtuple", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and out
    assert (res.returncode, res.stdout) == (0, out)


def test_determinism_and_jobs(capsys):
    _, first, _ = run(capsys, "constants", "--family", "ntuple", "--ell", "5")
    _, second, _ = run(capsys, "constants", "--family", "ntuple", "--ell", "5")
    assert first == second
    _, serial, _ = run(capsys, "bo", "--family", "ntuple", "--ell", "2",
                       "--max-sum", "60")
    for jobs in ("2", "4"):
        _, par, _ = run(capsys, "bo", "--family", "ntuple", "--ell", "2",
                        "--max-sum", "60", "--jobs", jobs)
        assert par == serial
    _, lc1, _ = run(capsys, "logconcave", "--family", "ntuple", "--ell", "2",
                    "--max-n", "400")
    _, lc3, _ = run(capsys, "logconcave", "--family", "ntuple", "--ell", "2",
                    "--max-n", "400", "--jobs", "3")
    assert lc1 == lc3


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    rc, out, _ = run(capsys, "seq", "--family", "ntuple", "--ell", "2",
                     "--max-n", "6", "--out", str(target))
    assert rc == 0
    assert out == ""
    on_disk = target.read_text(encoding="utf-8")
    _, direct, _ = run(capsys, "seq", "--family", "ntuple", "--ell", "2",
                       "--max-n", "6")
    assert on_disk == direct


def test_error_paths(capsys):
    rc, out, err = run(capsys, "seq", "--family", "ntuple", "--max-n", "4")
    assert rc == 1
    assert out == ""
    assert "error:" in err
    rc, _, err = run(capsys, "constants", "--family", "polygonal", "--k", "5")
    assert rc == 1
    assert "error:" in err
    rc, _, err = run(capsys, "constants", "--family", "ntuple", "--ell", "3",
                     "--format", "csv")
    assert rc == 1
    rc, _, err = run(capsys, "seq", "--family", "table-file", "--table",
                     "/nonexistent/weights.csv", "--max-n", "3")
    assert rc == 1
    with pytest.raises(SystemExit) as exc:
        main(["seq", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_compare_formats(capsys):
    rc, out, _ = run(capsys, "compare", "--family", "ntuple", "--ell", "2",
                     "--points", "50,100", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,ratio,log_error"
    assert len(lines) == 3
    n, ratio, _ = lines[2].split(",")
    assert n == "100"
    assert 0.9 < float(ratio) < 1.0
    rc, out, _ = run(capsys, "compare", "--family", "ntuple", "--ell", "2",
                     "--points", "100", "--format", "json")
    obj = json.loads(out)
    assert obj["family"] == "ntuple-2"
    assert [r["n"] for r in obj["rows"]] == [100]


def test_table_file_matches_builtin(tmp_path, capsys):
    path = tmp_path / "weights.csv"
    path.write_text("n,value\n" + "".join(f"{n},1\n" for n in range(1, 9)),
                    encoding="utf-8")
    _, from_table, _ = run(capsys, "seq", "--family", "table-file", "--table",
                           str(path), "--max-n", "8")
    _, builtin, _ = run(capsys, "seq", "--family", "ntuple", "--ell", "2",
                        "--max-n", "8")
    assert from_table == builtin


def test_scan_outputs(capsys):
    rc, out, _ = run(capsys, "logconcave", "--family", "ntuple", "--ell", "2",
                     "--max-n", "100", "--format", "text")
    assert rc == 0
    lines = out.splitlines()
    assert "property: log-concavity" in lines
    assert any(l.startswith("violations (12): 3 5 7") for l in lines)
    assert "minimal_threshold: 26" in lines
    rc, out, _ = run(capsys, "logconvex", "--family", "ntuple", "--ell", "2",
                     "--max-n", "50")
    obj = json.loads(out)
    assert obj["family"] == "ntuple-2-scaled"
    assert obj["property"] == "log-convexity"
    assert obj["violations"] == []


def test_bo_equalities(capsys):
    rc, out, _ = run(capsys, "bo", "--family", "ntuple", "--ell", "2",
                     "--max-sum", "200")
    assert rc == 0
    obj = json.loads(out)
    assert obj["equalities"] == [[2, 6], [2, 7], [3, 4]]
    # restricted to a, b > 1 with a + b > 8 the only equality pair is (2, 7)
    deep = [tuple(p) for p in obj["equalities"] if p[0] > 1 and sum(p) > 8]
    assert deep == [(2, 7)]
    assert all(a == 1 or a + b <= 8 for a, b in obj["violations"])


def test_jobs_below_one_rejected(capsys):
    for cmd in (["logconcave", "--max-n", "30"], ["bo", "--max-sum", "30"],
                ["logconvex", "--max-n", "30"]):
        for jobs in ("0", "-3"):
            rc, out, err = run(capsys, *cmd, "--family", "ntuple", "--ell", "2",
                               "--jobs", jobs)
            assert rc == 1
            assert out == ""
            assert err.splitlines()[-1] == "error: --jobs must be >= 1"


def test_logconvex_min_n_below_two_rejected(capsys):
    for min_n in ("-5", "0", "1"):
        rc, out, err = run(capsys, "logconvex", "--family", "ntuple", "--ell", "2",
                           "--min-n", min_n, "--max-n", "30")
        assert (rc, out) == (1, "")
        assert err.splitlines()[1:] == ["error: --min-n must be >= 2"]


def test_logconcave_min_n_below_one_rejected(capsys):
    for min_n in ("0", "-3"):
        rc, out, err = run(capsys, "logconcave", "--family", "ntuple", "--ell", "2",
                           "--min-n", min_n, "--max-n", "30")
        assert (rc, out) == (1, "")
        assert err.splitlines()[1:] == ["error: --min-n must be >= 1"]


def test_out_failures(tmp_path, capsys):
    missing = tmp_path / "nodir" / "x.csv"
    rc, out, err = run(capsys, "seq", "--ell", "2", "--max-n", "5",
                       "--out", str(missing))
    assert rc == 1
    assert out == ""
    # the error names the path given, not the temporary file beside it
    assert err.splitlines()[1:] == [
        f"error: [Errno 2] No such file or directory: {str(missing)!r}"]
    assert not missing.parent.exists()
    # a directory cannot be replaced by the output file: no partial or
    # temporary file is left beside it
    target = tmp_path / "taken"
    target.mkdir()
    rc, _, err = run(capsys, "seq", "--ell", "2", "--max-n", "5",
                     "--out", str(target))
    assert rc == 1
    assert err.splitlines()[-1].startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    # a failed command leaves an existing output file as it was
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n", encoding="utf-8")
    rc, _, _ = run(capsys, "seq", "--max-n", "5", "--out", str(kept))
    assert rc == 1
    assert kept.read_text(encoding="utf-8") == "old\n"
    rc, _, _ = run(capsys, "seq", "--ell", "2", "--max-n", "2", "--out", str(kept))
    assert rc == 0
    assert kept.read_text(encoding="utf-8") == "n,value\n0,1\n1,1\n2,2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "taken"]


def test_sequence_commands_refuse_text_format(capsys):
    for cmd in (["seq", "--ell", "2", "--max-n", "5"], ["gl", "--ell", "2", "--max-n", "5"],
                ["oracle", "direct", "--ell", "2", "--max-n", "5"],
                ["oracle", "pentagonal", "--max-n", "5"],
                ["oracle", "hnf", "--ell", "2", "--n", "5"],
                ["oracle", "commuting", "--ell", "2", "--n", "3"]):
        rc, out, err = run(capsys, *cmd, "--format", "text")
        assert (rc, out) == (1, "")
        assert err.splitlines()[1:] == ["error: unsupported format 'text'"]


@pytest.mark.parametrize("command, fmt", [
    ("seq --ell 5 --max-n 6000", "text"),
    ("logconcave --ell 5 --max-n 6000", "csv"),
    ("bo --ell 5 --max-sum 6000", "csv"),
    ("logconvex --ell 5 --max-n 6000", "csv"),
])
def test_bad_format_refused_before_any_work(capsys, monkeypatch, command, fmt):
    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(series, "_run_kernel", refuse)
    rc, out, err = run(capsys, *command.split(), "--format", fmt)
    assert (rc, out) == (1, "")
    assert err.splitlines()[1:] == [f"error: unsupported format {fmt!r}"]


def test_every_subcommand_has_formats():
    # main looks each subcommand up in _FORMATS and catches no KeyError
    assert set(cli._FORMATS) == set(cli._DISPATCH)


def test_analytic_commands_refuse_ell_below_two(capsys):
    for cmd in ("constants", "compare"):
        for ell in ("1", "0"):
            rc, out, err = run(capsys, cmd, "--ell", ell)
            assert (rc, out) == (1, "")
            assert err.splitlines()[1:] == [f"error: {cmd} requires --ell >= 2"]


@pytest.mark.parametrize("command, error", [
    ("oracle pentagonal --max-n -1", "--max-n must be >= 0"),
    ("oracle direct --ell 2 --max-n -1", "--max-n must be >= 0"),
    ("constants --ell 2 --digits 0", "--digits must be >= 50"),
    ("compare --ell 2 --digits 49 --points 10", "--digits must be >= 50"),
    ("seq --ell 0 --max-n 5", "--ell must be >= 1"),
    ("logconcave --ell 0 --max-n 5", "--ell must be >= 1"),
    ("seq --family power --d -1 --max-n 5", "--d must be >= 0"),
    ("seq --family polygonal --k 2 --max-n 5", "--k must be >= 3"),
    ("constants --family power --d 5", "constants requires --d <= 4"),
    ("compare --family power --d 7 --points 10", "compare requires --d <= 4"),
    ("constants --ell 64", "constants requires --ell <= 63"),
    ("compare --ell 64 --points 10", "compare requires --ell <= 63"),
    ("oracle hnf --ell 9 --n 3", "oracle hnf requires --ell in 1..4"),
    ("oracle hnf --ell 3 --n 65", "oracle hnf requires --n in 1..64"),
    ("oracle commuting --ell 4 --n 2", "oracle commuting requires --ell in 1..3"),
    ("oracle commuting --ell 2 --n 6", "oracle commuting requires --n in 0..5"),
    ("oracle direct --ell 2 --max-n 600", "oracle direct requires --max-n <= 500"),
    ("seq --ell 2 --max-n 3 --d 5", "--family ntuple does not take --d"),
    ("seq --family power --d 1 --ell 4 --max-n 3",
     "--family power does not take --ell"),
    ("logconcave --family polygonal --k 5 --table w.csv --max-n 3",
     "--family polygonal does not take --table"),
    ("constants --family table-file --table w.csv --k 4",
     "--family table-file does not take --k"),
    ("oracle direct --ell 2 --k 4 --max-n 3", "--family ntuple does not take --k"),
    ("seq --family power --max-n 3", "--family power requires --d"),
    ("oracle pentagonal --max-n 3 --n 7", "oracle pentagonal does not take --n"),
    ("oracle direct --ell 2 --max-n 3 --n 9", "oracle direct does not take --n"),
    ("oracle hnf --ell 2 --n 4 --max-n 9", "oracle hnf does not take --max-n"),
    ("oracle commuting --ell 2 --n 3 --max-n 1",
     "oracle commuting does not take --max-n"),
    ("oracle pentagonal --max-n 3 --family power --d 2",
     "oracle pentagonal does not take --family"),
    ("oracle pentagonal --max-n 3 --ell 2", "oracle pentagonal does not take --ell"),
    ("oracle hnf --ell 2 --n 4 --d 3", "oracle hnf does not take --d"),
    ("oracle hnf --ell 2 --n 4 --k 5", "oracle hnf does not take --k"),
    ("oracle commuting --ell 2 --n 3 --table w.csv",
     "oracle commuting does not take --table"),
    ("oracle commuting --ell 2 --n 3 --family polygonal --k 4",
     "oracle commuting does not take --family"),
], ids=["pentagonal-max-n", "direct-max-n", "constants-digits", "compare-digits",
        "seq-ell", "logconcave-ell", "seq-d", "seq-k", "constants-d", "compare-d",
        "constants-ell64", "compare-ell64",
        "hnf-ell", "hnf-n", "commuting-ell", "commuting-n", "direct-max-n-500",
        "ntuple-d", "power-ell", "polygonal-table", "table-file-k", "direct-k",
        "power-no-d", "pentagonal-n", "direct-n", "hnf-max-n", "commuting-max-n",
        "pentagonal-family", "pentagonal-ell", "hnf-d", "hnf-k", "commuting-table",
        "commuting-family"])
def test_refusals_name_the_flag(capsys, command, error):
    rc, out, err = run(capsys, *command.split())
    assert (rc, out) == (1, "")
    assert err.splitlines()[1:] == [f"error: {error}"]


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    def exhausted(ell, n_max):
        raise MemoryError

    monkeypatch.setattr(cli, "ntuple_sequence", exhausted)
    rc, out, err = run(capsys, "seq", "--ell", "2", "--max-n", "10")
    assert (rc, out) == (1, "")
    assert err.splitlines()[1:] == ["error: MemoryError"]


def test_out_targets_kept(tmp_path, capsys):
    want = "n,value\n0,1\n1,1\n2,2\n"
    args = ("seq", "--ell", "2", "--max-n", "2", "--out")
    # a symlink is written through, to an existing or a new target; an
    # existing file keeps its mode
    real = tmp_path / "real.csv"
    real.write_text("old\n", encoding="utf-8")
    real.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    dangling = tmp_path / "dangling.csv"
    dangling.symlink_to(tmp_path / "new.csv")
    for path in (link, dangling):
        rc, out, _ = run(capsys, *args, str(path))
        assert (rc, out) == (0, "")
        assert path.is_symlink()
        assert path.read_text(encoding="utf-8") == want
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    # a hard-linked file is written in place, so every name sees the text
    twin = tmp_path / "twin.csv"
    os.link(real, twin)
    rc, _, _ = run(capsys, "seq", "--ell", "2", "--max-n", "3", "--out", str(twin))
    assert rc == 0
    assert real.read_text(encoding="utf-8") == want + "3,3\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dangling.csv", "link.csv", "new.csv", "real.csv", "twin.csv"]
    # a pipe is written into, not replaced by a regular file
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(
        target=lambda: got.append(pipe.read_text(encoding="utf-8")), daemon=True)
    reader.start()
    rc, _, _ = run(capsys, *args, str(pipe))
    reader.join(timeout=30)
    assert rc == 0
    assert got == [want]
    assert stat.S_ISFIFO(os.lstat(pipe).st_mode)


@pytest.mark.parametrize("rows", [
    "1,1\n1,5\n2,0\n3,0\n",
    "n,value\n0,1\n1,1\n2,1\n",
    "1,1\n-2,1\n2,1\n",
])
def test_table_file_bad_rows(tmp_path, capsys, rows):
    path = tmp_path / "weights.csv"
    path.write_text(rows, encoding="utf-8")
    rc, out, err = run(capsys, "seq", "--family", "table-file", "--table",
                       str(path), "--max-n", "3")
    assert rc == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error: table row ")


def test_seq_max_n_zero(capsys):
    for family in (["--ell", "3"], ["--family", "power", "--d", "1"]):
        rc, out, _ = run(capsys, "seq", *family, "--max-n", "0")
        assert (rc, out) == (0, "n,value\n0,1\n")
    rc, _, err = run(capsys, "seq", "--ell", "3", "--max-n", "-1")
    assert rc == 1
    assert err.splitlines()[-1] == "error: --max-n must be >= 0"


@pytest.mark.parametrize("ell,max_n", [(2, 300), (3, 120)])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_logconvex_matches_scaled_scan(capsys, ell, max_n, fmt):
    rc, out, _ = run(capsys, "logconvex", "--ell", str(ell), "--max-n", str(max_n),
                     "--format", fmt)
    assert rc == 0
    scaled = factorial_scaled(ntuple_sequence(ell, max_n + 1))
    assert out == _scan_output(log_convexity_scan(scaled, 2, max_n), fmt)


def test_seq_values_past_str_digit_limit(tmp_path, capsys):
    # f(1) = 10^100, f(n) = 0 for n > 1 gives p(n) = binom(10^100 + n - 1, n), which has
    # about 4940 digits at n = 50, past CPython's 4300-digit int/str limit
    path = tmp_path / "weights.csv"
    path.write_text(f"1,1{'0' * 100}\n" + "".join(f"{n},0\n" for n in range(2, 51)),
                    encoding="utf-8")
    want = comb(10**100 + 49, 50)
    assert len(str(Decimal(want))) > 4300
    rc, out, err = run(capsys, "seq", "--family", "table-file", "--table",
                       str(path), "--max-n", "50")
    assert (rc, err.count("error")) == (0, 0)
    last = out.splitlines()[-1]
    assert last.startswith("50,") and int(Decimal(last[3:])) == want
    rc, out, _ = run(capsys, "seq", "--family", "table-file", "--table",
                     str(path), "--max-n", "50", "--format", "json")
    assert rc == 0 and int(Decimal(json.loads(out)[-1])) == want
    # narrower values print as before
    rc, out, _ = run(capsys, "seq", "--family", "table-file", "--table",
                     str(path), "--max-n", "3")
    assert out.splitlines()[-1] == f"3,{comb(10**100 + 2, 3)}"


def test_table_row_past_str_digit_limit(tmp_path, capsys):
    big = 7 * 10**4400 + 3  # 4401 digits
    digits = str(Decimal(big))
    path = tmp_path / "weights.csv"
    path.write_text(f"n,value\n1, {digits}\n2,0\n", encoding="utf-8")
    rc, out, err = run(capsys, "seq", "--family", "table-file", "--table",
                       str(path), "--max-n", "2")
    assert (rc, err.count("error")) == (0, 0)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0] == ["0", "1"] and rows[1] == ["1", digits]
    assert int(Decimal(rows[2][1])) == big * (big + 1) // 2
    # a literal that int() rejects for its syntax stays a bad row
    path.write_text(f"1,{digits}e0\n2,0\n", encoding="utf-8")
    rc, _, err = run(capsys, "seq", "--family", "table-file", "--table",
                     str(path), "--max-n", "2")
    assert rc == 1 and "bad table row" in err


# Flags each subcommand takes (--out aside): the ones most runs need to
# get past argparse and the family lookup, then the others.  The values
# drawn are small ranges around each bound, so no table passes a few
# hundred rows; compare always keeps --points, whose default reaches 10^4.
GOLDEN = Path(__file__).with_name("golden")
_FAMILY_IO_FLAGS = ("--family", "--d", "--k", "--table", "--format")
_SUBCOMMAND_FLAGS = {
    "seq": (("--ell", "--max-n"), _FAMILY_IO_FLAGS),
    "gl": (("--ell", "--max-n"), ("--format",)),
    "constants": (("--ell",), _FAMILY_IO_FLAGS + ("--digits", "--terms")),
    "compare": (("--ell", "--points"), _FAMILY_IO_FLAGS + ("--digits", "--terms")),
    "logconcave": (("--ell", "--max-n"), _FAMILY_IO_FLAGS + ("--min-n", "--jobs")),
    "bo": (("--ell", "--max-sum"), _FAMILY_IO_FLAGS + ("--jobs",)),
    "logconvex": (("--ell", "--max-n"), _FAMILY_IO_FLAGS + ("--min-n", "--jobs")),
    "oracle": ((), _FAMILY_IO_FLAGS + ("--ell", "--n", "--max-n")),
}
_FLAG_VALUES = {
    "--family": st.sampled_from(["ntuple", "power", "polygonal", "table-file", "dual"]),
    "--ell": st.integers(-1, 5),
    "--d": st.integers(-1, 5),
    "--k": st.integers(1, 8),
    "--table": st.sampled_from([GOLDEN / "weights.csv", GOLDEN / "missing.csv",
                                GOLDEN, GOLDEN / "oracle-hnf.txt"]),
    "--format": st.sampled_from(["csv", "json", "text", "yaml"]),
    "--max-n": st.integers(-2, 60),
    "--min-n": st.integers(-1, 8),
    "--max-sum": st.integers(-1, 40),
    "--digits": st.sampled_from([0, 49, 50, 60]),
    "--terms": st.integers(-1, 6),
    "--points": st.sampled_from(["5,30", "1", "60,2", "12", "0", "x", "3,,4"]),
    "--jobs": st.integers(-1, 3),
    "--n": st.integers(-1, 5),
}


@st.composite
def argvs(draw):
    """A subcommand and its flags; one run in ten each drops a flag, adds
    one the subcommand does not take, or gives a value that is no number."""
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)))
    argv = [command]
    if command == "oracle":
        argv.append(draw(st.sampled_from(["hnf", "commuting", "direct", "pentagonal",
                                          "brute"])))
    needed, others = _SUBCOMMAND_FLAGS[command]
    flags = [*needed, *draw(st.lists(st.sampled_from(others), unique=True))]
    if draw(st.integers(0, 9)) == 0 and len(flags) > 1:
        flags.remove(draw(st.sampled_from([f for f in flags if f != "--points"])))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(_FLAG_VALUES))))
    for flag in flags:
        argv += [flag, str(draw(_FLAG_VALUES[flag]))]
    if draw(st.integers(0, 9)) == 0 and len(argv) > 2:
        argv[-1] = "x"
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_any_argv_ends_in_a_result_or_one_error_line(argv):
    run_kernel = series._run_kernel

    def bounded(c, n_max):
        assert n_max <= 300, "a table past a few hundred rows"
        return run_kernel(c, n_max)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(series, "_run_kernel", bounded), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 2  # argparse refused argv
            return
    lines = err.getvalue().splitlines()
    assert lines[0] == f"commtuple {cli.__version__}"
    if rc == 0:
        assert lines[1:] == [] and out.getvalue()
    else:
        assert rc == 1 and out.getvalue() == ""
        assert len(lines) == 2 and lines[1].startswith("error: ")


# Byte-identity check: each command's exit status, stderr and stdout are
# pinned in tests/golden/<name>.txt.  "{golden}" in an argument stands for
# that directory.  After a deliberate output change, rewrite the files with
#   PYTHONPATH=src python tests/test_cli.py
GOLDEN_COMMANDS = {
    "constants-ell2": "constants --ell 2",
    "constants-ell3": "constants --ell 3",
    "constants-ell5-digits100": "constants --ell 5 --digits 100",
    "constants-ell5-terms3": "constants --ell 5 --terms 3",
    "constants-ell7": "constants --ell 7",
    "constants-ell8": "constants --ell 8",
    "constants-ell12": "constants --ell 12",
    "constants-ell3-digits400": "constants --ell 3 --digits 400",
    "constants-ell20-digits200": "constants --ell 20 --digits 200",
    "constants-ell63-json": "constants --ell 63 --format json",
    "constants-power0": "constants --family power --d 0",
    "constants-power1-json": "constants --family power --d 1 --format json",
    "constants-power2-digits120": "constants --family power --d 2 --digits 120",
    "constants-power3-json": "constants --family power --d 3 --format json",
    "constants-power3-digits400": "constants --family power --d 3 --digits 400",
    "constants-power4-json": "constants --family power --d 4 --format json",
    "compare-ell3": "compare --ell 3 --points 50,200,1000",
    "compare-ell3-terms1": "compare --ell 3 --terms 1 --points 50,200,1000",
    "compare-ell8": "compare --ell 8 --points 100,1000",
    "compare-ell6-digits100": "compare --ell 6 --digits 100 --points 100,1000",
    "seq-power2": "seq --family power --d 2 --max-n 40",
    "seq-polygonal5-json": "seq --family polygonal --k 5 --max-n 40 --format json",
    "seq-table": "seq --family table-file --table {golden}/weights.csv --max-n 20",
    "gl-ell4": "gl --ell 4 --max-n 30",
    "bo-power1-text": "bo --family power --d 1 --max-sum 30 --format text",
    "bo-table": "bo --family table-file --table {golden}/weights.csv --max-sum 20",
    "logconcave-polygonal3-text":
        "logconcave --family polygonal --k 3 --max-n 60 --format text",
    "logconcave-power2": "logconcave --family power --d 2 --max-n 40",
    "logconcave-table-text":
        "logconcave --family table-file --table {golden}/weights.csv --max-n 19 "
        "--format text",
    "logconvex-ell3-text": "logconvex --ell 3 --max-n 60 --format text",
    "oracle-direct": "oracle direct --family polygonal --k 4 --max-n 25",
    "oracle-pentagonal": "oracle pentagonal --max-n 30",
    "oracle-hnf": "oracle hnf --ell 3 --n 12",
    "refuse-constants-ell1": "constants --ell 1",
    "refuse-constants-ell64": "constants --ell 64",
    "refuse-constants-polygonal": "constants --family polygonal --k 3",
    "refuse-logconvex-power": "logconvex --family power --d 1 --max-n 20",
    "refuse-table-too-short":
        "seq --family table-file --table {golden}/weights.csv --max-n 21",
}


def _golden_text(command: str) -> str:
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in command.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return (f"$ commtuple {command}\nexit status: {rc}\n"
            f"--- stderr\n{err.getvalue()}--- stdout\n{out.getvalue()}")


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name):
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _golden_text(GOLDEN_COMMANDS[name]) == want


def test_parser_keeps_no_state():
    # main builds its parser once per process and reuses it: every golden
    # command, run twice in a shuffled order with an argparse refusal and
    # an error: refusal between the two runs, keeps its pinned bytes
    first, second = sorted(GOLDEN_COMMANDS), sorted(GOLDEN_COMMANDS)
    random.Random(2101).shuffle(first)
    random.Random(2102).shuffle(second)
    for name in first + ["argparse-refusal", "error-refusal"] + second:
        if name == "argparse-refusal":
            with pytest.raises(SystemExit) as refused:
                _golden_text("constants --ell x")
            assert refused.value.code == 2
        elif name == "error-refusal":
            text = _golden_text("seq --ell 2 --max-n 5 --format text")
            assert "exit status: 1\n" in text and "\nerror: " in text
        else:
            want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
            assert _golden_text(GOLDEN_COMMANDS[name]) == want, name
    assert cli._build_parser.cache_info().currsize == 1


if __name__ == "__main__":
    for name, command in GOLDEN_COMMANDS.items():
        (GOLDEN / f"{name}.txt").write_text(_golden_text(command),
                                            encoding="utf-8", newline="\n")

"""commtuple benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  A run times set-up in fresh interpreters, makes the workload's
inputs and references from the seed, then repeats the workload's task
list in whole rounds for about S seconds, checking every round's
outputs.  Times are CPU seconds rescaled to a reference CPU speed by the
loop in calibrate.py, which runs around every timed operation.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it gives
the run's provenance.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 the calls into each module are wrapped and timed
and the metrics are the per-layer ones.  Run records and span traces
are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
# metric names and units, in the order BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
from spans import Tracer, layer_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def measure_setup(workload) -> tuple[float, float]:
    """Median (import, import + one-off set-up) CPU seconds over fresh
    interpreters, as a user pays them on every run of the CLI, each
    rescaled to the reference speed."""
    imports, setups = [], []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, "-c", workload.probe_code(), str(SRC),
             *workload.probe_args],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        t_import, t_setup, c0, c1 = map(float, res.stdout.split())
        imports.append(calibrate.scale(t_import, c0, c1))
        setups.append(calibrate.scale(t_setup, c0, c1))
    return statistics.median(imports), statistics.median(setups)


def reset_caches() -> None:
    """Empty the program's module-level caches, so each round starts them
    cold as a fresh `commtuple` process does."""
    from commtuple import precision, saddle

    table_cache = getattr(saddle, "_TABLE_CACHE", None)
    if isinstance(table_cache, dict):
        table_cache.clear()
    bernoulli = getattr(precision, "_BERNOULLI", None)
    if isinstance(bernoulli, list):
        del bernoulli[1:]


def provenance() -> dict:
    import commtuple

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = res.stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "compiled_kernel": getattr(commtuple, "COMPILED_KERNEL", None),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
    }


def snapshot(outputs: dict) -> dict:
    """Outputs as values: files the program wrote are read back."""
    return {k: v.read_bytes() if isinstance(v, Path) else v for k, v in outputs.items()}


def fingerprint(value):
    """What later rounds must reproduce; files are kept as digests only."""
    return hashlib.sha256(value).hexdigest() if isinstance(value, bytes) else value


def run_rounds(workload, seconds: float, tracer) -> dict:
    """Repeat the task list in whole rounds until the next round would end
    after `seconds` of wall time; at least one round.  Each operation is
    timed in CPU seconds of this process (all threads, user and system),
    which leaves out time the hypervisor steals from the machine, and
    rescaled to the reference speed by the reference loop run just
    before and just after it.  A round's time is the sum over its
    operations.  The first output of each operation gets the workload's
    full check; later rounds must reproduce it exactly.  A failed check
    ends the run."""
    ops = workload.ops()
    res = {"times": [], "cpu": [], "reference": [], "wall": [], "errors": [],
           "counts": {}, "attempted": 0, "failed": 0, "correct": True}
    verified = {}
    start = time.perf_counter()
    while True:
        reset_caches()
        gc.collect()
        if tracer is not None:
            tracer.round = len(res["times"])
        outputs = {}
        scaled = cpu = 0.0
        w0 = time.perf_counter()
        before = calibrate.reference_s()
        for label, op in ops:
            res["attempted"] += 1
            t0 = time.process_time()
            try:
                outputs[label] = op()
            except Exception as exc:  # one failed operation, not a failed run
                res["failed"] += 1
                res["errors"].append(f"{label}: {type(exc).__name__}: {exc}")
            t = time.process_time() - t0
            after = calibrate.reference_s()
            scaled += calibrate.scale(t, before, after)
            cpu += t
            res["reference"].append(after)
            before = after
        res["times"].append(scaled)
        res["cpu"].append(cpu)
        res["wall"].append(time.perf_counter() - w0)
        outputs = snapshot(outputs)
        try:
            for label in outputs.keys() & verified.keys():
                if fingerprint(outputs[label]) != verified[label]:
                    raise checks.CheckError(f"{label} output changed between rounds")
            if outputs.keys() - verified.keys():
                res["counts"] = workload.check(outputs)
                verified.update((k, fingerprint(v)) for k, v in outputs.items())
        except checks.CheckError as exc:
            res["correct"] = False
            res["errors"].append(f"check: {exc}")
            return res
        if time.perf_counter() - start + statistics.median(res["wall"]) > seconds:
            return res


def per_layer(tracer, times, counts, import_s) -> dict:
    by_round: dict[int, list] = {}
    for span in tracer.spans:
        by_round.setdefault(span.round, []).append(span)
    rounds = [layer_times(by_round.get(r, [])) for r in range(len(times))]
    values = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    values.update(dict.fromkeys(("series.kernel_steps", "series.table_bits",
                                 "cli.out_bytes", "inequalities.comparisons"), 0))
    values.update(counts)
    kernel_s = values["series.kernel_s"]
    steps = values.get("series.kernel_steps", 0)
    values["series.kernel_steps_per_s"] = steps / kernel_s if steps and kernel_s else 0.0
    values["import_s"] = import_s
    values["traced_run_s"] = statistics.median(times)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "commtuple" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        import_s, setup_s = measure_setup(workload)
        import commtuple  # noqa: F401
        import commtuple.cli  # noqa: F401

        workload.prepare()
        if args.trace:
            tracer = Tracer()
            tracer.install()
        res = run_rounds(workload, args.seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = res["times"]
    if args.trace:
        values = per_layer(tracer, times, res["counts"], import_s)
        values["rss.peak_mb"] = peak_mb
    else:
        values = {"run_s": statistics.median(times), "setup_s": setup_s,
                  "peak_rss_mb": peak_mb}
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    prov = provenance()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "provenance": prov, "round_scaled_s": times, "round_cpu_s": res["cpu"],
              "round_wall_s": res["wall"], "reference_s": res["reference"],
              "errors": res["errors"], **result}
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"missing": tracer.missing, "spans": tracer.to_json()}) + "\n")
    for line in res["errors"]:
        print(line, file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

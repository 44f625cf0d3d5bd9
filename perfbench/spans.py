"""Span recorder that times calls into the program's modules from the
outside, by wrapping their functions; nothing inside `src/` changes.

A span has a name, a start, an end, the span that caused it and the
round (one pass over a workload's task list) it belongs to.  Spans are
kept in memory and written out when the benchmark ends.  Only calls made
on the thread that installed the wrappers are recorded; the program's
scan worker threads run unwrapped chunk functions.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (module, function, span name).  A function missing from its module is
# skipped, so the trace survives the program renaming a private helper.
TARGETS = (
    ("commtuple.cli", "main", "cli.main"),
    ("commtuple.arith", "evaluate_exponent", "arith.weights"),
    ("commtuple.series", "weighted_divisor_table", "series.ctable"),
    ("commtuple.series", "expand_product", "series.expand_product"),
    ("commtuple.series", "seq_to_csv", "series.serialise"),
    ("commtuple.series", "seq_to_json", "series.serialise"),
    ("commtuple.series", "factorial_scaled", "series.factorial_scaled"),
    ("commtuple.inequalities", "log_concavity_scan", "inequalities.logconcave"),
    ("commtuple.inequalities", "bessenrodt_ono_scan", "inequalities.bo"),
    ("commtuple.inequalities", "log_convexity_scan", "inequalities.logconvex"),
    ("commtuple.lfunction", "lf_data_ntuple", "lfunction.lf_data"),
    ("commtuple.lfunction", "lf_data_power", "lfunction.lf_data"),
    ("commtuple.precision", "zeta_int", "precision.constants"),
    ("commtuple.precision", "zeta_prime_int", "precision.constants"),
    ("commtuple.precision", "zeta_prime_neg", "precision.constants"),
    ("commtuple.precision", "zeta_nonpos", "precision.constants"),
    ("commtuple.precision", "euler_gamma", "precision.constants"),
    ("commtuple.saddle", "rho_series_three_pole", "saddle.k_series"),
    ("commtuple.saddle", "two_pole_K", "saddle.k_series"),
    ("commtuple.saddle", "curve_saddle_series", "saddle.k_series"),
    ("commtuple.saddle", "rho_numeric", "saddle.rho_numeric"),
    ("commtuple.saddle", "_exp_weight_sum", "saddle.weight_sum"),
    ("commtuple.asymptotics", "expansion_one_pole", "asymptotics.expansion"),
    ("commtuple.asymptotics", "expansion_two_pole", "asymptotics.expansion"),
    ("commtuple.asymptotics", "expansion_three_pole", "asymptotics.expansion"),
)


class Span:
    __slots__ = ("name", "parent", "round", "start", "end", "child_s", "jobs")

    def __init__(self, name, parent, round_no, start, jobs):
        self.name = name
        self.parent = parent
        self.round = round_no
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.jobs = jobs

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._stack: list[Span] = []
        self._thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, self.round, time.perf_counter(),
                        kwargs.get("jobs"))
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target function, in every loaded
        commtuple module, by its timing wrapper."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "commtuple" or k.startswith("commtuple.")]
        for mod_name, attr, span_name in TARGETS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(fn, span_name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def to_json(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {"name": s.name, "round": s.round, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent)), "jobs": s.jobs}
            for s in self.spans
        ]


def _outermost(spans, prefix):
    """Spans of one layer that are not nested inside a span of the same
    layer (recursive and mutually calling helpers count once)."""
    out = []
    for s in spans:
        p = s.parent
        while p is not None and not p.name.startswith(prefix):
            p = p.parent
        if p is None:
            out.append(s)
    return out


def layer_times(spans: list[Span]) -> dict:
    """Per-layer seconds for the spans of one round."""
    def named(name):
        return [s for s in spans if s.name == name]

    def inclusive(name):
        return sum(s.duration for s in _outermost(named(name), name))

    def self_time(name):
        return sum(s.self_s for s in named(name))

    scans = [s for s in spans if s.name.startswith("inequalities.")]
    rho = named("saddle.rho_numeric")
    return {
        "arith.weights_s": inclusive("arith.weights"),
        "series.ctable_s": inclusive("series.ctable"),
        "series.kernel_s": self_time("series.expand_product"),
        "series.serialise_s": inclusive("series.serialise"),
        "series.factorial_scaled_s": inclusive("series.factorial_scaled"),
        "cli.self_s": self_time("cli.main"),
        "inequalities.logconcave_s": inclusive("inequalities.logconcave"),
        "inequalities.bo_s": inclusive("inequalities.bo"),
        "inequalities.logconvex_s": inclusive("inequalities.logconvex"),
        "inequalities.scan_j1_s": sum(s.duration for s in scans if s.jobs in (None, 1)),
        "inequalities.scan_j2_s": sum(s.duration for s in scans if s.jobs == 2),
        "lfunction.lf_data_s": inclusive("lfunction.lf_data"),
        "precision.constants_s": inclusive("precision.constants"),
        "saddle.k_series_s": inclusive("saddle.k_series"),
        "asymptotics.expansion_s": self_time("asymptotics.expansion"),
        "saddle.rho_numeric_s": sum(s.duration for s in rho),
        "saddle.rho_numeric_calls": sum(
            1 for s in named("saddle.weight_sum")
            if any(p.name == "saddle.rho_numeric" for p in _ancestors(s))),
    }


def _ancestors(span):
    p = span.parent
    while p is not None:
        yield p
        p = p.parent

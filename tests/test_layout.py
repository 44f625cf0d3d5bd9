"""Package layout: the oracles stay out of the production modules,
importing the package loads only the exact layer, and every name the
benchmark harness binds resolves."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import commtuple

PACKAGE = Path(commtuple.__file__).parent


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _oracle_imports(source):
    """The innermost function around each import of the oracles module in
    source, or None for an import that runs when the module loads."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and any(
                    name.split(".")[-1] == "oracles" for name in _imported_modules(child)):
                found.append(where)
            inside = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inside else where)

    visit(ast.parse(source), None)
    return found


def test_no_production_module_imports_oracles():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in modules} >= {"__init__.py", "oracles.py", "cli.py"}
    imports = [(path.name, where) for path in modules if path.name != "oracles.py"
               for where in _oracle_imports(path.read_text(encoding="utf-8"))]
    # the oracle subcommand loads the oracles when it runs; nothing else does
    assert imports == [("cli.py", "_cmd_oracle")]
    # the check sees a module-level import and one in a nested function
    sample = ("from . import oracles\nimport os\ndef f():\n    from .oracles import x\n"
              "    def g():\n        import commtuple.oracles\n")
    assert _oracle_imports(sample) == [None, "f", "g"]


def _imports_from(source, modules):
    """The dotted names source imports, at any depth, that pass through
    one of the modules named in the set modules."""
    return [name for name in _imported_modules(ast.parse(source))
            if not modules.isdisjoint(name.split("."))]


def test_numeric_saddle_stays_off_the_series_route():
    # rho_numeric is the oracle of the K-series route: the saddle module
    # must not use pole data, the series route or the oracles it checks
    series = {"lfunction", "asymptotics", "oracles"}
    source = (PACKAGE / "saddle.py").read_text(encoding="utf-8")
    assert _imports_from(source, series) == []
    # the check sees an import inside a function and an absolute import
    sample = ("from .arith import x\ndef rho_numeric():\n"
              "    from .lfunction import dressed_residue\n"
              "import commtuple.asymptotics\n")
    assert _imports_from(sample, series) == [
        "commtuple.asymptotics", "lfunction", "lfunction.dressed_residue"]


def _unused_imports(source):
    """Line and name of each module-level import that the module never
    refers to and does not list in __all__ (__future__ imports aside)."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return [(line, name) for line, name in bound if name not in used]


def test_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    unused = [f"{path.name}:{line} {name}" for path in paths
              for line, name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []
    # the check sees a dotted import, an alias and an __all__ entry
    sample = ("from __future__ import annotations\nimport os.path\n"
              "import json as js\nfrom x import y, z\n__all__ = ['z']\nos\n")
    assert _unused_imports(sample) == [(3, "js"), (4, "y")]


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(source):
    """(line, name) of each os.environ or os.getenv the source reads,
    as an attribute or a from-import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in ENVIRONMENT_READERS]
    return sorted(found)


def test_no_module_reads_the_environment():
    # the kernel's plan, and any tuning after it, follows from the input
    # alone: no setting hides behind an environment variable
    reads = [f"{path.relative_to(PACKAGE)}:{line} {name}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for line, name in _environment_reads(path.read_text(encoding="utf-8"))]
    assert reads == []
    sample = ("import os\nfrom os import getenv as g\nos.environ.get('A')\n"
              "x = os.getenv('B')\nos.path.join('c')\n")
    assert _environment_reads(sample) == [(2, "getenv"), (3, "environ"), (4, "getenv")]


# what `import commtuple` must leave for the first use of an analytic name
ANALYTIC_MODULES = ("mpmath", "commtuple.precision", "commtuple.lfunction",
                    "commtuple.saddle", "commtuple.asymptotics", "commtuple.oracles")


def _run_fresh(code):
    """Standard output of code run in a fresh interpreter on this source tree."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return res.stdout


# what the exact commands never use, so the start-up path must not load it
STARTUP_FREE = ("dataclasses", "inspect", "json", "commtuple.inequalities")


def test_import_loads_only_the_exact_layer():
    code = (
        "import contextlib, sys\n"
        "import commtuple, commtuple.cli\n"
        f"startup = [n for n in {STARTUP_FREE!r} if n in sys.modules]\n"
        f"names = {ANALYTIC_MODULES!r}\n"
        "before = [n for n in names if n in sys.modules]\n"
        "commtuple.PrecisionContext\n"
        "after = [n for n in names if n in sys.modules]\n"
        "with contextlib.suppress(ValueError):\n"
        "    commtuple.PrecisionContext(49)\n"
        "refused = [n for n in names if n in sys.modules]\n"
        "commtuple.PrecisionContext(50)\n"
        "built = [n for n in names if n in sys.modules]\n"
        "from commtuple import *\n"
        "unbound = [n for n in commtuple.__all__ if n not in globals()]\n"
        "star = [n for n in names if n in sys.modules]\n"
        "print(repr([startup, before, after, refused, built, unbound, star,\n"
        "            len(commtuple.__all__)]))\n"
    )
    startup, before, after, refused, built, unbound, star, count = ast.literal_eval(
        _run_fresh(code))
    assert startup == []
    assert before == []
    # the class loads without mpmath, and so does a refused context; the
    # first context built loads it
    assert after == refused == ["commtuple.precision"]
    assert built == ["mpmath", "commtuple.precision"]
    assert unbound == [] and count == 41
    # the oracles belong to the tests: the whole namespace loads without them
    assert "commtuple.oracles" not in star


# what a command may leave loaded, in the columns of _loaded_after
LOADED = ("commtuple.oracles", "commtuple.saddle", "commtuple.inequalities", "json",
          "mpmath")


def _loaded_after(*argvs):
    """Run the CLI on each argv in turn in one fresh interpreter; after
    each, which of LOADED are loaded."""
    code = (
        "import contextlib, io, sys\n"
        "from commtuple import cli\n"
        "loaded = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        f"    loaded.append([name in sys.modules for name in {LOADED!r}])\n"
        "print(repr(loaded))\n"
    )
    return ast.literal_eval(_run_fresh(code))


def test_only_the_oracle_subcommand_loads_oracles():
    # the exact oracle ops build no PrecisionContext
    assert _loaded_after(
        ["seq", "--ell", "2", "--max-n", "5"],
        ["logconcave", "--ell", "2", "--max-n", "20", "--format", "text"],
        ["logconcave", "--ell", "2", "--max-n", "20"],
        ["oracle", "pentagonal", "--max-n", "5"],
        ["oracle", "direct", "--ell", "2", "--max-n", "5"],
        ["oracle", "hnf", "--ell", "2", "--n", "4"],
        ["oracle", "commuting", "--ell", "2", "--n", "3"],
    ) == [
        [False, False, False, False, False],
        [False, False, True, False, False],
        [False, False, True, True, False],
        [True, False, True, True, False],
        [True, False, True, True, False],
        [True, False, True, True, False],
        [True, False, True, True, False],
    ]
    # the analytic commands load mpmath, but neither the oracles nor the
    # numeric saddle oracle
    assert _loaded_after(
        ["constants", "--ell", "4"],
        ["compare", "--ell", "3", "--points", "100"],
    ) == [[False, False, False, False, True]] * 2


# a union type carries no __module__
DEFINED_IN = {"ExponentSpec": "commtuple.arith"}


def test_public_names_resolve():
    namespace = {}
    exec("from commtuple import *", namespace)
    for name in commtuple.__all__:
        obj = getattr(commtuple, name)
        module = sys.modules[DEFINED_IN.get(name) or obj.__module__]
        assert module.__name__ != "commtuple.oracles", name
        assert getattr(module, name) is obj, name
        assert namespace[name] is obj, name
    assert set(dir(commtuple)) >= set(commtuple.__all__)
    # a stale lazy entry would otherwise fail only on its first use
    assert set(commtuple._LAZY) <= set(commtuple.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        commtuple.no_such_name


# library functions that only tests called; hasattr goes through
# __getattr__, so an entry left in _LAZY alone would show here too
DELETED = ("phi_eval", "phi_deriv_eval", "estimate_B1", "commuting_tuple_count",
           "divisor_power_sum")
# oracle routes that left the production modules for commtuple.oracles
MOVED = ("hnf_subgroup_count", "_ordered_factorizations", "expand_product_direct",
         "pentagonal_p", "brute_force_commuting", "_commutes", "TruncPoly",
         "curve_saddle_series")
# oracles whose formula production now computes itself, and second
# oracles for a quantity that keeps one: the compositional-inversion
# route to the K_j and the multinomial route to the A_k
DELETED_ORACLES = ("lagrange_saddle_K", "curve_saddle_series_lagrange",
                   "lagrange_invert", "_lagrange_newton", "_lagrange_formula",
                   "_ser_mul", "_ser_inv", "_ser_compose", "_ring_inv",
                   "recip_power_coeff", "weighted_partitions", "_int_partitions",
                   "multinomial", "_binom_frac")


# the tangent-number table that mpmath's bernfrac replaced
DELETED_PRECISION = ("_BERNOULLI", "_fill_bernoulli")


def test_deleted_names_stay_gone():
    from commtuple import arith, oracles, precision, saddle, series

    assert [name for name in DELETED if hasattr(commtuple, name)] == []
    assert [name for name in DELETED_PRECISION if hasattr(precision, name)] == []
    for module in (commtuple, arith, series, saddle):
        assert [name for name in MOVED if hasattr(module, name)] == [], module.__name__
    assert [name for name in MOVED if not callable(getattr(oracles, name, None))] == []
    assert [name for name in DELETED_ORACLES if hasattr(oracles, name)] == []
    assert len(commtuple.__all__) == 41


def test_oracles_do_not_import_the_saddle_module():
    # the Newton route and the closed two-pole forms check saddle_series,
    # and TruncPoly the A_k of expansion, so they must not run on the
    # code of either module
    checked = {"saddle", "asymptotics"}
    source = (PACKAGE / "oracles.py").read_text(encoding="utf-8")
    assert _imports_from(source, checked) == []
    # the check sees a relative, an aliased and an absolute import
    sample = ("from .saddle import x\nfrom . import saddle as s\n"
              "import commtuple.asymptotics\nfrom .series import saddle_free\n")
    assert _imports_from(sample, checked) == [
        "saddle", "saddle.x", ".saddle", "commtuple.asymptotics"]


# What the benchmark harness under perfbench/ binds, module by module.  Its
# own tests are not collected with these, so a change that drops one of
# these names fails here rather than in a benchmark run.
BENCHMARK_BINDINGS = {
    "commtuple": ("BigIntSeq", "PrecisionContext", "bessenrodt_ono_scan",
                  "factorial_scaled", "log_concavity_scan", "log_convexity_scan",
                  "ntuple_exponent", "ntuple_sequence", "rho_numeric", "seq_to_csv",
                  "seq_to_json"),
    "commtuple.cli": ("main",),
    "commtuple.series": ("factorial_scaled", "ntuple_exponent"),
    "commtuple.saddle": ("rho_numeric",),
    "commtuple.inequalities": ("log_concavity_scan", "bessenrodt_ono_scan",
                               "log_convexity_scan"),
}


def test_benchmark_bindings_resolve():
    from commtuple import inequalities, saddle, series

    missing = [f"{module}.{name}" for module, names in BENCHMARK_BINDINGS.items()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
    assert commtuple.rho_numeric is saddle.rho_numeric
    # the scans workload passes jobs= to each library scan
    seq = commtuple.BigIntSeq((1, 1, 2, 3, 5, 7, 11, 15, 22, 30), 0, "partitions")
    scans = ((inequalities.log_concavity_scan, (seq, 2, 8)),
             (inequalities.bessenrodt_ono_scan, (seq, 9)),
             (inequalities.log_convexity_scan, (series.factorial_scaled(seq), 2, 8)))
    for scan, args in scans:
        assert scan(*args, jobs=2) == scan(*args, jobs=1), scan.__name__


def _annotated(module):
    """The module-level functions and the class methods defined in module."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj.__qualname__, obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                if isinstance(attr, (classmethod, staticmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                if inspect.isfunction(attr):
                    yield attr.__qualname__, attr


def test_annotations_resolve():
    # every annotation names something its module can see at run time
    # (importing __main__ would run the CLI; it defines nothing)
    names = [p.stem for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__main__"]
    failed = []
    for name in names:
        module = importlib.import_module(
            "commtuple" if name == "__init__" else f"commtuple.{name}")
        for qualname, fn in _annotated(module):
            try:
                typing.get_type_hints(fn)
            except NameError as exc:
                failed.append(f"{name}.{qualname}: {exc}")
    assert failed == []

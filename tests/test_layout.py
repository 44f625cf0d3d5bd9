"""Package layout: the oracles stay out of the production modules."""

import ast
from pathlib import Path

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


def test_no_production_module_imports_oracles():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in modules} >= {"__init__.py", "oracles.py", "cli.py"}
    offenders = []
    for path in modules:
        if path.name in ("__init__.py", "oracles.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(name.split(".")[-1] == "oracles" for name in _imported_modules(tree)):
            offenders.append(path.name)
    assert offenders == []

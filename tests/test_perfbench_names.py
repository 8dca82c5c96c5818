"""Every `pdpp` name the benchmark harness in `perfbench/` uses still resolves.

The harness times functions it looks up by (module, function) name and
imports a few exception and result types, so a rename in `src/` would
otherwise surface only as a failed benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _imported_names() -> set[tuple[str, str]]:
    """(module, name) for every pdpp name the harness's sources reach.

    Covers `from pdpp.m import x` and `m.x` after `from pdpp import m`.
    """
    found: set[tuple[str, str]] = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "pdpp":
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pdpp."):
                found.update((node.module, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                found.add((f"pdpp.{node.value.id}", node.attr))
    return found


def test_traced_functions_resolve():
    tracing = _load_tracing()
    for module, name, _ in tracing.SPANS + tracing.COUNTED:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)


def test_every_imported_name_resolves():
    names = _imported_names()
    # the exception and result types the harness checks results against
    assert {
        ("pdpp.oracle", "BudgetExceeded"),
        ("pdpp.oracle", "Status"),
        ("pdpp.concentric", "CycleBudgetExceeded"),
        ("pdpp.solver", "DpBudgetExceeded"),
        ("pdpp.decomposition", "TooWide"),
    } <= names
    missing = sorted(
        (module, name)
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    )
    assert missing == []

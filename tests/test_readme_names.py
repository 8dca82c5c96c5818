"""Every `pdpp` name the README's module table and budget table cite still resolves.

Both tables name functions and classes in backticks, so a deletion or
rename in `src/` would otherwise leave a stale row behind.
"""

import importlib
import re
from pathlib import Path


README = Path(__file__).resolve().parents[1] / "README.md"
NAME = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*)`")


def _table_rows(header: str) -> list[list[str]]:
    """The cells of each body row of the table whose header line is `header`."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2  # skip the header and its |---| rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert rows, header
    return rows


def _module_table() -> dict[str, list[str]]:
    return {
        module.strip("`"): NAME.findall(contents)
        for module, contents in _table_rows("| module | contents |")
    }


def test_module_table_names_resolve():
    missing = sorted(
        (module, name)
        for module, names in _module_table().items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    )
    assert missing == []


def test_budget_table_names_resolve():
    modules = [importlib.import_module(m) for m in _module_table()]
    names = [
        name
        for row in _table_rows("| Search | One unit | Default limit |")
        for name in NAME.findall(" ".join(row))
    ]
    assert names
    assert sorted(n for n in names if not any(hasattr(m, n) for m in modules)) == []

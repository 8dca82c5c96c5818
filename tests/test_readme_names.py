"""Every `pdpp` name the README's module table and budget table cite still resolves.

Both tables name functions and classes in backticks, so a deletion or
rename in `src/` would otherwise leave a stale row behind.
"""

import importlib
import inspect
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


# (row, name): rows that cite a name their module imports from another
CITED_FROM_ELSEWHERE = {
    ("pdpp.concentric", "face_regions"),
    ("pdpp.clconfig", "face_regions"),
    ("pdpp.solver", "FaceCertificate"),
    ("pdpp.solver", "Solution"),
}


def test_module_table_names_resolve():
    # each name resolves, and a function or class is defined in its row's
    # module: a row that cites a name its module only imports would stay
    # green after the name moved
    wrong = []
    for module, names in _module_table().items():
        mod = importlib.import_module(module)
        for name in names:
            if not hasattr(mod, name):
                wrong.append((module, name, None))
                continue
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if obj.__module__ != module and (module, name) not in CITED_FROM_ELSEWHERE:
                    wrong.append((module, name, obj.__module__))
    assert wrong == []


def test_budget_table_names_resolve():
    modules = [importlib.import_module(m) for m in _module_table()]
    names = [
        name
        for row in _table_rows("| Search | One unit | Default limit |")
        for name in NAME.findall(" ".join(row))
    ]
    assert names
    assert sorted(n for n in names if not any(hasattr(m, n) for m in modules)) == []

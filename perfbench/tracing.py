"""Spans and counters recorded from outside the program.

`Tracer.installed()` replaces public `pdpp` functions by timing wrappers in
every `pdpp` module namespace that holds them (the package uses
`from .x import y`, so a name lives in several modules at once) and puts
the originals back on exit. Spans are kept in memory as
`[name, start, end, parent, item]` and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans of one item, the item span
included, add up to the item's traced wall time.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ITEM = "item"

# (module, function, span name). Public functions only: the DP join helper
# `_merge_join` is deliberately absent.
SPANS = [
    ("pdpp.cli", "main", "cli.main"),
    ("pdpp.instances", "parse_instance", "instances.parse_instance"),
    ("pdpp.plane", "plane_graph_from_edges", "plane.plane_graph_from_edges"),
    ("pdpp.decomposition", "branch_decompose", "branch_decompose"),
    ("pdpp.decomposition", "best_heuristic_bd", "best_heuristic_bd"),
    ("pdpp.decomposition", "td_from_bd", "td_from_bd"),
    ("pdpp.decomposition", "tree_decompose", "tree_decompose"),
    ("pdpp.decomposition", "find_grid_minor", "find_grid_minor"),
    ("pdpp.concentric", "concentric_from_grid", "concentric_from_grid"),
    ("pdpp.concentric", "tighten", "tighten"),
    ("pdpp.concentric", "verify_tight", "verify_tight"),
    ("pdpp.oracle", "solve_bruteforce", "solve_bruteforce"),
    ("pdpp.oracle", "best_linkage_for_pattern", "best_linkage_for_pattern"),
    ("pdpp.oracle", "verify_solution", "verify_solution"),
    ("pdpp.solver", "solve_pipeline", "solve_pipeline"),
    ("pdpp.solver", "find_irrelevant_vertex", "find_irrelevant_vertex"),
    ("pdpp.solver", "dp_solve", "dp_solve"),
    ("pdpp.clconfig", "is_convex", "is_convex"),
    ("pdpp.clconfig", "segments", "segments"),
    ("pdpp.clconfig", "segment_tree", "segment_tree"),
    ("pdpp.gallery", "ring_lattice", "ring_lattice"),
]
# Called thousands of times per item: counted, not timed, so its time stays
# in the caller's self time.
COUNTED = [("pdpp.plane", "closed_interior", "plane.closed_interior")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = None
        self._bd_width = None  # width of the last td_from_bd result in this solve
        self._hooks = self._make_hooks()
        self._installs = None

    # -- recording ---------------------------------------------------------------

    def _timed(self, name: str, fn):
        on_result, on_error = self._hooks.get(name, (None, None))
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf_counter()
                stack.pop()
                if on_error:
                    on_error(exc)
                raise
            rec[2] = perf_counter()
            stack.pop()
            if on_result:
                on_result(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _make_hooks(self) -> dict:
        from pdpp.concentric import CycleBudgetExceeded
        from pdpp.decomposition import TooWide
        from pdpp.oracle import BudgetExceeded, Status
        from pdpp.solver import DpBudgetExceeded

        c = self.counts

        def count_if(key, cond):
            return lambda value: c.update({key: 1} if cond(value) else {})

        def td_from_bd(td):
            self._bd_width = td.width

        def tree_decompose(td):
            # the pipeline builds both decompositions and keeps the narrower
            if self._bd_width is not None:
                c["minfill_wins"] += td.width < self._bd_width
                self._bd_width = None

        def irrelevant(cert):
            if cert is not None:
                c["find_irrelevant_vertex.issued"] += 1
                c["find_irrelevant_vertex.unchecked"] += cert.oracle_checked is None

        return {
            "branch_decompose": (count_if("branch_decompose.too_wide", lambda r: isinstance(r, TooWide)), None),
            "find_grid_minor": (count_if("find_grid_minor.found", lambda r: r is not None), None),
            "td_from_bd": (td_from_bd, None),
            "tree_decompose": (tree_decompose, None),
            "verify_tight": (None, count_if("verify_tight.budget_exceeded", lambda e: isinstance(e, CycleBudgetExceeded))),
            "solve_bruteforce": (count_if("solve_bruteforce.decided", lambda r: r.status is not Status.UNKNOWN), None),
            "best_linkage_for_pattern": (None, count_if("best_linkage_for_pattern.budget_exceeded", lambda e: isinstance(e, BudgetExceeded))),
            "dp_solve": (None, count_if("dp_solve.budget_exceeded", lambda e: isinstance(e, DpBudgetExceeded))),
            "find_irrelevant_vertex": (irrelevant, None),
            "solve_pipeline": (lambda r: c.update({"solve_pipeline.iterations": r.iterations}), None),
        }

    def run_item(self, key: str, fn, *args):
        """Call `fn(*args)` inside an item span tagged with `key`."""
        self.item = key
        self._bd_width = None
        return self._timed(ITEM, fn)(*args)

    def _swaps(self) -> list[tuple]:
        """(module, attribute, original, wrapper) for every namespace holding a wrapped function."""
        import pdpp.cli  # noqa: F401  (loads every module the workloads use)
        import pdpp.gallery  # noqa: F401

        modules = [m for n, m in list(sys.modules.items()) if n == "pdpp" or n.startswith("pdpp.")]
        swaps = []
        for kind, table in ((self._timed, SPANS), (self._counted, COUNTED)):
            for mod_name, attr, name in table:
                orig = getattr(sys.modules[mod_name], attr)
                wrapper = kind(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            swaps.append((mod, key, orig, wrapper))
        return swaps

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed function in every `pdpp` namespace that holds it."""
        if self._installs is None:
            self._installs = self._swaps()
        for mod, key, _, wrapper in self._installs:
            setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for mod, key, orig, _ in self._installs:
                setattr(mod, key, orig)

    # -- results -----------------------------------------------------------------

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def self_times(self) -> tuple[Counter, list[tuple[float, float]]]:
        """Self seconds by span name, and (self, duration) of every item span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: Counter = Counter()
        items = []
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = end - start - child[i]
            by_name[name] += own
            if name == ITEM:
                items.append((own, end - start))
        return by_name, items


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float, scale: float) -> dict:
    """The per-layer metrics of BENCHMARK.json: per-item means, ratios and counts.

    Times are multiplied by `scale`, the run's wall-to-reference-seconds factor.
    """
    own, items = tracer.self_times()
    c = tracer.counts
    n = len(items)
    per_item = lambda x: ratio(x, n)  # noqa: E731
    out = {}
    for _, _, name in SPANS:
        out[f"{name}.self_s"] = (per_item(own[name]) * scale, "s/item")
    for name in (
        "verify_tight.calls",
        "plane.closed_interior.calls",
        "solve_bruteforce.calls",
        "dp_solve.calls",
        "branch_decompose.too_wide",
        "verify_tight.budget_exceeded",
        "best_linkage_for_pattern.budget_exceeded",
        "dp_solve.budget_exceeded",
        "solve_pipeline.iterations",
        "minfill_wins",
    ):
        out[name] = (per_item(c[name]), "count/item")
    out["find_grid_minor.found_ratio"] = (ratio(c["find_grid_minor.found"], c["find_grid_minor.calls"]), "ratio")
    out["solve_bruteforce.decided_ratio"] = (ratio(c["solve_bruteforce.decided"], c["solve_bruteforce.calls"]), "ratio")
    out["find_irrelevant_vertex.issued_ratio"] = (
        ratio(c["find_irrelevant_vertex.issued"], c["find_irrelevant_vertex.calls"]),
        "ratio",
    )
    out["find_irrelevant_vertex.unchecked_ratio"] = (
        ratio(c["find_irrelevant_vertex.unchecked"], c["find_irrelevant_vertex.issued"]),
        "ratio",
    )
    out["item.self_s"] = (per_item(own[ITEM]) * scale, "s/item")
    out["item.traced_s"] = (per_item(sum(d for _, d in items)) * scale, "s/item")
    out["item.unattributed_ratio"] = (statistics.median(ratio(s, d) for s, d in items) if items else 0.0, "ratio")
    out["trace.overhead_ratio"] = (ratio(traced_s, untraced_s) - 1.0, "ratio")
    return out

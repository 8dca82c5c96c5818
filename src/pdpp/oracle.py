"""Exhaustive ground-truth solvers for desk-scale validation.

A single backtracking engine enumerates vertex-disjoint path systems; it
powers the exact yes/no decision, solution search, and exhaustive
cheapest-linkage computation. Budgets make indeterminacy explicit: the
engine never silently gives up.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .instances import DppInstance, Solution
from .plane import CheckResult, Cycle, Edge, PlaneGraph, PlaneGraphError, norm_edge

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    """The exhaustive search hit its node budget before finishing."""


class Status(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SolveOutcome:
    status: Status
    solution: Optional[Solution] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.status is Status.YES


# -- linkages -----------------------------------------------------------------


@dataclass(frozen=True)
class Linkage:
    """Vertex-disjoint paths in a host graph, listed as vertex sequences."""

    paths: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for path in self.paths:
            if not path:
                raise PlaneGraphError("empty path in linkage")
            if len(set(path)) != len(path):
                raise PlaneGraphError(f"path {path} revisits a vertex")
            if seen & set(path):
                raise PlaneGraphError("linkage paths share a vertex")
            seen |= set(path)

    @property
    def pattern(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset((p[0], p[-1])) for p in self.paths)

    @property
    def terminals(self) -> frozenset[int]:
        return frozenset(v for p in self.paths for v in (p[0], p[-1]))

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for p in self.paths for v in p)

    @property
    def edges(self) -> frozenset[Edge]:
        out: set[Edge] = set()
        for p in self.paths:
            out.update(norm_edge(a, b) for a, b in zip(p, p[1:]))
        return frozenset(out)

    def check_in(self, g: PlaneGraph) -> None:
        for p in self.paths:
            for a, b in zip(p, p[1:]):
                if not g.has_edge(a, b):
                    raise PlaneGraphError(f"linkage step ({a},{b}) is not an edge")


def linkage_cost(linkage: Linkage, cycles: list[Cycle]) -> int:
    """Number of linkage edges lying on none of the given cycles."""
    free: set[Edge] = set()
    for c in cycles:
        free |= c.edges
    return len(linkage.edges - free)


# -- the backtracking engine ---------------------------------------------------


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded()


def _iter_path_systems(
    g: PlaneGraph,
    pairs: list[tuple[int, int]],
    budget: _Budget,
    allowed: Optional[frozenset[int]] = None,
) -> Iterator[list[list[int]]]:
    """All vertex-disjoint path systems joining the pairs, in deterministic order.

    Every terminal is blocked for all paths except its own, matching the
    disjointness requirement. `allowed` restricts usable vertices.
    """
    terminals = {v for p in pairs for v in p}
    occupied: set[int] = set(terminals)
    done: list[list[int]] = []

    def route(i: int) -> Iterator[list[list[int]]]:
        budget.spend()
        if i == len(pairs):
            yield [list(p) for p in done]
            return
        s, t = pairs[i]
        path = [s]
        on_path = {s}

        def extend(v: int) -> Iterator[list[list[int]]]:
            budget.spend()
            if v == t:
                done.append(list(path))
                yield from route(i + 1)
                done.pop()
                return
            for w in sorted(g.rotation[v]):
                if w in on_path:
                    continue
                if w != t and (w in occupied or (allowed is not None and w not in allowed)):
                    continue
                path.append(w)
                on_path.add(w)
                if w != t:  # terminals stay permanently occupied
                    occupied.add(w)
                yield from extend(w)
                if w != t:
                    occupied.discard(w)
                on_path.discard(w)
                path.pop()

        yield from extend(s)

    yield from route(0)


def solve_bruteforce(inst: DppInstance, budget: int = DEFAULT_BUDGET) -> SolveOutcome:
    """Exact decision by exhaustive backtracking over path systems."""
    b = _Budget(budget)
    try:
        for system in _iter_path_systems(inst.graph, list(inst.pairs), b):
            return SolveOutcome(Status.YES, Solution(tuple(tuple(p) for p in system)))
    except BudgetExceeded:
        return SolveOutcome(Status.UNKNOWN, reason="node budget exceeded")
    return SolveOutcome(Status.NO)


def verify_solution(inst: DppInstance, sol: Solution) -> CheckResult:
    """Endpoint, edge-validity, and disjointness check with named violations."""
    problems: list[str] = []
    if len(sol.paths) != inst.k:
        problems.append(f"expected {inst.k} paths, got {len(sol.paths)}")
        return CheckResult(False, tuple(problems))
    used: dict[int, int] = {}
    for i, (path, (s, t)) in enumerate(zip(sol.paths, inst.pairs), start=1):
        if not path:
            problems.append(f"path {i} is empty")
            continue
        if path[0] != s or path[-1] != t:
            problems.append(f"path {i} joins ({path[0]},{path[-1]}), wanted ({s},{t})")
        if len(set(path)) != len(path):
            problems.append(f"path {i} revisits a vertex")
        for a, b in zip(path, path[1:]):
            if not inst.graph.has_edge(a, b):
                problems.append(f"path {i} uses non-edge ({a},{b})")
        for v in path:
            if v in used:
                problems.append(f"vertex {v} shared by paths {used[v]} and {i}")
            else:
                used[v] = i
    return CheckResult(not problems, tuple(problems))


# -- cheapest equivalent linkages ----------------------------------------------


def _edge_key(linkage: Linkage) -> tuple[Edge, ...]:
    return tuple(sorted(linkage.edges))


def cheapest_equivalent_linkage(
    g: PlaneGraph,
    start: Linkage,
    cycles: list[Cycle],
    budget: int = DEFAULT_BUDGET,
    allowed: Optional[frozenset[int]] = None,
) -> Linkage:
    """Minimum-cost linkage with the same pattern, by exhaustive enumeration.

    Cost counts linkage edges on none of the cycles; ties break on the
    lexicographically least edge set so oracle runs are reproducible.
    """
    start.check_in(g)
    pairs = sorted((min(p[0], p[-1]), max(p[0], p[-1])) for p in start.paths)
    b = _Budget(budget)
    best = start
    best_cost = linkage_cost(start, cycles)
    best_key = _edge_key(start)
    for system in _iter_path_systems(g, pairs, b, allowed=allowed):
        cand = Linkage(tuple(tuple(p) for p in system))
        cost = linkage_cost(cand, cycles)
        key = _edge_key(cand)
        if cost < best_cost or (cost == best_cost and key < best_key):
            best, best_cost, best_key = cand, cost, key
    return best


def best_linkage_for_pattern(
    g: PlaneGraph,
    pairs: list[tuple[int, int]],
    cycles: list[Cycle],
    budget: int = DEFAULT_BUDGET,
    allowed: Optional[frozenset[int]] = None,
) -> Optional[Linkage]:
    """Cheapest linkage realizing the pattern, or None if none exists."""
    terminals = [v for p in pairs for v in p]
    if len(set(terminals)) != len(terminals):
        raise PlaneGraphError("pattern terminals are not pairwise distinct")
    b = _Budget(budget)
    best: Optional[Linkage] = None
    best_cost = None
    best_key: Optional[tuple[Edge, ...]] = None
    for system in _iter_path_systems(g, sorted(pairs), b, allowed=allowed):
        cand = Linkage(tuple(tuple(p) for p in system))
        cost = linkage_cost(cand, cycles)
        key = _edge_key(cand)
        if best is None or cost < best_cost or (cost == best_cost and key < best_key):
            best, best_cost, best_key = cand, cost, key
    return best

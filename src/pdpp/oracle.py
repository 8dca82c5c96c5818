"""Exhaustive ground-truth solvers for desk-scale validation, and checkers.

A single backtracking engine enumerates vertex-disjoint path systems; it
powers the exact yes/no decision, solution search, and exhaustive
cheapest-linkage computation. It cuts only branches that hold no wanted
system, so every answer equals plain enumeration's. A work budget makes
indeterminacy explicit: the engine never silently gives up. The checker
`verify_solution` reads only the instance and shares no code with the
solvers whose answers it checks.

Before it searches, the cheapest-linkage search for a pattern asks
`pdpp.certificates` for a face on which two pairs interleave, and returns
None at once when `verify_no_certificate` accepts that proof. The plain
decision `solve_bruteforce` never takes this shortcut, so it stays an
independent cross-check of every face-based NO.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .certificates import interleaving_face, verify_no_certificate
from .instances import DppInstance, Solution
from .plane import Budget, BudgetExceeded  # pdpp.oracle.BudgetExceeded stays importable
from .plane import CheckResult, Cycle, Edge, PlaneGraph, PlaneGraphError, norm_edge, path_edges

DEFAULT_BUDGET = 10_000_000


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
        return frozenset().union(*map(path_edges, self.paths))

    def check_in(self, g: PlaneGraph) -> None:
        for p in self.paths:
            for a, b in zip(p, p[1:]):
                if not g.has_edge(a, b):
                    raise PlaneGraphError(f"linkage step ({a},{b}) is not an edge")


def linkage_cost(linkage: Linkage, cycles: list[Cycle]) -> int:
    """Number of linkage edges lying on none of the given cycles."""
    return len(linkage.edges - _cycle_edges(cycles))


# -- the backtracking engine ---------------------------------------------------


def _cycle_edges(cycles: list[Cycle]) -> frozenset[Edge]:
    return frozenset().union(*(c.edges for c in cycles))


def _iter_path_systems(
    g: PlaneGraph,
    pairs: list[tuple[int, int]],
    budget: Budget,
    cycle_edges: frozenset[Edge] = frozenset(),
    cap: Optional[list[float]] = None,
) -> Iterator[tuple[list[list[int]], int]]:
    """All vertex-disjoint path systems joining the pairs, in deterministic order.

    Each system comes with its cost, the number of its edges not in
    `cycle_edges`. Every terminal is blocked for all paths except its own,
    matching the disjointness requirement.

    Without `cap` the systems come in plain enumeration order: paths in
    pair order, each grown by stepping to neighbours in vertex order. One
    cut drops only branches that hold no system, so the order is that of
    enumeration without it: before a path is extended, one search through
    the free (unoccupied, non-terminal) vertices checks that the head can
    still reach its target and that every later pair can still be joined.

    With `cap`, a one-element list the caller may lower between systems,
    the search is goal-directed: it yields every system whose cost is at
    most `cap[0]` as the search ends, perhaps some dearer ones, in no
    promised order. For each pair a 0-1 BFS from its target, expanding
    only the target and the initially free vertices, gives h(v), a lower
    bound on what the rest of a path from v pays: free vertices are only
    ever taken away. A step to w is taken only if the cost so far, the
    step's cost, h(w) and h(s) of every later pair's source add up to at
    most `cap[0]`; paths of a system share no edge, so costs add. Steps
    are tried in order of that sum, then of w, so the first step over the
    cap ends a vertex's steps, cheap systems come first and the cap falls
    early. A vertex from which the target cannot be reached is never
    stepped to. The reachability check above runs in this mode too.

    The budget is charged one unit per search node, one per edge the
    reachability check scans, and one per edge the bound's BFS scans.
    """
    # vertex sets are bitmasks with vertex v as bit 1 << v; adj and degree
    # are keyed by that bit
    terminals = {v for p in pairs for v in p}
    free0 = sum(1 << v for v in g.rotation if v not in terminals)
    adj = {1 << v: sum(1 << w for w in nbrs) for v, nbrs in g.rotation.items()}
    degree = {1 << v: len(nbrs) for v, nbrs in g.rotation.items()}
    steps_from = {
        v: [(w, 1 << w, norm_edge(v, w) not in cycle_edges) for w in sorted(nbrs)]
        for v, nbrs in g.rotation.items()
    }

    def lower_bounds(t: int) -> dict[int, int]:
        """0-1 BFS distances to t through t and the initially free vertices."""
        dist = {t: 0}
        queue = deque([(0, t)])
        scanned = 0
        while queue:
            d, u = queue.popleft()
            if d > dist[u]:
                continue
            scanned += len(steps_from[u])
            for w, bit, paid in steps_from[u]:
                if d + paid < dist.get(w, math.inf):
                    dist[w] = d + paid
                    if free0 & bit:
                        if paid:
                            queue.append((d + 1, w))
                        else:
                            queue.appendleft((d, w))
        budget.spend(scanned)
        return dist

    # per pair, each vertex's steps as (ahead, w, bit, paid); a vertex's
    # steps end at the first with cost + ahead above cap[0], which without
    # a cap never comes
    if cap is None:
        cap = [math.inf]
        plain = {v: [(paid, w, bit, paid) for w, bit, paid in out] for v, out in steps_from.items()}
        ranked = [plain] * len(pairs)
    else:
        ranked = []
        rest = 0  # the bound of the pairs after the current one
        for s, t in reversed(pairs):
            h = lower_bounds(t)
            if s not in h:
                return
            ranked.append({
                v: sorted((paid + h[w] + rest, w, bit, paid) for w, bit, paid in steps_from[v] if w in h)
                for v in h
                if v == s or free0 >> v & 1
            })
            rest += h[s]
        ranked.reverse()
    done: list[list[int]] = []

    def joinable(ends: list[tuple[int, int]], free: int) -> bool:
        """Whether every (a, b) in ends is one vertex, an edge, or has a
        component of the free vertices next to both a and b.

        Components are grown once each, by a search from a's free
        neighbours; the edges it scans are charged to the budget.
        """
        components: list[int] = []
        grown = scanned = 0
        for a, b in ends:
            a, b = 1 << a, 1 << b
            if a == b or adj[a] & b:
                continue
            seeds = adj[a] & free
            near = 0
            for comp in components:
                if comp & seeds:
                    near |= comp
            seeds &= ~grown
            while seeds:
                comp = frontier = seeds & -seeds
                while frontier:
                    u = frontier & -frontier
                    frontier ^= u
                    scanned += degree[u]
                    new = adj[u] & free & ~comp
                    comp |= new
                    frontier |= new
                components.append(comp)
                grown |= comp
                near |= comp
                seeds &= ~comp
            if not adj[b] & near:
                ok = False
                break
        else:
            ok = True
        budget.spend(scanned)
        return ok

    def route(i: int, cost: int, free: int) -> Iterator[tuple[list[list[int]], int]]:
        budget.spend()
        if i == len(pairs):
            yield [list(p) for p in done], cost
            return
        s, t = pairs[i]
        later = pairs[i + 1 :]
        steps = ranked[i]
        path = [s]

        def extend(v: int, cost: int, free: int) -> Iterator[tuple[list[list[int]], int]]:
            budget.spend()
            if v == t:
                done.append(list(path))
                yield from route(i + 1, cost, free)
                done.pop()
                return
            if not joinable([(v, t)] + later, free):
                return
            for ahead, w, bit, paid in steps[v]:
                if cost + ahead > cap[0]:
                    break
                if w != t and not free & bit:
                    continue
                path.append(w)
                yield from extend(w, cost + paid, free & ~bit)
                path.pop()

        yield from extend(s, cost, free)

    yield from route(0, 0, free0)


def solve_bruteforce(inst: DppInstance, budget: int = DEFAULT_BUDGET) -> SolveOutcome:
    """Exact decision by exhaustive backtracking over path systems."""
    try:
        for system, _ in _iter_path_systems(inst.graph, list(inst.pairs), Budget(budget)):
            return SolveOutcome(Status.YES, Solution(tuple(tuple(p) for p in system)))
    except BudgetExceeded:
        return SolveOutcome(Status.UNKNOWN, reason="work budget exceeded")
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


def _edge_key(paths: Sequence[Sequence[int]]) -> tuple[Edge, ...]:
    return tuple(sorted(e for p in paths for e in path_edges(p)))


def _cheapest_paths(
    g: PlaneGraph,
    pairs: list[tuple[int, int]],
    cycles: list[Cycle],
    budget: int,
    incumbent: tuple[float, tuple[Edge, ...]] = (math.inf, ()),
) -> Optional[list[list[int]]]:
    """Paths of the cheapest system that beats `incumbent`, or None.

    Systems compare by (cost, sorted edge list), and no two systems share
    an edge list, so the answer does not depend on the order in which the
    engine's goal-directed cost mode finds them. The incumbent's cost seeds
    the engine's cost cap and each cheaper system lowers it; the cap drops
    only branches whose cost bound is strictly above it, so every tie still
    reaches the comparison.
    """
    cap = [incumbent[0]]
    best: Optional[list[list[int]]] = None
    best_cost, best_key = incumbent
    systems = _iter_path_systems(
        g, pairs, Budget(budget), _cycle_edges(cycles), cap
    )
    for system, cost in systems:
        if cost < best_cost:
            best, best_cost, best_key = system, cost, None
            cap[0] = cost
        elif cost == best_cost:
            if best_key is None:
                best_key = _edge_key(best)
            key = _edge_key(system)
            if key < best_key:
                best, best_key = system, key
    return best


def cheapest_equivalent_linkage(
    g: PlaneGraph,
    start: Linkage,
    cycles: list[Cycle],
    budget: int = DEFAULT_BUDGET,
) -> Linkage:
    """Minimum-cost linkage with the same pattern, by exhaustive enumeration.

    Cost counts linkage edges on none of the cycles; ties break on the
    lexicographically least edge set so oracle runs are reproducible.
    Paths of a new linkage run from the smaller terminal of each pair;
    `start` itself is returned when nothing beats it.
    """
    start.check_in(g)
    pairs = sorted((min(p[0], p[-1]), max(p[0], p[-1])) for p in start.paths)
    incumbent = (linkage_cost(start, cycles), _edge_key(start.paths))
    paths = _cheapest_paths(g, pairs, cycles, budget, incumbent)
    return start if paths is None else Linkage(tuple(tuple(p) for p in paths))


def best_linkage_for_pattern(
    g: PlaneGraph,
    pairs: list[tuple[int, int]],
    cycles: list[Cycle],
    budget: int = DEFAULT_BUDGET,
) -> Optional[Linkage]:
    """Cheapest linkage realizing the pattern, or None if none exists.

    Before the search, two pairs that interleave on one face, each of their
    terminals occurring there once, prove that no linkage exists. None is
    returned on such a proof only after `verify_no_certificate` accepts its
    `FaceCertificate`; otherwise the search decides. The face check is
    linear in the host and charged nothing to the budget.
    """
    terminals = [v for p in pairs for v in p]
    if len(set(terminals)) != len(terminals):
        raise PlaneGraphError("pattern terminals are not pairwise distinct")
    cert = interleaving_face(g, pairs)
    if cert is not None and verify_no_certificate(DppInstance(g, tuple(pairs)), cert):
        return None
    paths = _cheapest_paths(g, sorted(pairs), cycles, budget)
    return None if paths is None else Linkage(tuple(tuple(p) for p in paths))

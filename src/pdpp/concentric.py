"""Concentric cycle families: construction from grid minors and tightening.

Tightening is constructive (dual min-cut searches for strictly smaller
enclosing cycles, iterated to a fixed point); `verify_tight` is the
independent oracle that re-checks both tightness clauses by exhaustive
cycle enumeration. The two share only `closed_interior`.

The min-cut searches run on the dual with the forbidden crossings
contracted by `plane.face_regions`, and `plane.cycle_from_edges` reads
each cut back as a cycle. Rings of a grid minor follow
`plane.rectangle_border`, as the host grid's own rings do.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Optional

from .plane import (
    Budget,
    BudgetExceeded,
    CheckResult,
    Cycle,
    DiskRegion,
    Edge,
    GridMinorModel,
    PlaneGraph,
    PlaneGraphError,
    closed_interior,
    cycle_from_edges,
    face_regions,
    rectangle_border,
    shortest_path,
    verify_minor_model,
)


class InsufficientGridError(ValueError):
    """Grid side too small for the requested concentric family."""


class CycleBudgetExceeded(BudgetExceeded):
    """`verify_tight` ran over its DFS steps in disc 0 and the annuli (see `_iter_cycles`)."""


@dataclass(frozen=True)
class ConcentricCycles:
    """Cycles C_0..C_r, innermost first, each inside the open interior of the next."""

    cycles: tuple[Cycle, ...]
    discs: tuple[DiskRegion, ...]

    @property
    def depth(self) -> int:
        return len(self.cycles) - 1

    def outer_disc(self) -> DiskRegion:
        return self.discs[-1]


def make_concentric(g: PlaneGraph, cycles: Iterable[Cycle]) -> ConcentricCycles:
    cyc = tuple(cycles)
    if not cyc:
        raise PlaneGraphError("need at least one cycle")
    return _checked_concentric(cyc, tuple(closed_interior(g, c) for c in cyc))


def _checked_concentric(
    cycles: tuple[Cycle, ...], discs: tuple[DiskRegion, ...]
) -> ConcentricCycles:
    """The family of `cycles` with their closed discs, once checked concentric."""
    for i in range(len(cycles) - 1):
        inner, outer = discs[i], discs[i + 1]
        if cycles[i].vertex_set & cycles[i + 1].vertex_set:
            raise PlaneGraphError(
                f"cycle {i} touches cycle {i + 1}; not concentric"
            )
        if not inner.vertices <= (outer.vertices - cycles[i + 1].vertex_set):
            raise PlaneGraphError(f"cycle {i} is not inside the open interior of disc {i + 1}")
        if not inner.faces < outer.faces:
            raise PlaneGraphError(f"disc {i} is not properly nested in disc {i + 1}")
    return ConcentricCycles(cycles, discs)


# -- unit-capacity max-flow on the contracted dual -------------------------------


class _DualCut:
    """Min edge-cut machinery over the dual graph with some crossings forbidden.

    Faces joined by a forbidden (non-candidate) edge are contracted together;
    the remaining crossings have unit capacity, so a minimum source-sink cut
    corresponds to a cycle through candidate edges enclosing the source side.
    """

    def __init__(self, g: PlaneGraph, allowed: frozenset[Edge]):
        self.g = g
        self.allowed = allowed
        # each contracted node is named by the least face it holds
        self.node = face_regions(g, range(len(g.faces())), allowed)
        self.arcs: dict[int, list[tuple[int, Edge]]] = {}
        for e in sorted(allowed):
            a, b = (self.node[f] for f in g.faces_of_edge(e))
            if a == b:
                continue
            self.arcs.setdefault(a, []).append((b, e))
            self.arcs.setdefault(b, []).append((a, e))

    def min_cut_cycle(self, sources: set[int], sinks: set[int]) -> Optional[set[Edge]]:
        """Edges of a minimum cut separating sources from sinks, or None."""
        src = {self.node[f] for f in sources}
        snk = {self.node[f] for f in sinks}
        if src & snk:
            return None
        flow: dict[tuple[int, int, Edge], int] = {}

        def residual(a: int, b: int, e: Edge) -> int:
            return 1 - flow.get((a, b, e), 0) + flow.get((b, a, e), 0)

        while True:
            prev: dict[int, tuple[int, Edge]] = {}
            queue = deque(src)
            seen = set(src)
            reached = None
            while queue and reached is None:
                x = queue.popleft()
                for y, e in self.arcs.get(x, ()):
                    if y in seen or residual(x, y, e) <= 0:
                        continue
                    seen.add(y)
                    prev[y] = (x, e)
                    if y in snk:
                        reached = y
                        break
                    queue.append(y)
            if reached is None:
                side = seen
                break
            y = reached
            while y not in src:
                x, e = prev[y]
                back = flow.get((y, x, e), 0)
                if back > 0:
                    flow[(y, x, e)] = back - 1
                else:
                    flow[(x, y, e)] = flow.get((x, y, e), 0) + 1
                y = x
        cut: set[Edge] = set()
        for x in side:
            for y, e in self.arcs.get(x, ()):
                if y not in side:
                    cut.add(e)
        return cut or None


# -- tightening -------------------------------------------------------------------


def _shrink_innermost(g: PlaneGraph, d0: DiskRegion) -> Optional[Cycle]:
    """A cycle whose closed interior is properly inside d0, or None."""
    if len(d0.faces) <= 1:
        return None
    allowed = frozenset(d0.edges)
    cutter = _DualCut(g, allowed)
    outside = set(range(len(g.faces()))) - set(d0.faces)
    for f_in in sorted(d0.faces):
        for f_out in sorted(d0.faces):
            if f_in == f_out:
                continue
            cut = cutter.min_cut_cycle({f_in}, {f_out} | outside)
            if cut is None:
                continue
            cyc = cycle_from_edges(cut)
            if cyc is None:
                continue
            region = closed_interior(g, cyc)
            if region.is_proper_subset_of(d0) and region.faces:
                return cyc
    return None


def _slip_between(
    g: PlaneGraph, inner: DiskRegion, outer: DiskRegion
) -> Optional[Cycle]:
    """A cycle in outer minus inner strictly separating them, or None."""
    allowed = frozenset(
        e for e in outer.edges if not (set(e) & inner.vertices)
    )
    if not allowed:
        return None
    cutter = _DualCut(g, allowed)
    all_faces = set(range(len(g.faces())))
    outside = all_faces - set(outer.faces)
    between = set(outer.faces) - set(inner.faces)
    for f_out in sorted(between):
        cut = cutter.min_cut_cycle(set(inner.faces), {f_out} | outside)
        if cut is None:
            continue
        cyc = cycle_from_edges(cut)
        if cyc is None:
            continue
        region = closed_interior(g, cyc)
        if not inner.faces <= region.faces:
            continue
        if not (region.faces < outer.faces):
            continue
        if not (region.vertices <= outer.vertices and region.edges <= outer.edges):
            continue
        return cyc
    return None


def tighten(g: PlaneGraph, cc: ConcentricCycles) -> ConcentricCycles:
    """Fixed point of the two shrink rules; discs only ever lose faces."""
    cycles = list(cc.cycles)
    changed = True
    while changed:
        changed = False
        discs = [closed_interior(g, c) for c in cycles]
        smaller = _shrink_innermost(g, discs[0])
        if smaller is not None:
            cycles[0] = smaller
            changed = True
            continue
        for i in range(len(cycles) - 1):
            slip = _slip_between(g, discs[i], discs[i + 1])
            if slip is not None:
                cycles[i + 1] = slip
                changed = True
                break
    # the last pass changed nothing, so `discs` are the final cycles' discs
    return _checked_concentric(tuple(cycles), tuple(discs))


# -- the independent exhaustive tightness check -----------------------------------


def _iter_cycles(adj: dict[int, list[int]], spend: Callable[[], None]):
    """Every simple cycle of the graph `adj` exactly once, in lexicographic order.

    `adj` maps each vertex to its sorted neighbours. DFS with minimum-root
    canonicity on an explicit stack of neighbour iterators, one per vertex
    of the current path. Each cycle's `vertices` start at its least vertex
    and go first to the smaller of that vertex's two cycle neighbours, and
    cycles come in lexicographic order of that tuple; so a subgraph yields
    the cycles it holds with the same tuples and in the same relative order
    as the whole graph. `spend` is called once per vertex pushed onto the
    path, each root included.
    """
    for root in sorted(adj):
        spend()
        path = [root]
        on_path = {root}
        stack = [iter(adj[root])]
        while stack:
            for w in stack[-1]:
                if w < root:
                    continue
                if w == root:
                    if len(path) >= 3 and path[1] < path[-1]:
                        yield Cycle(tuple(path))
                elif w not in on_path:
                    spend()
                    path.append(w)
                    on_path.add(w)
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())


def _subgraph_adjacency(vertices: frozenset[int], edges: Iterable[Edge]) -> dict[int, list[int]]:
    """Sorted adjacency of `vertices` with those of `edges` that join two of them."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].append(v)
            adj[v].append(u)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def _layer_cycles(discs: tuple[DiskRegion, ...], spend: Callable[[], None]):
    """(k, cycle) for each cycle of layer k, in lexicographic order of the cycles.

    Layer 0 is disc 0's subgraph and layer i + 1 is annulus i: the vertices
    of discs[i + 1] outside discs[i], with the edges of discs[i + 1] between
    them. `spend` is called once per DFS push in any layer.
    """
    layers = [_subgraph_adjacency(discs[0].vertices, discs[0].edges)] + [
        _subgraph_adjacency(outer.vertices - inner.vertices, outer.edges)
        for inner, outer in zip(discs, discs[1:])
    ]
    streams = [zip(repeat(k), _iter_cycles(adj, spend)) for k, adj in enumerate(layers)]
    return heapq.merge(*streams, key=lambda kc: kc[1].vertices)


def verify_tight(g: PlaneGraph, cc: ConcentricCycles, budget: int = 200_000) -> CheckResult:
    """Exhaustively re-check surface minimality and the annulus condition.

    Every simple cycle that a check can fail is examined: for minimality
    the cycles of disc 0's subgraph, and for the slip check of pair i those
    of annulus i, the vertices of disc i + 1 outside disc i with the edges
    of disc i + 1 between them. `budget` counts DFS steps in all these
    subgraphs together: one per vertex pushed onto a DFS path, each root
    included. A cycle's closed interior is derived only when its check
    reads it, and the first problem reported is the one an enumeration of
    every cycle in lexicographic order would meet first.
    """
    discs = cc.discs
    later = [c.normalized() for c in cc.cycles[1:]]
    message = f"over {budget} steps enumerating cycles"
    spend = Budget(budget, lambda: CycleBudgetExceeded(message)).spend
    # Each check can fail only the cycles of its own layer; make_concentric
    # nests every disc inside the next, faces and vertices.
    # - The minimality check fires only when region.faces <= discs[0].faces.
    #   Each edge of a cycle borders at least one interior face of that
    #   cycle, so that face lies in discs[0].faces. A closed interior holds
    #   every edge bordering one of its faces, so the edge and its ends lie
    #   in disc 0: the cycle is one of layer 0.
    # - The slip check for pair i reads only cycles that avoid the vertices
    #   of discs[i] and lie in discs[i + 1], vertices and edges: the cycles
    #   of layer i + 1.
    # The layers' vertex sets are pairwise disjoint, so each cycle is read
    # by exactly one check, and the merged stream meets the cycles in the
    # order of one enumeration over the outer disc.
    for k, cyc in _layer_cycles(discs, spend):
        if k == 0:
            if closed_interior(g, cyc).is_proper_subset_of(discs[0]):
                problem = f"disc 0 is not surface minimal: cycle {cyc.vertices} fits inside"
                return CheckResult(False, (problem,))
            continue
        if cyc.normalized() == later[k - 1]:
            continue
        region = closed_interior(g, cyc)
        if discs[k - 1].faces <= region.faces and region.faces < discs[k].faces:
            problem = f"cycle {cyc.vertices} slips between discs {k - 1} and {k}"
            return CheckResult(False, (problem,))
    return CheckResult(True, ())


# -- extraction from a grid minor ---------------------------------------------------


def ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def lemma_side_requirement(depth: int, forbidden_count: int) -> int:
    """Minimum grid side for depth+1 concentric cycles avoiding the forbidden set."""
    return 2 * (depth + 1) * ceil_sqrt(forbidden_count + 1)


def _cycle_through_branch_sets(
    g: PlaneGraph, sets: list[frozenset[int]]
) -> Optional[Cycle]:
    """A host cycle visiting each branch set once, joined by inter-set edges."""
    k = len(sets)
    links: list[tuple[int, int]] = []
    for i in range(k):
        a, b = sets[i], sets[(i + 1) % k]
        found = None
        for u in sorted(a):
            for v in sorted(b):
                if g.has_edge(u, v):
                    found = (u, v)
                    break
            if found:
                break
        if found is None:
            return None
        links.append(found)
    seq: list[int] = []
    for i in range(k):
        entry = links[(i - 1) % k][1]
        exit_ = links[i][0]
        sub = shortest_path(g, entry, exit_, within=sets[i])
        if sub is None:
            return None
        seq.extend(sub)
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return None
    return Cycle(tuple(seq))


def concentric_from_grid(
    g: PlaneGraph,
    model: GridMinorModel,
    forbidden: frozenset[int],
    depth: int,
) -> ConcentricCycles:
    """depth+1 tight concentric cycles whose outer disc avoids `forbidden`.

    Requires grid side >= 2*(depth+1)*ceil(sqrt(|forbidden|+1)); the side
    bound is asserted here, at the single extraction call site.
    """
    side = model.side()
    need = lemma_side_requirement(depth, len(forbidden))
    if side < need:
        raise InsufficientGridError(
            f"grid side {side} < required {need} for depth {depth} "
            f"avoiding {len(forbidden)} vertices"
        )
    check = verify_minor_model(g, model)
    if not check:
        raise PlaneGraphError(f"grid model failed verification: {check.problems[:3]}")
    block = 2 * (depth + 1)
    per_axis = side // block
    for bi in range(per_axis):
        for bj in range(per_axis):
            r0 = 1 + bi * block
            c0 = 1 + bj * block
            block_sets = [
                model.phi[(r, c)]
                for r in range(r0, r0 + block)
                for c in range(c0, c0 + block)
            ]
            if any(s & forbidden for s in block_sets):
                continue
            cycles: list[Cycle] = []
            ok = True
            for ring in range(depth + 1):
                # the ring-th ring out from the block's centre, ring 0 innermost
                top, left = r0 + depth - ring, c0 + depth - ring
                span = 2 * ring + 1
                sets = [
                    model.phi[pos]
                    for pos in rectangle_border(top, left, top + span, left + span)
                ]
                cyc = _cycle_through_branch_sets(g, sets)
                if cyc is None:
                    ok = False
                    break
                cycles.append(cyc)
            if not ok:
                continue
            try:
                cc = make_concentric(g, cycles)
            except PlaneGraphError:
                try:
                    cc = make_concentric(g, list(reversed(cycles)))
                except PlaneGraphError:
                    continue
            if cc.outer_disc().vertices & forbidden:
                continue
            cc = tighten(g, cc)
            if cc.outer_disc().vertices & forbidden:
                continue
            return cc
    raise InsufficientGridError(
        "no block of the grid model yields a concentric family avoiding the forbidden set"
    )

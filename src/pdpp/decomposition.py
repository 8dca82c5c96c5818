"""Branch and tree decompositions, exact widths, and grid-minor extraction.

Branch decompositions are verified where they are built, through one helper
that reads the width off a single order-set pass. Tree decompositions are
verified once, where the DP takes them (`solver.dp_solve`); the constructors
here do not repeat that check. The exact branchwidth decision
runs a budgeted closure over edge subsets with small boundary; exact treewidth
uses the subset DP over elimination prefixes. Both are desk-scale tools.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .plane import (
    Budget,
    BudgetExceeded,
    CheckResult,
    Edge,
    GridMinorModel,
    PlaneGraph,
    PlaneGraphError,
    bfs_distances,
    connected_components,
    grid_position_map,
    norm_edge,
    verify_minor_model,
)


# -- tree decompositions --------------------------------------------------------


@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted tree decomposition: parent[i] is node i's parent, -1 at the one root."""

    parent: tuple[int, ...]
    bags: tuple[frozenset[int], ...]
    width: int

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if p >= 0:
                out[p].append(v)
        return out

    def serialize(self) -> str:
        lines = []
        for i, bag in enumerate(self.bags):
            lines.append(f"node {i} bag " + " ".join(map(str, sorted(bag))))
        for i, p in enumerate(self.parent):
            if p >= 0:
                lines.append(f"link {p} {i}")
        return "\n".join(lines) + "\n"


def _bags_by_vertex(td: TreeDecomposition) -> dict[int, list[int]]:
    """Vertex -> indices of the bags holding it, in increasing order."""
    holding: dict[int, list[int]] = {}
    for i, bag in enumerate(td.bags):
        for v in bag:
            holding.setdefault(v, []).append(i)
    return holding


def verify_tree_decomposition(g: PlaneGraph, td: TreeDecomposition) -> CheckResult:
    problems: list[str] = []
    nodes = len(td.bags)
    if len(td.parent) != nodes:
        return CheckResult(False, ("parent/bag arrays differ in length",))
    stray = [i for i, p in enumerate(td.parent) if not -1 <= p < nodes]
    if stray:
        return CheckResult(False, (f"nodes {stray[:5]} have a parent out of range",))
    roots = [i for i, p in enumerate(td.parent) if p < 0]
    if len(roots) != 1:
        problems.append(f"expected one root, found {len(roots)}")
    # every node hangs below a root unless the parent links close a cycle
    if len(bfs_distances(dict(enumerate(td.children())), roots)) != nodes:
        problems.append("parent links do not form one tree")
        return CheckResult(False, tuple(problems))
    holding = _bags_by_vertex(td)
    missing = set(g.vertices) - holding.keys()
    if missing:
        problems.append(f"vertices {sorted(missing)[:5]} in no bag")
    for u, v in sorted(g.edges):
        if not any(v in td.bags[i] for i in holding.get(u, ())):
            problems.append(f"edge ({u},{v}) in no bag")
    # in a forest, the nodes holding v form one subtree exactly when one of
    # them is a root or has a parent without v
    for v in g.vertices:
        tops = sum(
            td.parent[i] < 0 or v not in td.bags[td.parent[i]] for i in holding.get(v, ())
        )
        if tops > 1:
            problems.append(f"bags containing {v} are disconnected")
    real_width = max((len(b) for b in td.bags), default=1) - 1
    if real_width != td.width:
        problems.append(f"declared width {td.width}, actual {real_width}")
    return CheckResult(not problems, tuple(problems))


# -- branch decompositions ------------------------------------------------------


@dataclass(frozen=True)
class BranchDecomposition:
    """Unrooted tree with degree-1/3 nodes; leaves carry host edges via tau."""

    tree_edges: tuple[tuple[int, int], ...]
    tau: dict[int, Edge] = field(hash=False)  # leaf node -> host edge
    width: int = 0

    def nodes(self) -> set[int]:
        out: set[int] = set()
        for a, b in self.tree_edges:
            out.add(a)
            out.add(b)
        if not out and self.tau:
            out.update(self.tau)
        return out

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in self.nodes()}
        for a, b in self.tree_edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def serialize(self) -> str:
        lines = []
        for leaf, (u, v) in sorted(self.tau.items()):
            lines.append(f"leaf {leaf} edge {u} {v}")
        for a, b in self.tree_edges:
            lines.append(f"link {a} {b}")
        return "\n".join(lines) + "\n"


def order_sets(bd: BranchDecomposition) -> dict[tuple[int, int], frozenset[int]]:
    """Order set of every tree edge: the host vertices with edges on both sides.

    One pass. The tree is rooted once and walked children first; each node
    keeps counts only for the host vertices still open below it, those with
    some but not all of their tau-edges in its subtree. That open set is the
    order set of the edge to the node's parent, so the pass costs
    O(nodes x width). Keys are the pairs of `bd.tree_edges` as stored.
    """
    if not bd.tree_edges:
        return {}
    degree: dict[int, int] = {}
    for e in bd.tau.values():
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    adj = bd.adjacency()
    root = bd.tree_edges[0][0]
    parent = {root: root}
    order = [root]
    for x in order:  # breadth first, so every child comes after its parent
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    open_below: dict[int, dict[int, int]] = {}
    for x in reversed(order):
        counts: dict[int, int] = {}
        for v in bd.tau.get(x, ()):
            counts[v] = counts.get(v, 0) + 1
        for y in adj[x]:
            if y != parent[x]:
                for v, c in open_below[y].items():
                    counts[v] = counts.get(v, 0) + c
        open_below[x] = {v: c for v, c in counts.items() if c < degree[v]}
    return {
        (a, b): frozenset(open_below[b if parent[b] == a else a])
        for a, b in bd.tree_edges
    }


def _tree_problems(g: PlaneGraph, bd: BranchDecomposition) -> list[str]:
    """Every check of `verify_branch_decomposition` but the width, for g.m >= 1."""
    if sorted(bd.tau.values()) != sorted(g.edges):
        return ["tau is not a bijection onto the host edges"]
    problems: list[str] = []
    adj = bd.adjacency()
    leaves = {v for v, nb in adj.items() if len(nb) == 1}
    if g.m == 1:
        if set(bd.tau) != bd.nodes() or bd.tree_edges:
            problems.append("single-edge graph needs a single-node tree")
    else:
        if set(bd.tau) != leaves:
            problems.append("tau keys are not exactly the tree leaves")
        for v, nb in adj.items():
            if len(nb) not in (1, 3):
                problems.append(f"tree node {v} has degree {len(nb)}")
        if len(bd.tree_edges) != len(adj) - 1:
            problems.append("tree has wrong edge count")
        else:
            seen = set()
            stack = [next(iter(adj))]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(adj[x])
            if seen != set(adj):
                problems.append("tree is disconnected")
    return problems


def verify_branch_decomposition(g: PlaneGraph, bd: BranchDecomposition) -> CheckResult:
    if g.m == 0:
        problems = []
        if bd.tau or bd.tree_edges:
            problems.append("edgeless graph needs an empty decomposition")
        if bd.width != 0:
            problems.append("edgeless graph has width 0")
        return CheckResult(not problems, tuple(problems))
    problems = _tree_problems(g, bd)
    if not problems:  # a single-edge tree has no tree edges, so width 0
        real_width = max(map(len, order_sets(bd).values()), default=0)
        if real_width != bd.width:
            problems.append(f"declared width {bd.width}, actual {real_width}")
    return CheckResult(not problems, tuple(problems))


# -- exact treewidth (subset DP over elimination prefixes) -----------------------

EXACT_TW_LIMIT = 17


def treewidth_exact(g: PlaneGraph) -> int:
    """Exact treewidth via DP over subsets; feasible for n <= ~17."""
    n = g.n
    if n > EXACT_TW_LIMIT:
        raise BudgetExceeded(f"exact treewidth limited to n <= {EXACT_TW_LIMIT}")
    if n == 0:
        return 0
    adj = [0] * (n + 1)
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def elim_degree(mask: int, v: int) -> int:
        # Neighbors of v reachable through the eliminated set `mask`.
        reach = adj[v] & mask
        frontier = reach
        while frontier:
            new = 0
            m = frontier
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                new |= adj[w]
            new &= mask
            frontier = new & ~reach
            reach |= frontier
        # vertices outside mask adjacent to v or to the reached set
        ext = adj[v] & ~mask & ~(1 << v)
        mm = reach
        while mm:
            w = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            ext |= adj[w] & ~mask & ~(1 << v)
        return bin(ext).count("1")

    full = ((1 << n) - 1) << 1
    INF = n + 10
    dp = {0: -1}
    for size in range(n):
        ndp: dict[int, int] = {}
        for mask, w in dp.items():
            m = full & ~mask
            while m:
                bit = m & -m
                v = bit.bit_length() - 1
                m &= m - 1
                cand = max(w, elim_degree(mask, v))
                nm = mask | bit
                old = ndp.get(nm, INF)
                if cand < old:
                    ndp[nm] = cand
        dp = ndp
    return dp[full]


# -- min-fill heuristic tree decomposition --------------------------------------


def minfill_order(g: PlaneGraph) -> tuple[list[int], int]:
    """Min-fill elimination order and its width; ties go to the smallest vertex.

    Each step eliminates the live vertex of least fill (pairs of its live
    neighbours not yet adjacent), turns its neighbourhood into a clique and
    drops it. Scores sit in a heap keyed (fill, vertex), and stale entries
    are skipped on pop. Eliminating v changes the neighbourhoods of N(v)
    only, and adds edges only inside N(v), so besides N(v) just the vertices
    with two or more neighbours in N(v) are rescored. The width is the most
    live neighbours a vertex has when it is eliminated: the width of
    `td_from_elimination` on the order, read without building its bags.
    """
    adj: dict[int, set[int]] = {v: set(g.rotation[v]) for v in g.vertices}

    def fill(v: int) -> int:
        nbrs = adj[v]
        d = len(nbrs)
        inside = 0  # each edge inside N(v) twice
        for a in nbrs:
            inside += len(adj[a] & nbrs)
        return d * (d - 1) // 2 - inside // 2

    score = {v: fill(v) for v in adj}
    heap = [(f, v) for v, f in score.items()]
    heapq.heapify(heap)
    order = []
    width = 0
    while heap:
        f, v = heapq.heappop(heap)
        if score.get(v) != f:
            continue  # eliminated, or rescored since this entry
        del score[v]
        order.append(v)
        nbrs = adj.pop(v)
        if len(nbrs) > width:
            width = len(nbrs)
        hits: dict[int, int] = {}
        for a in nbrs:
            near = adj[a]
            near.discard(v)
            for w in near:
                if w not in nbrs:
                    hits[w] = hits.get(w, 0) + 1
            near |= nbrs
            near.discard(a)
        rescore = list(nbrs)
        rescore += [w for w, c in hits.items() if c > 1]
        for w in rescore:
            f = fill(w)
            if f != score[w]:
                score[w] = f
                heapq.heappush(heap, (f, w))
    return order, width


def td_from_elimination(g: PlaneGraph, order: list[int]) -> TreeDecomposition:
    """Tree decomposition from an elimination order (fill-in bags).

    One node per vertex, in elimination order. A vertex's bag is itself and
    its neighbours still live when it is eliminated; its parent is the node
    of the first of those eliminated after it, or the last node.
    """
    pos = {v: i for i, v in enumerate(order)}
    adj: dict[int, set[int]] = {v: set(g.rotation[v]) for v in g.vertices}
    bag_list: list[frozenset[int]] = []
    parent = [-1] * len(order)
    for i, v in enumerate(order):
        higher = adj.pop(v)
        for a in higher:
            near = adj[a]
            near.discard(v)
            near |= higher
            near.discard(a)
        bag_list.append(frozenset(higher) | {v})
        if higher:
            parent[i] = min(pos[w] for w in higher)
    # The last-eliminated vertex is the root; hang the others missing parents on it.
    root = pos[order[-1]]
    for i in range(len(order)):
        if parent[i] < 0 and i != root:
            parent[i] = root
    width = max(len(b) for b in bag_list) - 1 if bag_list else 0
    return TreeDecomposition(tuple(parent), tuple(bag_list), width)


# -- maximum cardinality search ---------------------------------------------------


def _mcs_sweep(
    g: PlaneGraph, first: int, limit: int, mirrored: bool
) -> Optional[tuple[list[int], int]]:
    """One MCS sweep from `first`: (elimination order, peak frontier), or None.

    Each step visits the unvisited vertex with the most visited neighbours;
    ties go to the vertex raised last. Neighbours are raised in rotation
    order, or against it when `mirrored`. When no vertex has a visited
    neighbour, the next component starts at the least unvisited id. The
    order is the reverse of the visit order.

    Eliminated in that order, a vertex's bag is itself and the earlier
    visited vertices it reaches through later visited ones, each of which
    still had an unvisited neighbour at its visit. So the bag lies inside the
    vertex plus the frontier (visited vertices with unvisited neighbours),
    the order's width is at most the frontier's peak, and the sweep gives up
    as soon as the frontier outgrows `limit`. Counts are kept lazily in dicts
    and buckets hold stale entries, so giving up costs only the steps taken.
    """
    rotation = g.rotation
    count: dict[int, int] = {}  # unvisited vertex -> visited neighbours
    open_nbrs: dict[int, int] = {}  # visited vertex -> unvisited neighbours
    buckets: list[list[int]] = [[]]
    top = frontier = peak = 0
    visit = [first]
    next_id = 1
    v = first
    while True:
        open_nbrs[v] = len(rotation[v]) - count.pop(v, 0)
        if open_nbrs[v]:
            frontier += 1
        for w in reversed(rotation[v]) if mirrored else rotation[v]:
            if w in open_nbrs:
                open_nbrs[w] -= 1
                if not open_nbrs[w]:
                    frontier -= 1
                continue
            c = count.get(w, 0) + 1
            count[w] = c
            if c == len(buckets):
                buckets.append([])
            buckets[c].append(w)
            if c > top:
                top = c
        if frontier > limit:
            return None
        if frontier > peak:
            peak = frontier
        v = 0
        while top:
            bucket = buckets[top]
            while bucket:
                w = bucket.pop()
                if count.get(w) == top:  # not visited, not raised since
                    v = w
                    break
            if v:
                break
            top -= 1
        if not v:
            while next_id in open_nbrs:
                next_id += 1
            if next_id > g.n:
                visit.reverse()
                return visit, peak
            v = next_id
        visit.append(v)


def mcs_order(g: PlaneGraph, limit: int) -> Optional[list[int]]:
    """An MCS elimination order of width <= `limit`, or None.

    Two sweeps start at a least-degree vertex (the smallest id on ties):
    first the one raising neighbours in rotation order, then the one
    against it, which must beat the first's peak frontier when the first
    stayed within `limit`. The narrower one comes back. On a grid the two
    run along perpendicular sides, so the narrower runs along the shorter
    one. A sweep gives up as soon as it cannot stay within its limit (on a
    grid, within a row longer than the limit), so a failed attempt costs
    only its steps.
    """
    first = min(g.vertices, key=g.degree)
    best = None
    for mirrored in (False, True):
        swept = _mcs_sweep(g, first, limit, mirrored)
        if swept is not None:
            best, peak = swept
            limit = peak - 1
    return best


def tree_decompose(g: PlaneGraph) -> TreeDecomposition:
    """A tree decomposition of `g`, built from one elimination order.

    The MCS sweep's order whenever it is no wider than min-fill's, and
    min-fill's when no sweep stays within that width. On grids the sweep
    is a path decomposition of width min(rows, cols), where min-fill's is
    up to 3 wider and has joins; off grids min-fill is usually narrower,
    and a sweep that would be wider gives up early.
    """
    if g.n == 0:
        return TreeDecomposition((-1,), (frozenset(),), 0)
    order, width = minfill_order(g)
    sweep = mcs_order(g, width)
    return td_from_elimination(g, order if sweep is None else sweep)


# -- td -> bd translation (bw <= tw + 1 direction) -------------------------------


def _euler_tour(kids: list[list[int]], root: int):
    """Depth-first (node, entering) events over a rooted tree.

    Each node yields True before its subtree and False after it, children
    in the order of `kids`. Iterative, so a tree as deep as a path is fine.
    """
    yield root, True
    stack = [(root, iter(kids[root]))]
    while stack:
        node, rest = stack[-1]
        child = next(rest, None)
        if child is None:
            stack.pop()
            yield node, False
        else:
            yield child, True
            stack.append((child, iter(kids[child])))


def _fresh(counter: list[int]) -> int:
    counter[0] += 1
    return counter[0]


def bd_from_td(g: PlaneGraph, td: TreeDecomposition) -> BranchDecomposition:
    """Branch decomposition of width <= width(td) + 1.

    Hangs each host edge as a leaf under a tree-decomposition node whose
    bag contains it, then binarizes with combs.
    """
    if g.m == 0:
        return BranchDecomposition((), {}, 0)
    if g.m == 1:
        return BranchDecomposition((), {0: next(iter(g.edges))}, 0)
    assigned: dict[int, list[Edge]] = {i: [] for i in range(len(td.bags))}
    holding = _bags_by_vertex(td)
    for e in sorted(g.edges):
        u, v = e
        home = next(i for i in holding[u] if v in td.bags[i])
        assigned[home].append(e)
    counter = [0]
    tree_edges: list[tuple[int, int]] = []
    tau: dict[int, Edge] = {}
    kids = td.children()

    # Each node's edges become leaves when the walk enters it, and its hooks
    # (those leaves, then one per child subtree holding edges) are combed
    # into one when it leaves.
    hooks: dict[int, list[int]] = {}
    root = next(i for i, p in enumerate(td.parent) if p < 0)
    for node, entering in _euler_tour(kids, root):
        if entering:
            hooks[node] = []
            for e in assigned[node]:
                leaf = _fresh(counter)
                tau[leaf] = e
                hooks[node].append(leaf)
            continue
        mine = hooks.pop(node)
        while len(mine) > 1:
            a = mine.pop()
            b = mine.pop()
            j = _fresh(counter)
            tree_edges.append((j, a))
            tree_edges.append((j, b))
            mine.append(j)
        if mine and td.parent[node] >= 0:
            hooks[td.parent[node]].append(mine[0])
    # The comb above may give the topmost joint degree 2; splice it away.
    return _checked_bd(g, _normalize_bd(tree_edges, tau), "bd from td")


def _checked_bd(g: PlaneGraph, bd: BranchDecomposition, what: str) -> BranchDecomposition:
    """`bd` of a host with >= 2 edges, checked, with its width from one order_sets pass."""
    problems = _tree_problems(g, bd)
    if problems:
        raise PlaneGraphError(f"internal: bad {what}: {tuple(problems[:3])}")
    return BranchDecomposition(bd.tree_edges, bd.tau, max(map(len, order_sets(bd).values())))


def _normalize_bd(tree_edges: list[tuple[int, int]], tau: dict[int, Edge]) -> BranchDecomposition:
    """Suppress degree-2 internal nodes so all internal degrees are 3."""
    adj: dict[int, set[int]] = {}
    for a, b in tree_edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for leaf in tau:
        adj.setdefault(leaf, set())
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in tau:
                continue
            if len(adj[v]) == 2:
                a, b = sorted(adj[v])
                adj[a].discard(v)
                adj[b].discard(v)
                adj[a].add(b)
                adj[b].add(a)
                del adj[v]
                changed = True
            elif len(adj[v]) in (0, 1) and v not in tau:
                for w in adj[v]:
                    adj[w].discard(v)
                del adj[v]
                changed = True
    edges = []
    seen = set()
    for a in adj:
        for b in adj[a]:
            if (b, a) not in seen:
                seen.add((a, b))
                edges.append((a, b))
    return BranchDecomposition(tuple(edges), dict(tau), 0)


def caterpillar_bd(g: PlaneGraph, edge_order: list[Edge]) -> BranchDecomposition:
    """Linear branch decomposition following the given edge order."""
    if g.m == 0:
        return BranchDecomposition((), {}, 0)
    if g.m == 1:
        return BranchDecomposition((), {0: edge_order[0]}, 0)
    counter = [0]
    tau: dict[int, Edge] = {}
    tree_edges: list[tuple[int, int]] = []
    leaves = []
    for e in edge_order:
        leaf = _fresh(counter)
        tau[leaf] = e
        leaves.append(leaf)
    spine = leaves[0]
    for leaf in leaves[1:-1]:
        j = _fresh(counter)
        tree_edges.append((j, spine))
        tree_edges.append((j, leaf))
        spine = j
    tree_edges.append((spine, leaves[-1]))
    return _checked_bd(g, BranchDecomposition(tuple(tree_edges), tau, 0), "caterpillar")


def grid_sweep_order(g: PlaneGraph) -> list[Edge]:
    """Column-sweep edge order achieving width min(rows, cols) on grids."""
    rows, cols = g.grid_shape
    at = grid_position_map(g)
    if cols < rows:
        order = []
        for r in range(1, rows + 1):
            for c in range(1, cols + 1):
                if c + 1 <= cols:
                    order.append(norm_edge(at[(r, c)], at[(r, c + 1)]))
            if r + 1 <= rows:
                for c in range(1, cols + 1):
                    order.append(norm_edge(at[(r, c)], at[(r + 1, c)]))
        return order
    order = []
    for c in range(1, cols + 1):
        for r in range(1, rows + 1):
            if r + 1 <= rows:
                order.append(norm_edge(at[(r, c)], at[(r + 1, c)]))
        if c + 1 <= cols:
            for r in range(1, rows + 1):
                order.append(norm_edge(at[(r, c)], at[(r, c + 1)]))
    return order


# -- exact branchwidth decision (closure over small-boundary subsets) ------------

BW_CLOSURE_BUDGET = 150_000


def branchwidth_decision(g: PlaneGraph, b: int, budget: int = BW_CLOSURE_BUDGET) -> bool:
    """Is bw(g) <= b? Exhaustive closure over buildable edge subsets.

    One budget unit is one (subset, buildable subset) pair the closure tries.
    """
    edge_list = sorted(g.edges)
    m = len(edge_list)
    if m <= 1:
        return True
    vert_edge_count: dict[int, int] = {}
    for u, v in edge_list:
        vert_edge_count[u] = vert_edge_count.get(u, 0) + 1
        vert_edge_count[v] = vert_edge_count.get(v, 0) + 1

    def boundary(subset: frozenset[int]) -> int:
        inside: dict[int, int] = {}
        for i in subset:
            for v in edge_list[i]:
                inside[v] = inside.get(v, 0) + 1
        return sum(1 for v, cnt in inside.items() if cnt < vert_edge_count[v])

    full = frozenset(range(m))
    buildable: set[frozenset[int]] = set()
    queue: deque[frozenset[int]] = deque()
    for i in range(m):
        s = frozenset([i])
        if boundary(s) <= b:
            buildable.add(s)
            queue.append(s)
    spend = Budget(budget, lambda: BudgetExceeded("branchwidth closure budget exceeded")).spend
    while queue:
        s = queue.popleft()
        comp = full - s
        if comp in buildable:
            return True
        for t in list(buildable):
            spend()
            if s & t:
                continue
            u = s | t
            if u in buildable:
                continue
            if u != full and boundary(u) > b:
                continue
            if u == full:
                # the root tree edge needs both halves buildable, which holds
                return True
            buildable.add(u)
            queue.append(u)
    return any((full - s) in buildable for s in buildable)


def branchwidth_exact(g: PlaneGraph, budget: int = BW_CLOSURE_BUDGET) -> int:
    """Exact branchwidth by increasing decision queries (budgeted)."""
    if g.m <= 1:
        return 0
    if all(len(c) <= 2 for c in connected_components(g)):
        return 1
    b = 1
    while True:
        if branchwidth_decision(g, b, budget):
            return b
        b += 1


def branchwidth_lower_bound_from_tw(tw: int) -> int:
    """bw >= ceil(2(tw+1)/3), the contrapositive of tw+1 <= (3/2)bw."""
    return -((-2 * (tw + 1)) // 3)


# -- a decomposition, or a grid minor when one is found --------------------------


@dataclass(frozen=True)
class TooWide:
    """Certificate that the graph is wide: a verified grid minor model."""

    grid_model: GridMinorModel


def best_heuristic_bd(g: PlaneGraph) -> BranchDecomposition:
    """Verified branch decomposition: the grid sweep on grids, else via min-fill."""
    if g.grid_shape is not None and g.m >= 1:
        # the sweep reaches min(rows, cols), a grid's exact branchwidth, so
        # nothing built from a tree decomposition can be narrower
        return caterpillar_bd(g, grid_sweep_order(g))
    if not g.n:
        return BranchDecomposition((), {}, 0)
    return bd_from_td(g, td_from_elimination(g, minfill_order(g)[0]))


def branch_decompose(g: PlaneGraph, target: int) -> BranchDecomposition | TooWide:
    """A verified branch decomposition, or a verified grid minor.

    When the decomposition is wider than `target` (and target >= 2) and
    `find_grid_minor` finds a (target x target)-grid minor, only that minor
    comes back, as `TooWide`. Otherwise the decomposition comes back,
    whatever its width: no width bound is promised.
    """
    bd = best_heuristic_bd(g)
    if bd.width > target and target >= 2:
        model = find_grid_minor(g, target)
        if model is not None:
            return TooWide(model)
    return bd


def td_from_bd(g: PlaneGraph, bd: BranchDecomposition) -> TreeDecomposition:
    """Tree decomposition of width <= ceil(1.5 * width(bd)) - 1.

    Standard order-function translation: each internal node's bag is the
    union of the order sets of its three incident tree edges (all computed
    by one `order_sets` pass); a leaf's bag is its host edge.

    Every order set lies in some bag (an internal node's bag holds those of
    its incident edges, a leaf's host edge holds that of its one edge), so
    the width is also at least width(bd) - 1.

    The result has one node per tree node, about 2m, and most internal bags
    are near full width.
    """
    if g.m == 0:
        bags = [frozenset()] + [frozenset({v}) for v in g.vertices]
        parent = tuple([-1] + [0] * g.n)
        width = 0
        td = TreeDecomposition(parent, tuple(bags), width)
    elif g.m == 1:
        e = next(iter(bd.tau.values()))
        bags = [frozenset(e)]
        parent = [-1]
        extra = [v for v in g.vertices if v not in e]
        for v in extra:
            parent.append(0)
            bags.append(frozenset({v}))
        td = TreeDecomposition(tuple(parent), tuple(bags), 1)
    else:
        omega: dict[tuple[int, int], frozenset[int]] = {}
        for (a, b), s in order_sets(bd).items():
            omega[(a, b)] = omega[(b, a)] = s
        adj = bd.adjacency()
        node_ids = sorted(adj)
        index = {v: i for i, v in enumerate(node_ids)}
        bags_list: list[frozenset[int]] = []
        for v in node_ids:
            if v in bd.tau:
                bags_list.append(frozenset(bd.tau[v]))
            else:
                bag: frozenset[int] = frozenset()
                for w in adj[v]:
                    bag |= omega[(v, w)]
                bags_list.append(bag)
        root = node_ids[0]
        parent_arr = [-1] * len(node_ids)
        seen = {root}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    parent_arr[index[y]] = index[x]
                    queue.append(y)
        covered = set().union(*bags_list) if bags_list else set()
        for v in g.vertices:
            if v not in covered:
                parent_arr.append(index[root])
                bags_list.append(frozenset({v}))
        width = max(len(b) for b in bags_list) - 1
        td = TreeDecomposition(tuple(parent_arr), tuple(bags_list), width)
    bound = -((-3 * bd.width) // 2) - 1  # ceil(1.5 w) - 1
    if bd.width >= 1 and td.width > bound:
        raise PlaneGraphError(
            f"internal: td width {td.width} exceeds ceil(1.5*{bd.width})-1 = {bound}"
        )
    return td


# -- grid minors ------------------------------------------------------------------


def _grid_block_model(g: PlaneGraph, q: int) -> Optional[GridMinorModel]:
    rows, cols = g.grid_shape
    if q > min(rows, cols):
        return None
    at = grid_position_map(g)
    br = rows // q
    bc = cols // q
    phi = {}
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            block = {
                at[(r, c)]
                for r in range((i - 1) * br + 1, i * br + 1)
                for c in range((j - 1) * bc + 1, j * bc + 1)
            }
            phi[(i, j)] = frozenset(block)
    return GridMinorModel(q, q, phi)


def find_grid_minor(g: PlaneGraph, q: int) -> Optional[GridMinorModel]:
    """A verified (q x q)-grid minor model of a grid, or None.

    Only grids (`g.grid_shape`, derived by detect_grid) are searched: their
    rows and columns contract in blocks onto a q x q grid whenever
    q <= min(rows, cols). Any other host gets None, which says nothing
    about whether a minor exists. A host with fewer than q*q vertices has
    no room for the q*q disjoint branch sets and gets None before any grid
    detection. The returned model has passed verify_minor_model.
    """
    if q < 1:
        raise PlaneGraphError("grid side must be positive")
    if g.n < q * q or g.grid_shape is None:
        return None
    model = _grid_block_model(g, q)
    if model is not None:
        check = verify_minor_model(g, model)
        if not check:
            raise PlaneGraphError(f"internal: unverified grid model: {check.problems[:3]}")
    return model

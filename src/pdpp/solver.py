"""Top-level algorithms: irrelevant-vertex reduction, decomposition DP, pipeline.

The DP runs over a nice tree decomposition with explicit edge-introduction
nodes. States track, per bag vertex, whether it is untouched, a live end of
a path fragment, or closed; live ends carry either their in-bag partner or
the hidden terminal their fragment already reached. Completed terminal
pairs accumulate in a done bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .concentric import (
    ConcentricCycles,
    InsufficientGridError,
    ceil_sqrt,
    concentric_from_grid,
    lemma_side_requirement,
)
from .decomposition import (
    BranchDecomposition,
    TooWide,
    TreeDecomposition,
    _bags_by_vertex,
    _euler_tour,
    branch_decompose,
    td_from_bd,
    tree_decompose,
    verify_tree_decomposition,
)
from .instances import DppInstance, Solution
from .oracle import SolveOutcome, Status, solve_bruteforce, verify_solution
from .plane import (
    GridMinorModel,
    PlaneGraph,
    PlaneGraphError,
    delete_vertices,
    norm_edge,
    shortest_path,
)


class DpBudgetExceeded(RuntimeError):
    """The DP table outgrew its configured state budget."""


# -- the paper's arithmetic -------------------------------------------------------


def grid_requirement(k: int) -> int:
    """Grid side q(k) = 2 (k 2^{k+1} - 11) ceil(sqrt(2k+1)) needed for certs."""
    if k < 2:
        raise ValueError("the certified grid requirement is defined for k >= 2")
    return 2 * (k * 2 ** (k + 1) - 11) * ceil_sqrt(2 * k + 1)


def reduction_depth(k: int) -> int:
    """Number of concentric cycles minus one: r(k) = k 2^{k+1} - 12."""
    if k < 2:
        raise ValueError("the certified depth is defined for k >= 2")
    return k * 2 ** (k + 1) - 12


def threshold_dominates_requirement(k: int) -> bool:
    """26 k^{3/2} 2^k >= 4.5 q(k) + 1, checked in exact integer arithmetic."""
    q = grid_requirement(k)
    lhs = 4 * (26 ** 2) * (4 ** k) * (k ** 3)  # (2 * 26 * 2^k)^2 * k^3
    rhs = (9 * q + 2) ** 2  # (2 * (4.5 q + 1))^2
    return lhs >= rhs


def treewidth_threshold(k: int) -> float:
    """The paper's treewidth bound 26 k^{3/2} 2^k.

    No code path decides a reduction from this value: certified mode gates
    on the grid side q(k) = grid_requirement(k), which is exactly the
    extraction bound for reduction_depth(k) + 1 cycles avoiding the 2k
    terminals. The companion check threshold_dominates_requirement(k)
    evaluates the claimed inequality 26 k^{3/2} 2^k >= 4.5 q(k) + 1
    exactly; it is false for most k >= 5 (the ceiling in q(k) outgrows the
    26 k^{3/2} budget), so it is exposed as a predicate rather than
    asserted here.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return 26.0 * k ** 1.5 * 2 ** k


# -- irrelevant vertices -------------------------------------------------------------


@dataclass(frozen=True)
class ReductionCertificate:
    removed_vertex: int
    grid_side: int
    cycles: ConcentricCycles
    k: int
    mode: str  # "certified" | "heuristic"
    oracle_checked: Optional[bool]  # None when no oracle cross-check finished

    def log_line(self) -> str:
        return (
            f"irrelevant {self.removed_vertex} grid {self.grid_side} "
            f"cycles {len(self.cycles.cycles)} mode {self.mode} "
            + ("oracle yes" if self.oracle_checked else "oracle unchecked")
        )


ORACLE_CHECK_VERTEX_LIMIT = 70


def find_irrelevant_vertex(
    inst: DppInstance,
    model: GridMinorModel,
    mode: str = "certified",
    oracle_budget: int = 4_000_000,
) -> Optional[ReductionCertificate]:
    """A deletion certificate from the grid model, or None.

    Certified mode needs grid side >= q(k) and issues the deepest cycle
    family the formulas prescribe. Heuristic mode uses the deepest family
    the grid affords and cross-checks the removal against the exhaustive
    oracle whenever the host is small enough; a failed cross-check
    withholds the certificate.
    """
    g = inst.graph
    k = inst.k
    terminals = frozenset(inst.terminals())
    side = model.side()
    if mode == "certified":
        if k == 1:
            depth = 0
            if side < lemma_side_requirement(0, len(terminals)):
                return None
        else:
            if side < grid_requirement(k):
                return None
            depth = reduction_depth(k)
    elif mode == "heuristic":
        c = ceil_sqrt(len(terminals) + 1)
        depth = side // (2 * c) - 1
        if depth < 0:
            return None
    else:
        raise ValueError(f"unknown mode {mode!r}")
    try:
        cc = concentric_from_grid(g, model, terminals, depth)
    except InsufficientGridError:
        return None
    candidates = sorted(cc.discs[0].vertices)
    victim = candidates[0]
    checked: Optional[bool] = None
    if mode == "heuristic" and k >= 2:
        if g.n <= ORACLE_CHECK_VERTEX_LIMIT:
            checked = _oracle_confirms_irrelevant(inst, victim, oracle_budget)
            if checked is False:
                return None
    return ReductionCertificate(victim, side, cc, k, mode, checked)


def _oracle_confirms_irrelevant(inst: DppInstance, victim: int, budget: int) -> Optional[bool]:
    before = solve_bruteforce(inst, budget)
    if before.status is Status.UNKNOWN:
        return None
    g2, remap = delete_vertices(inst.graph, [victim])
    pairs2 = tuple((remap[s], remap[t]) for s, t in inst.pairs)
    after = solve_bruteforce(DppInstance(g2, pairs2), budget)
    if after.status is Status.UNKNOWN:
        return None
    return before.status == after.status


# -- nice tree decompositions ----------------------------------------------------------


@dataclass
class _Nice:
    kind: str  # "leaf" | "intro" | "forget" | "edge" | "join"
    bag: tuple[int, ...]
    children: tuple[int, ...]
    vertex: int = 0
    edge: tuple[int, int] = (0, 0)


def nice_tree(g: PlaneGraph, td: TreeDecomposition) -> tuple[list[_Nice], int]:
    """Nice decomposition with edge nodes; returns (nodes, root index)."""
    nodes: list[_Nice] = []

    def add(node: _Nice) -> int:
        nodes.append(node)
        return len(nodes) - 1

    kids = td.children()
    edge_home: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(td.bags))}
    holding = _bags_by_vertex(td)
    for e in sorted(g.edges):
        u, v = e
        home = next(i for i in holding[u] if v in td.bags[i])  # lowest index
        edge_home[home].append(e)

    def chain_to(bag_from: frozenset[int], bag_to: frozenset[int], below: int) -> int:
        cur = below
        cur_bag = set(bag_from)
        for v in sorted(bag_from - bag_to):
            cur_bag.discard(v)
            cur = add(_Nice("forget", tuple(sorted(cur_bag)), (cur,), vertex=v))
        for v in sorted(bag_to - bag_from):
            cur_bag.add(v)
            cur = add(_Nice("intro", tuple(sorted(cur_bag)), (cur,), vertex=v))
        return cur

    # children's chains are hooked under a node in order, as the walk
    # leaves each child's subtree
    hooks: dict[int, list[int]] = {}
    root_td = next(i for i, p in enumerate(td.parent) if p < 0)
    for t, entering in _euler_tour(kids, root_td):
        if entering:
            hooks[t] = []
            continue
        bag = td.bags[t]
        mine = hooks.pop(t)
        if not mine:
            cur = add(_Nice("leaf", (), ()))
            cur = chain_to(frozenset(), bag, cur)
        else:
            cur = mine[0]
            for other in mine[1:]:
                cur = add(_Nice("join", tuple(sorted(bag)), (cur, other)))
        for e in edge_home[t]:
            cur = add(_Nice("edge", tuple(sorted(bag)), (cur,), edge=e))
        parent = td.parent[t]
        if parent >= 0:
            hooks[parent].append(chain_to(bag, td.bags[parent], cur))
    top = chain_to(td.bags[root_td], frozenset(), cur)
    return nodes, top


# -- the dynamic program -----------------------------------------------------------------

# A state is a flat tuple: one int code per bag position, in bag order,
# then the done pairs as a bitmask over pair indices (bit i: pair i is
# finished). Vertex ids are dense and start at 1, so the codes are
#   0          untouched
#   1          closed (interior, or endpoint of a finished pair)
#   2*w        live end, partner end at bag vertex w
#   2*x + 1    live end, partner end is the already-forgotten terminal x
# The code of a live end is also how its partner end is named when two
# ends are settled (`_settle_ends`).
#
# Each nice node has one table, a dict from state to back pointer in
# insertion order: None at the leaf, the child state at intro, forget and
# edge nodes, and (left state, right state) at joins. Taking an edge always
# changes the code of one of its ends, so an edge node's state that equals
# its back pointer skipped the edge, and any other took it.


def dp_solve(
    inst: DppInstance,
    td: Optional[TreeDecomposition] = None,
    state_budget: int = 400_000,
) -> SolveOutcome:
    """Bag-state DP over a (nice) tree decomposition, with reconstruction."""
    g = inst.graph
    if td is None:
        td = tree_decompose(g)
    check = verify_tree_decomposition(g, td)
    if not check:
        raise PlaneGraphError(f"bad tree decomposition: {check.problems[:3]}")
    nodes, root = nice_tree(g, td)
    terminal_pair: dict[int, int] = {}
    partner: dict[int, int] = {}
    for i, (s, t) in enumerate(inst.pairs):
        terminal_pair[s] = terminal_pair[t] = i
        partner[s] = t
        partner[t] = s

    tables: list[dict] = []
    total_states = 0
    for idx, node in enumerate(nodes):
        bag = node.bag
        kind = node.kind
        if kind == "leaf":
            table = {(0,): None}
        elif kind == "intro":
            p = bag.index(node.vertex)
            # distinct child states stay distinct, so nothing collides
            table = {
                cstate[:p] + (0,) + cstate[p:]: cstate
                for cstate in tables[node.children[0]]
            }
        elif kind == "forget":
            (child,) = node.children
            v = node.vertex
            p = nodes[child].bag.index(v)
            pos = {w: i for i, w in enumerate(bag)}
            is_terminal = v in terminal_pair
            table = {}
            for cstate in tables[child]:
                code = cstate[p]
                state = cstate[:p] + cstate[p + 1 :]
                if code == 0:
                    if is_terminal:
                        continue
                elif code == 1:
                    pass
                elif code & 1:  # two hidden ends can never meet again
                    continue
                else:
                    if not is_terminal:
                        continue
                    out = list(state)
                    out[pos[code >> 1]] = 2 * v + 1
                    state = tuple(out)
                if state not in table:
                    table[state] = cstate
        elif kind == "edge":
            u, v = node.edge
            pos = {w: i for i, w in enumerate(bag)}
            iu, iv = pos[u], pos[v]
            u_terminal = u in terminal_pair
            v_terminal = v in terminal_pair
            table = {}
            for cstate in tables[node.children[0]]:
                if cstate not in table:  # skip the edge
                    table[cstate] = cstate
                cu, cv = cstate[iu], cstate[iv]
                if cu == 1 or cv == 1:
                    continue
                if (u_terminal and cu) or (v_terminal and cv):
                    continue
                out = list(cstate)
                if not cu and not cv:
                    bit = _settle_ends(out, pos, 2 * u, 2 * v, terminal_pair, partner)
                elif not cu or not cv:
                    if not cu:
                        fresh, live, clive = u, iv, cv
                    else:
                        fresh, live, clive = v, iu, cu
                    # live end absorbs the edge; fresh vertex becomes the end
                    out[live] = 1
                    # a live end paired with fresh would close a cycle
                    bit = -1 if clive == 2 * fresh else _settle_ends(
                        out, pos, 2 * fresh, clive, terminal_pair, partner
                    )
                elif cu == 2 * v:
                    continue  # both live ends of one fragment: a cycle
                else:
                    # both live: merging two fragments
                    out[iu] = out[iv] = 1
                    bit = _settle_ends(out, pos, cu, cv, terminal_pair, partner)
                if bit < 0:
                    continue
                out[-1] |= bit
                state = tuple(out)
                if state not in table:
                    table[state] = cstate
        elif kind == "join":
            left, right = node.children
            pos = {w: i for i, w in enumerate(bag)}
            join = _join_pair  # read here, not at import, so tests can wrap it
            lefts = [_prepare_join(state, pos) for state in tables[left]]
            # the filter fields up front, so the inner loop unpacks them
            rights = [
                (prep[0], prep[1], prep[2], prep[3], prep)
                for prep in (_prepare_join(state, pos) for state in tables[right])
            ]
            table = {}
            for lp in lefts:
                lstate, lclosed, ltouched, ldone = lp[0], lp[1], lp[2], lp[3]
                for rstate, rclosed, rtouched, rdone, rp in rights:
                    # closed on one side must be untouched on the other
                    if (lclosed & rtouched) | (rclosed & ltouched):
                        continue
                    if ldone & rdone:
                        continue
                    merged = join(lp, rp, bag, pos, terminal_pair, partner)
                    if merged is None or merged in table:
                        continue
                    table[merged] = (lstate, rstate)
                # counted per row, so a runaway join stops early
                if total_states + len(table) > state_budget:
                    raise DpBudgetExceeded(
                        f"DP exceeded {state_budget} states at node {idx}"
                    )
        else:
            raise AssertionError(kind)
        total_states += len(table)
        if total_states > state_budget:
            raise DpBudgetExceeded(f"DP exceeded {state_budget} states at node {idx}")
        tables.append(table)

    accept = ((1 << inst.k) - 1,)
    if accept not in tables[root]:
        return SolveOutcome(Status.NO)
    edges = _reconstruct(nodes, tables, root, accept)
    sol = _solution_from_edges(inst, edges)
    check = verify_solution(inst, sol)
    if not check:
        raise PlaneGraphError(f"internal: DP produced invalid solution: {check.problems[:3]}")
    return SolveOutcome(Status.YES, sol)


def _prepare_join(state, pos):
    """A child state of a join node, prepared once for all of its pairs.

    Returns (state, closed, touched, done, live, touched_at, link):
    bitmasks over bag positions (closed, touched, live) and the done mask,
    the touched positions in bag order, and per live position where its
    fragment leads: the partner's bag position, or ~x for the hidden
    terminal x.
    """
    closed = touched = 0
    touched_at = []
    link = [0] * (len(state) - 1)
    for i in range(len(state) - 1):
        code = state[i]
        if not code:
            continue
        touched |= 1 << i
        touched_at.append(i)
        if code == 1:
            closed |= 1 << i
        elif code & 1:
            link[i] = ~(code >> 1)
        else:
            link[i] = pos[code >> 1]
    return (state, closed, touched, state[-1], touched & ~closed, tuple(touched_at), link)


def _join_pair(lp, rp, bag, pos, terminal_pair, partner):
    """Merge two prepared child states over `bag`, or None when incompatible.

    The caller has already rejected pairs that share a done pair or where a
    vertex closed on one side is touched on the other. A vertex live on
    both sides becomes interior to a merged fragment. Each merged fragment
    is walked once, from a bag end live on one side only or from a hidden
    end, switching sides at every vertex live on both, and its two ends are
    settled. A fragment meeting no such vertex keeps its codes: every
    fragment in a table was settled when it was made. A vertex live on
    both sides that no walk reaches lies on a cycle, so the pair is
    rejected.
    """
    out = list(lp[0])
    rstate = rp[0]
    for i in rp[5]:
        out[i] = rstate[i]
    done = lp[3] | rp[3]
    both = lp[4] & rp[4]
    if not both:
        out[-1] = done
        return tuple(out)
    lives = (lp[4], rp[4])
    links = (lp[6], rp[6])
    # walks as (position, start end code, first vertex live on both, side to read)
    from_bag = []
    from_hidden = []
    for s, prep in ((0, lp), (1, rp)):
        live, link = lives[s], links[s]
        for i in prep[5]:
            if not live >> i & 1:
                continue
            j = link[i]
            if both >> i & 1:
                out[i] = 1
                if j < 0:
                    from_hidden.append((i, 2 * ~j + 1, i, 1 - s))
            elif j >= 0 and both >> j & 1:
                from_bag.append((i, 2 * bag[i], j, 1 - s))
    seen = 0
    for walks in (from_bag, from_hidden):
        for i, start, j, t in walks:
            if seen >> i & 1:
                continue  # the far end of an earlier walk
            seen |= 1 << i
            while True:
                seen |= 1 << j
                k = links[t][j]
                if k < 0:
                    end = 2 * ~k + 1
                    break
                t = 1 - t
                if not lives[t] >> k & 1:
                    seen |= 1 << k
                    end = 2 * bag[k]
                    break
                j = k
            bit = _settle_ends(out, pos, start, end, terminal_pair, partner)
            if bit < 0:
                return None
            done |= bit
    if both & ~seen:
        return None  # a vertex live on both sides lies on a cycle
    out[-1] = done
    return tuple(out)


def _settle_ends(out, pos, end_a, end_b, terminal_pair, partner):
    """Settle the two ends of one fragment: the done bit it adds, or -1.

    Ends are named by the codes of their partners: 2*v for bag vertex v,
    2*x + 1 for the hidden terminal x. The bag ends' new codes are written
    into `out` at their bag positions. Returns the bit of the terminal pair
    the fragment finishes, 0 when it finishes none, and -1 when the state
    is dead.
    """
    va, vb = end_a >> 1, end_b >> 1
    ta = terminal_pair.get(va)
    tb = terminal_pair.get(vb)
    if end_a & 1 and end_b & 1:
        if ta is not None and ta == tb and partner[va] == vb:
            return 1 << ta
        return -1
    if end_a & 1:
        end_a, end_b, va, vb, ta, tb = end_b, end_a, vb, va, tb, ta
    if end_b & 1:
        if ta is not None:
            if ta == tb and partner[va] == vb:
                out[pos[va]] = 1
                return 1 << ta
            return -1
        out[pos[va]] = end_b
        return 0
    if ta is not None and tb is not None:
        if ta == tb and partner[va] == vb:
            out[pos[va]] = 1
            out[pos[vb]] = 1
            return 1 << ta
        return -1
    out[pos[va]] = end_b
    out[pos[vb]] = end_a
    return 0


def _reconstruct(nodes, tables, idx, state) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    stack = [(idx, state)]
    while stack:
        i, st = stack.pop()
        info = tables[i][st]
        node = nodes[i]
        if node.kind == "leaf":
            continue
        if node.kind == "join":
            stack.append((node.children[0], info[0]))
            stack.append((node.children[1], info[1]))
            continue
        if node.kind == "edge" and info != st:
            edges.add(norm_edge(*node.edge))
        stack.append((node.children[0], info))
    return edges


def _solution_from_edges(inst: DppInstance, edges: set[tuple[int, int]]) -> Solution:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    paths = []
    for s, t in inst.pairs:
        path = [s]
        prev = None
        cur = s
        while cur != t:
            nxts = [w for w in adj.get(cur, []) if w != prev]
            if len(nxts) != 1:
                raise PlaneGraphError(
                    f"internal: reconstruction stuck at {cur} for pair ({s},{t})"
                )
            prev, cur = cur, nxts[0]
            path.append(cur)
        paths.append(tuple(path))
    return Solution(tuple(paths))


# -- the full pipeline ----------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    outcome: SolveOutcome
    certificates: tuple[ReductionCertificate, ...]
    removed_original_ids: tuple[int, ...]
    iterations: int
    # the tree decomposition the final DP ran on, in original vertex ids;
    # None when no DP ran. After a reduction it covers the reduced graph.
    decomposition: Optional[TreeDecomposition] = None

    @property
    def status(self) -> Status:
        return self.outcome.status


def heuristic_grid_target(k: int) -> int:
    """Smallest grid side the heuristic reduction can use (depth 0)."""
    return lemma_side_requirement(0, 2 * k)


def solve_pipeline(
    inst: DppInstance,
    epsilon: float = 1.0,
    mode: str = "heuristic",
    dp_state_budget: int = 400_000,
    max_iterations: int = 10_000,
) -> PipelineResult:
    """Reduce while a big enough grid minor exists, then DP on a decomposition."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    factor = int(2 / epsilon + 3)
    k = inst.k
    if k == 1:
        s, t = inst.pairs[0]
        path = shortest_path(inst.graph, s, t)
        if path is None:
            return PipelineResult(SolveOutcome(Status.NO), (), (), 0)
        sol = Solution((tuple(path),))
        return PipelineResult(SolveOutcome(Status.YES, sol), (), (), 0)
    target = grid_requirement(k) if mode == "certified" else heuristic_grid_target(k)
    cur = inst
    to_original: dict[int, int] = {v: v for v in inst.graph.vertices}
    certificates: list[ReductionCertificate] = []
    removed: list[int] = []
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        minfill = tree_decompose(cur.graph)
        out = branch_decompose(cur.graph, target, factor=factor, td=minfill)
        if isinstance(out, TooWide):
            cert = find_irrelevant_vertex(cur, out.grid_model, mode=mode)
            if cert is not None:
                certificates.append(cert)
                removed.append(to_original[cert.removed_vertex])
                g2, remap = delete_vertices(cur.graph, [cert.removed_vertex])
                to_original = {
                    new: to_original[old] for old, new in remap.items()
                }
                pairs2 = tuple((remap[s], remap[t]) for s, t in cur.pairs)
                cur = DppInstance(g2, pairs2)
                continue
            bd = out.bd
        else:
            bd = out
        # Min-fill gives n bags, td_from_bd about 2m bags near full width, so
        # at equal width the DP is much cheaper on min-fill's. td_from_bd is
        # still strictly narrower on some inputs (unreduced grids of side >= 7).
        # Its width is at least bd.width - 1 (see td_from_bd), so it is built
        # only when that bound is below min-fill's width.
        td = minfill
        if bd.width - 1 < minfill.width:
            from_bd = td_from_bd(cur.graph, bd)
            if from_bd.width < minfill.width:
                td = from_bd
        used = TreeDecomposition(
            td.parent,
            tuple(frozenset(to_original[v] for v in bag) for bag in td.bags),
            td.width,
        )
        try:
            outcome = dp_solve(cur, td, state_budget=dp_state_budget)
        except DpBudgetExceeded as exc:
            reason = (
                "CERTIFIED_INFEASIBLE" if mode == "certified" else str(exc)
            )
            return PipelineResult(
                SolveOutcome(Status.UNKNOWN, reason=reason),
                tuple(certificates),
                tuple(removed),
                iterations,
                used,
            )
        if outcome.status is Status.YES:
            paths = tuple(
                tuple(to_original[v] for v in p) for p in outcome.solution.paths
            )
            sol = Solution(paths)
            check = verify_solution(inst, sol)
            if not check:
                raise PlaneGraphError(
                    f"internal: pipeline solution invalid: {check.problems[:3]}"
                )
            outcome = SolveOutcome(Status.YES, sol)
        return PipelineResult(
            outcome, tuple(certificates), tuple(removed), iterations, used
        )
    return PipelineResult(
        SolveOutcome(Status.UNKNOWN, reason="iteration limit"),
        tuple(certificates),
        tuple(removed),
        iterations,
    )

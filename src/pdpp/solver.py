"""Top-level algorithms: irrelevant-vertex reduction, decomposition DP, pipeline.

The DP runs over a nice tree decomposition with explicit edge-introduction
nodes. States track, per bag vertex, whether it is untouched, a live end of
a path fragment, or closed; live ends carry either their in-bag partner or
the hidden terminal their fragment already reached. Completed terminal
pairs accumulate in a done-set.
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

    def build(t: int) -> int:
        bag = td.bags[t]
        hooks = []
        for ch in kids[t]:
            sub = build(ch)
            hooks.append(chain_to(td.bags[ch], bag, sub))
        if not hooks:
            cur = add(_Nice("leaf", (), ()))
            cur = chain_to(frozenset(), bag, cur)
        else:
            cur = hooks[0]
            for other in hooks[1:]:
                cur = add(_Nice("join", tuple(sorted(bag)), (cur, other)))
        for e in edge_home[t]:
            cur = add(_Nice("edge", tuple(sorted(bag)), (cur,), edge=e))
        return cur

    root_td = next(i for i, p in enumerate(td.parent) if p < 0)
    top = build(root_td)
    top = chain_to(td.bags[root_td], frozenset(), top)
    return nodes, top


# -- the dynamic program -----------------------------------------------------------------

# per-vertex codes inside a state tuple:
#   ("u",)            untouched
#   ("c",)            closed (interior, or endpoint of a finished pair)
#   ("p", w)          live end, partner end at bag vertex w
#   ("h", x)          live end, partner end is the already-forgotten terminal x

_U = ("u",)
_C = ("c",)


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
    all_pairs = frozenset(range(inst.k))

    tables: list[dict] = [dict() for _ in nodes]
    back: list[dict] = [dict() for _ in nodes]
    total_states = 0

    def put(idx: int, state, info) -> None:
        nonlocal total_states
        if state not in tables[idx]:
            tables[idx][state] = True
            back[idx][state] = info
            total_states += 1
            if total_states > state_budget:
                raise DpBudgetExceeded(
                    f"DP exceeded {state_budget} states at node {idx}"
                )

    for idx, node in enumerate(nodes):
        bag = node.bag
        if node.kind == "leaf":
            put(idx, ((), frozenset()), ("leaf",))
            continue
        if node.kind == "intro":
            (child,) = node.children
            p = bag.index(node.vertex)
            for key in tables[child]:
                cstate, done = key
                put(idx, (cstate[:p] + (_U,) + cstate[p:], done), ("intro", key))
            continue
        pos = {v: i for i, v in enumerate(bag)}
        if node.kind == "forget":
            (child,) = node.children
            v = node.vertex
            p = nodes[child].bag.index(v)
            for key in tables[child]:
                cstate, done = key
                code = cstate[p]
                state = cstate[:p] + cstate[p + 1 :]
                if code == _U:
                    if v in terminal_pair:
                        continue
                elif code == _C:
                    pass
                elif code[0] == "p":
                    if v not in terminal_pair:
                        continue
                    out = list(state)
                    out[pos[code[1]]] = ("h", v)
                    state = tuple(out)
                else:  # ("h", x): two hidden ends can never meet again
                    continue
                put(idx, (state, done), ("forget", key))
            continue
        if node.kind == "edge":
            (child,) = node.children
            u, v = node.edge
            iu, iv = pos[u], pos[v]
            for key in tables[child]:
                put(idx, key, ("skip", key))
                cstate, done = key
                cu, cv = cstate[iu], cstate[iv]
                if cu == _C or cv == _C:
                    continue
                if u in terminal_pair and cu != _U:
                    continue
                if v in terminal_pair and cv != _U:
                    continue
                new_done = set(done)
                out = list(cstate)
                codes = _ByVertex(out, pos)
                if cu == _U and cv == _U:
                    ok = _settle_ends(
                        codes, new_done, ("bag", u), ("bag", v), terminal_pair, partner
                    )
                elif cu == _U or cv == _U:
                    if cu == _U:
                        fresh, live, clive = u, v, cv
                    else:
                        fresh, live, clive = v, u, cu
                    # live end absorbs the edge; fresh vertex becomes the end
                    codes[live] = _C
                    if clive[0] == "p":
                        w = clive[1]
                        # w == fresh would close a cycle through the edge
                        ok = w != fresh and _settle_ends(
                            codes, new_done, ("bag", fresh), ("bag", w),
                            terminal_pair, partner,
                        )
                    else:
                        ok = _settle_ends(
                            codes, new_done, ("bag", fresh), ("hid", clive[1]),
                            terminal_pair, partner,
                        )
                elif cu[0] == "p" and cu[1] == v:
                    ok = False  # both live ends of one fragment: a cycle
                else:
                    # both live: merging two fragments
                    end_u = ("bag", cu[1]) if cu[0] == "p" else ("hid", cu[1])
                    end_v = ("bag", cv[1]) if cv[0] == "p" else ("hid", cv[1])
                    codes[u] = _C
                    codes[v] = _C
                    ok = _settle_ends(codes, new_done, end_u, end_v, terminal_pair, partner)
                if not ok:
                    continue
                put(idx, (tuple(out), frozenset(new_done)), ("take", key))
            continue
        if node.kind == "join":
            left, right = node.children
            join = _join_pair  # read here, not at import, so tests can wrap it
            lefts = [_prepare_join(key, pos) for key in tables[left]]
            # the filter fields up front, so the inner loop unpacks them
            rights = [
                (prep[0], prep[1], prep[2], prep[3], prep)
                for prep in (_prepare_join(key, pos) for key in tables[right])
            ]
            for lp in lefts:
                lkey, lclosed, ltouched, ldone = lp[0], lp[1], lp[2], lp[3]
                for rkey, rclosed, rtouched, rdone, rp in rights:
                    # closed on one side must be untouched on the other
                    if (lclosed & rtouched) | (rclosed & ltouched):
                        continue
                    if ldone & rdone:
                        continue
                    merged = join(lp, rp, bag, pos, terminal_pair, partner)
                    if merged is None:
                        continue
                    put(idx, merged, ("join", lkey, rkey))
            continue
        raise AssertionError(node.kind)

    accept = ((), all_pairs)
    if accept not in tables[root]:
        return SolveOutcome(Status.NO)
    edges = _reconstruct(nodes, back, root, accept)
    sol = _solution_from_edges(inst, edges)
    check = verify_solution(inst, sol)
    if not check:
        raise PlaneGraphError(f"internal: DP produced invalid solution: {check.problems[:3]}")
    return SolveOutcome(Status.YES, sol)


class _ByVertex:
    """Lets `_settle_ends` write codes by vertex into a bag-position list."""

    __slots__ = ("codes", "pos")

    def __init__(self, codes: list, pos: dict[int, int]):
        self.codes = codes
        self.pos = pos

    def __setitem__(self, v: int, code: tuple) -> None:
        self.codes[self.pos[v]] = code


def _prepare_join(key, pos):
    """A child state of a join node, prepared once for all of its pairs.

    Returns (key, closed, touched, done, live, touched_at, link): bitmasks
    over bag positions (closed, touched, live) and over pair indices
    (done), the touched positions in bag order, and per live position where
    its fragment leads: the partner's bag position, or ~x for the hidden
    terminal x.
    """
    state, done = key
    closed = touched = 0
    touched_at = []
    link = [0] * len(state)
    for i, code in enumerate(state):
        tag = code[0]
        if tag == "u":
            continue
        touched |= 1 << i
        touched_at.append(i)
        if tag == "c":
            closed |= 1 << i
        elif tag == "p":
            link[i] = pos[code[1]]
        else:
            link[i] = ~code[1]
    done_mask = 0
    for p in done:
        done_mask |= 1 << p
    return (key, closed, touched, done_mask, touched & ~closed, tuple(touched_at), link)


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
    lkey, rkey = lp[0], rp[0]
    out = list(lkey[0])
    rstate = rkey[0]
    for i in rp[5]:
        out[i] = rstate[i]
    done = lkey[1] | rkey[1]
    both = lp[4] & rp[4]
    if not both:
        return (tuple(out), done)
    lives = (lp[4], rp[4])
    links = (lp[6], rp[6])
    # walks as (position, start end, first vertex live on both, side to read)
    from_bag = []
    from_hidden = []
    for s, prep in ((0, lp), (1, rp)):
        live, link = lives[s], links[s]
        for i in prep[5]:
            if not live >> i & 1:
                continue
            j = link[i]
            if both >> i & 1:
                out[i] = _C
                if j < 0:
                    from_hidden.append((i, ("hid", ~j), i, 1 - s))
            elif j >= 0 and both >> j & 1:
                from_bag.append((i, ("bag", bag[i]), j, 1 - s))
    codes = _ByVertex(out, pos)
    added: set[int] = set()
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
                    end = ("hid", ~k)
                    break
                t = 1 - t
                if not lives[t] >> k & 1:
                    seen |= 1 << k
                    end = ("bag", bag[k])
                    break
                j = k
            if not _settle_ends(codes, added, start, end, terminal_pair, partner):
                return None
    if both & ~seen:
        return None  # a vertex live on both sides lies on a cycle
    return (tuple(out), done | added if added else done)


def _settle_ends(codes, done, end_a, end_b, terminal_pair, partner):
    """Settle the two ends of one fragment; False when the state is dead.

    Ends are ("bag", v) or ("hid", x). A finished terminal pair is added to
    `done`; the bag ends' new codes are written into `codes` by vertex.
    """
    ka, va = end_a
    kb, vb = end_b
    ta = terminal_pair.get(va)
    tb = terminal_pair.get(vb)
    if ka == "hid" and kb == "hid":
        if ta is not None and ta == tb and partner[va] == vb:
            done.add(ta)
            return True
        return False
    if ka == "hid":
        ka, va, kb, vb, ta, tb = kb, vb, ka, va, tb, ta
    if kb == "hid":
        if ta is not None:
            if ta == tb and partner[va] == vb:
                done.add(ta)
                codes[va] = _C
                return True
            return False
        codes[va] = ("h", vb)
        return True
    if ta is not None and tb is not None:
        if ta == tb and partner[va] == vb:
            done.add(ta)
            codes[va] = _C
            codes[vb] = _C
            return True
        return False
    codes[va] = ("p", vb)
    codes[vb] = ("p", va)
    return True


def _reconstruct(nodes, back, idx, state) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    stack = [(idx, state)]
    while stack:
        i, st = stack.pop()
        info = back[i][st]
        tag = info[0]
        node = nodes[i]
        if tag == "leaf":
            continue
        if tag in ("intro", "forget", "skip"):
            stack.append((node.children[0], info[1]))
        elif tag == "take":
            edges.add(norm_edge(*node.edge))
            stack.append((node.children[0], info[1]))
        elif tag == "join":
            stack.append((node.children[0], info[1]))
            stack.append((node.children[1], info[2]))
        else:
            raise AssertionError(tag)
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

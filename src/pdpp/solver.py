"""Top-level algorithms: irrelevant-vertex reduction, one-face decisions,
an exact kernel, decomposition DP, pipeline.

The DP runs over a tree decomposition with explicit edge-introduction
nodes, and lifts each child table to its parent's bag in one step. States
track, per bag vertex, whether it is untouched, a live end of a path
fragment, or closed; live ends carry either their in-bag partner or the
hidden terminal their fragment already reached. Completed terminal pairs
accumulate in a done bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Container, Optional, Union

from .certificates import FaceCertificate, interleaving, once_faces, verify_no_certificate
from .concentric import (
    ConcentricCycles,
    InsufficientGridError,
    ceil_sqrt,
    concentric_from_grid,
    lemma_side_requirement,
)
from .decomposition import (
    TreeDecomposition,
    _euler_tour,
    find_grid_minor,
    tree_decompose,
    verify_tree_decomposition,
)
from .instances import DppInstance, Solution
from .oracle import SolveOutcome, Status, solve_bruteforce, verify_solution
from .plane import (
    Budget,
    BudgetExceeded,
    Dart,
    GridMinorModel,
    PlaneGraph,
    PlaneGraphError,
    bfs_distances,
    delete_vertices,
    derived_graph,
    norm_edge,
    shortest_path,
)


class DpBudgetExceeded(BudgetExceeded):
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
    withholds the certificate. The cross-check makes two `solve_bruteforce`
    calls, before and after the deletion, each with its own `oracle_budget`,
    so its work is bounded by 2 * `oracle_budget` units (search nodes plus
    edges scanned).
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
    return ReductionCertificate(victim, side, cc, mode, checked)


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


# -- the DP's node tree --------------------------------------------------------------


@dataclass
class _Nice:
    kind: str  # "leaf" | "lift" | "edge" | "join"
    bag: tuple[int, ...]
    children: tuple[int, ...]
    edge: tuple[int, int] = (0, 0)


def nice_tree(g: PlaneGraph, td: TreeDecomposition) -> tuple[list[_Nice], int]:
    """The DP's node tree, with edge nodes; returns (nodes, root index).

    A nice decomposition (Kloks 1994) forgets or introduces one vertex per
    node; here one "lift" node takes a table to its parent's bag at once,
    a leaf starts at its full bag, and the root lifts to the empty bag.
    Each edge uv is introduced at the bag nearest the root that holds both
    u and v, after that bag's joins. A vertex's top bag is the one whose
    parent lacks it; the bags holding both ends form the subtree under the
    deeper of the two top bags, so that bag is unique, and the lift above
    it drops u or v: an edge is taken just before one of its ends is
    dropped. On a decomposition built from an elimination order (min-fill's
    or the MCS sweep's) that bag is the one of whichever end is eliminated
    first.
    """
    nodes: list[_Nice] = []

    def add(node: _Nice) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def lift(below: int, bag: tuple[int, ...]) -> int:
        return below if nodes[below].bag == bag else add(_Nice("lift", bag, (below,)))

    bags = [tuple(sorted(bag)) for bag in td.bags]
    top: dict[int, int] = {}
    for t, bag in enumerate(td.bags):
        parent = td.parent[t]
        for v in bag:
            if parent < 0 or v not in td.bags[parent]:
                top[v] = t
    edge_home: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(bags))}
    for e in sorted(g.edges):
        u, v = e
        edge_home[top[u] if v in td.bags[top[u]] else top[v]].append(e)

    # children's lifts are hooked under a node in order, as the walk leaves
    # each child's subtree
    kids = td.children()
    root_td = next(i for i, p in enumerate(td.parent) if p < 0)
    hooks: dict[int, list[int]] = {}
    for t, entering in _euler_tour(kids, root_td):
        if entering:
            hooks[t] = []
            continue
        bag = bags[t]
        mine = hooks.pop(t)
        if not mine:
            cur = add(_Nice("leaf", bag, ()))
        else:
            cur = mine[0]
            for other in mine[1:]:
                cur = add(_Nice("join", bag, (cur, other)))
        for e in edge_home[t]:
            cur = add(_Nice("edge", bag, (cur,), edge=e))
        parent = td.parent[t]
        if parent >= 0:
            hooks[parent].append(lift(cur, bags[parent]))
    return nodes, lift(cur, ())


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
# Each node has one table, a dict from state to back pointer in insertion
# order: None at the leaf, the child state at lift and edge nodes, and
# (left state, right state) at joins. Taking an edge always changes the
# code of one of its ends, so an edge node's state that equals its back
# pointer skipped the edge, and any other took it.
#
# `nice_tree` puts each edge node at the bag nearest the root that holds
# both ends, after that bag's joins and before the lift that drops one
# end. So an edge with both ends in a join's bag is taken above the join,
# and its choice does not multiply the join's two child tables.


def dp_solve(
    inst: DppInstance,
    td: Optional[TreeDecomposition] = None,
    state_budget: int = 400_000,
) -> SolveOutcome:
    """Bag-state DP over a tree decomposition, with reconstruction.

    `td` is verified here, whoever built it: this is the one check a tree
    decomposition gets before it decides an answer.
    """
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
    # one unit per distinct state; len(tables) is the node being built
    states = Budget(
        state_budget,
        lambda: DpBudgetExceeded(f"DP exceeded {state_budget} states at node {len(tables)}"),
    )
    for node in nodes:
        bag = node.bag
        kind = node.kind
        counted = 0  # states of this node's table already spent
        if kind == "leaf":
            table = {(0,) * (len(bag) + 1): None}
        elif kind == "lift":
            (child,) = node.children
            table = _lift(tables[child], nodes[child].bag, bag, terminal_pair)
        elif kind == "edge":
            table = _edge(tables[node.children[0]], bag, node.edge, terminal_pair, partner)
        elif kind == "join":
            left, right = node.children
            pos = {w: i for i, w in enumerate(bag)}
            join = _join_pair  # read here, not at import, so tests can wrap it
            lefts = [_prepare_join(state, pos) for state in tables[left]]
            # a touched terminal takes no edge on the other side, so it
            # counts as closed there
            terminals = sum(1 << i for i, w in enumerate(bag) if w in terminal_pair)
            # the filter fields up front, so the inner loop unpacks them
            rights = [
                (prep[0], prep[1] | prep[2] & terminals, prep[2], prep[3], prep)
                for prep in (_prepare_join(state, pos) for state in tables[right])
            ]
            table = {}
            for lp in lefts:
                lstate, ltouched, ldone = lp[0], lp[2], lp[3]
                lclosed = lp[1] | ltouched & terminals
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
                states.spend(len(table) - counted)
                counted = len(table)
        else:
            raise AssertionError(kind)
        states.spend(len(table) - counted)
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


def _lift(child_table, child_bag, bag, terminal_pair):
    """A lift node's table: each state of `child_table` moved to `bag`.

    A vertex of `bag` not in `child_bag` is new and reads 0. A state dies
    when a vertex it drops is an untouched terminal, a hidden end, a live
    non-terminal, or a live terminal whose partner is dropped too; the
    partner of any other dropped live terminal v now ends at the hidden v.
    The table equals that of forgetting the dropped vertices one at a time
    and then introducing the new ones, down to its order and back pointers.
    """
    pos = {w: i for i, w in enumerate(bag)}
    n = len(child_bag)
    at = {w: i for i, w in enumerate(child_bag)}
    # a new vertex reads the 0 put after the child state's done mask
    pick = [at.get(w, n + 1) for w in bag] + [n]
    # (an itemgetter of one index returns an item, not a tuple)
    get = itemgetter(*pick) if bag else lambda cstate: (cstate[n],)
    dropped = [(i, w, w in terminal_pair) for i, w in enumerate(child_bag) if w not in pos]
    table = {}
    for cstate in child_table:
        state = get(cstate + (0,))
        for i, v, is_terminal in dropped:
            code = cstate[i]
            if code == 1 or (code == 0 and not is_terminal):
                continue
            w = code >> 1
            if not code or code & 1 or not is_terminal or w not in pos:
                break  # one of the four ways to die above
            p = pos[w]
            state = state[:p] + (2 * v + 1,) + state[p + 1 :]
        else:
            if state not in table:
                table[state] = cstate
    return table


def _edge(child_table, bag, edge, terminal_pair, partner):
    """An edge node's table: each child state with edge uv skipped, then taken.

    A closed end, a touched terminal or a cycle (cu == 2*v) refuses the
    edge. An untouched end becomes a path end, named 2*w as `_settle_ends`
    names ends; a live end absorbs the edge and is closed.
    """
    u, v = edge
    pos = {w: i for i, w in enumerate(bag)}
    iu, iv = pos[u], pos[v]
    u_terminal = u in terminal_pair
    v_terminal = v in terminal_pair
    table = {}
    for cstate in child_table:
        if cstate not in table:  # skip the edge
            table[cstate] = cstate
        cu, cv = cstate[iu], cstate[iv]
        if cu == 1 or cv == 1 or (u_terminal and cu) or (v_terminal and cv) or cu == 2 * v:
            continue
        out = list(cstate)
        if cu:
            out[iu] = 1
        if cv:
            out[iv] = 1
        bit = _settle_ends(out, pos, cu or 2 * u, cv or 2 * v, terminal_pair, partner)
        if bit < 0:
            continue
        out[-1] |= bit
        state = tuple(out)
        if state not in table:
            table[state] = cstate
    return table


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


# -- instances with every terminal on one face -------------------------------------------


def _face_reader(g: PlaneGraph, deleted: Container[int]):
    """(face_of, walk) for the faces of g - `deleted`, read off g itself.

    `face_of(dart)` gives the face of a dart as a key that orders faces as
    `PlaneGraph.faces()` does, by least dart, and `walk(key)` gives the
    face's darts from its first dart in vertex order, then rotation order,
    as `faces()` of the graph with `deleted` removed would list them. With
    nothing deleted these are g's own faces. Otherwise only the faces asked
    for are walked, each turn skipping deleted neighbours, and each is
    keyed by its least dart.
    """
    if not deleted:
        return g.face_of_dart, g.faces().__getitem__
    rot = g.rotation
    key_of: dict[Dart, Dart] = {}
    walks: dict[Dart, tuple[Dart, ...]] = {}

    def face_of(dart: Dart) -> Dart:
        if dart in key_of:
            return key_of[dart]
        orbit = []
        u, v = dart
        while not orbit or (u, v) != dart:
            orbit.append((u, v))
            r = rot[v]
            i = r.index(u) + 1
            while r[i % len(r)] in deleted:
                i += 1
            u, v = v, r[i % len(r)]
        least = min(orbit)
        on = {w for x, w in orbit if x == least[0]}
        start = orbit.index((least[0], next(w for w in rot[least[0]] if w in on)))
        walks[least] = tuple(orbit[start:] + orbit[:start])
        key_of.update(dict.fromkeys(orbit, least))
        return least

    return face_of, walks.__getitem__


def _terminal_face(
    g: PlaneGraph, terminals, deleted: Container[int] = frozenset()
) -> Optional[tuple[Dart, ...]]:
    """The walk of the least face of g - `deleted` on which each terminal
    occurs exactly once.

    The candidates are read off the terminals' darts (`once_faces`); only
    their faces are walked (`_face_reader`). Returns None when no face
    qualifies.
    """
    face_of, walk = _face_reader(g, deleted)
    common: Optional[set] = None
    for v in terminals:
        once = once_faces(g, v, face_of, deleted)
        common = once if common is None else common & once
        if not common:
            return None
    return walk(min(common))


def _shortcut(walk: list[int]) -> list[int]:
    """The walk with every closed sub-walk cut out: a path with the same ends."""
    path: list[int] = []
    at: dict[int, int] = {}
    for v in walk:
        if v in at:
            for u in path[at[v] + 1 :]:
                del at[u]
            del path[at[v] + 1 :]
        else:
            at[v] = len(path)
            path.append(v)
    return path


def one_face_decision(inst: DppInstance) -> Union[FaceCertificate, Solution, None]:
    """Decide an instance whose terminals each occur once on one face.

    Returns a `FaceCertificate` (NO) when two pairs interleave on that face,
    a `Solution` (YES), or None when the instance is not of this kind or the
    routing below gets stuck; None claims nothing.

    YES is found by routing: two terminals of one pair that are neighbours
    in the face's cyclic terminal order are joined along the face walk
    between them, which holds no other terminal, and the path is deleted.
    That loses no solution: with a vertex x drawn in the face and joined to
    every terminal, any solution's path for the pair closes a cycle through
    x whose far side holds every other terminal and whose near side holds
    the walk's vertices, so the other paths never meet the walk. So any such
    pair may go first; the first whose deletion leaves the other terminals
    each once on one face is taken, and the routing goes on on that face.
    The last pair is joined by a shortest path. Deleted vertices are only
    recorded: the faces of g minus them are walked on g itself, and they
    are those a rebuilt graph would list, in the same order and from the
    same darts, so the paths equal those of routing on rebuilt graphs.
    """
    g = inst.graph
    left = dict(enumerate(inst.pairs))  # the pairs not yet routed
    deleted: set[int] = set()  # the routed paths' vertices
    paths: dict[int, list[int]] = {}
    walk = _terminal_face(g, inst.terminals())
    if walk is None:
        return None
    while len(left) > 1:
        owner = {v: i for i, pair in left.items() for v in pair}
        at = [(n, owner[u]) for n, (u, _) in enumerate(walk) if u in owner]
        crossing = interleaving([i for _, i in at])
        if crossing is not None:
            # only the input's own face makes a certificate
            return None if paths else FaceCertificate(walk[0], crossing)
        # a sequence that reduces to empty has two neighbours of one pair;
        # route the first such pair whose deletion leaves the other
        # terminals each once on one face (the last pair needs no face)
        for n in range(len(at)):
            (a, i), (b, j) = at[n - 1], at[n]
            if i != j:
                continue
            arc = walk[a : b + 1] if a < b else walk[a:] + walk[: b + 1]
            path = _shortcut([u for u, _ in arc])
            gone = deleted.union(path)
            rest = {m: pair for m, pair in left.items() if m != i}
            face = ()
            if len(rest) > 1:
                face = _terminal_face(g, [v for pair in rest.values() for v in pair], gone)
            if face is not None:
                break
        else:
            return None
        if path[0] != left[i][0]:
            path.reverse()
        paths[i] = path
        deleted, left, walk = gone, rest, face
    ((i, (s, t)),) = left.items()
    path = shortest_path(g, s, t, within=set(g.vertices).difference(deleted))
    if path is None:
        return None
    paths[i] = path
    return Solution(tuple(tuple(paths[j]) for j in range(inst.k)))


# -- an exact kernel ---------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """An instance shrunk by `exact_kernel`, and the map back to its input.

    `inst` is None when every pair was routed. Its pair i is the input's
    pair `pair_ids[i]`, and its vertex v is the input's `to_input[v - 1]`.
    An edge may stand for a path of suppressed vertices: `inside[(a, b)]`
    holds that path's inner vertices from a to b, in input ids, for both
    orders of a and b. `routed` holds the routed pairs' paths in input ids.
    """

    inst: Optional[DppInstance]
    pair_ids: tuple[int, ...]
    to_input: tuple[int, ...]
    inside: dict[tuple[int, int], tuple[int, ...]]
    routed: dict[int, tuple[int, ...]]

    def solution(self, sol: Optional[Solution]) -> Solution:
        """The input's path system: `sol` (a solution of `inst`, None when
        `inst` is) with its suppressed vertices put back, and the routed paths."""
        paths = dict(self.routed)
        if sol is not None:
            for i, path in zip(self.pair_ids, sol.paths):
                ids = [self.to_input[v - 1] for v in path]
                full = [ids[0]]
                for a, b in zip(ids, ids[1:]):
                    full += self.inside.get((a, b), ())
                    full.append(b)
                paths[i] = tuple(full)
        return Solution(tuple(paths[i] for i in range(len(paths))))


def exact_kernel(inst: DppInstance) -> Kernel:
    """Shrink `inst` by four rules that keep its answer, until none applies.

    - A pair whose terminals are adjacent is routed along that edge, and
      both ends are deleted: any solution's path for the pair can be
      swapped for the edge, which touches no other vertex.
    - A non-terminal of degree <= 1 is deleted: a path through a
      non-terminal enters and leaves it by two edges.
    - A non-terminal v of degree 2, with neighbours a and b, is suppressed:
      v becomes b in a's rotation and a in b's, so the edge ab is drawn
      along a-v-b; when ab is already an edge, v is just deleted. A path
      through v is a-v-b, and ab stands for it.
    - A component without terminals is deleted: no path enters it.

    Every rule deletes vertices or draws an edge along a path, so the graph
    stays plane. The three local rules share one rotation dict and a work
    list of vertices whose neighbours changed; the component rule runs once
    at the end, since deleting a component changes no other vertex's
    neighbours. The kernel graph is built once, at the end, by
    `derived_graph`: every rule keeps it plane, so it is not validated
    again, and it takes the default outer dart.
    """
    g = inst.graph
    rot = {v: list(g.rotation[v]) for v in g.vertices}
    pair_of = {v: i for i, pair in enumerate(inst.pairs) for v in pair}
    # entries of deleted edges stay behind; no later edge has their ends
    inside: dict[tuple[int, int], tuple[int, ...]] = {}
    routed: dict[int, tuple[int, ...]] = {}
    todo = list(reversed(g.vertices))  # popped from the end: least first

    def delete(v: int) -> None:
        for w in rot.pop(v):
            rot[w].remove(v)
            todo.append(w)

    while todo:
        v = todo.pop()
        nbrs = rot.get(v)
        if nbrs is None:
            continue  # deleted already
        i = pair_of.get(v)
        if i is not None:
            s, t = inst.pairs[i]  # both alive: a pair's ends are deleted together
            if t in rot[s]:
                routed[i] = (s, *inside.get((s, t), ()), t)
                delete(s)
                delete(t)
        elif len(nbrs) <= 1:
            delete(v)
        elif len(nbrs) == 2:
            a, b = nbrs
            del rot[v]
            ra, rb = rot[a], rot[b]
            if b in ra:
                ra.remove(v)
                rb.remove(v)
            else:
                ra[ra.index(v)] = b
                rb[rb.index(v)] = a
                path = (*inside.get((a, v), ()), v, *inside.get((v, b), ()))
                inside[(a, b)] = path
                inside[(b, a)] = path[::-1]
            todo += (a, b)

    pair_ids = tuple(i for i in range(inst.k) if i not in routed)
    if not pair_ids:
        return Kernel(None, (), (), inside, routed)
    keep = sorted(bfs_distances(rot, [s for i in pair_ids for s in inst.pairs[i]]))
    kernel_graph, new = derived_graph(rot, keep)
    pairs = tuple((new[s], new[t]) for s, t in (inst.pairs[i] for i in pair_ids))
    return Kernel(DppInstance(kernel_graph, pairs), pair_ids, tuple(keep), inside, routed)


# -- the full pipeline ----------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    outcome: SolveOutcome
    certificates: tuple[ReductionCertificate, ...]
    removed_original_ids: tuple[int, ...]
    iterations: int
    # the tree decomposition the final DP ran on, in original vertex ids;
    # None when no DP ran. It covers the graph of `exact_kernel`: vertices
    # removed by a reduction or by the kernel are in no bag, and two
    # vertices joined by a suppressed path count as adjacent
    decomposition: Optional[TreeDecomposition] = None
    # a NO's face certificate in original ids, only when it checks on the
    # original instance; a NO without one rests on the DP, and on every
    # heuristic deletion before it
    no_certificate: Optional[FaceCertificate] = None

    @property
    def status(self) -> Status:
        return self.outcome.status


def heuristic_grid_target(k: int) -> int:
    """Smallest grid side the heuristic reduction can use (depth 0)."""
    return lemma_side_requirement(0, 2 * k)


def solve_pipeline(
    inst: DppInstance,
    mode: str = "heuristic",
    dp_state_budget: int = 400_000,
) -> PipelineResult:
    """Reduce while a big enough grid minor exists, then decide one face,
    else shrink the instance by its exact kernel and run the DP.

    k = 1 is decided by a shortest path. Otherwise each round first looks
    for a (target x target)-grid minor. Only grids yield one, and the round
    deletes an irrelevant vertex when the grid's side exceeds target: an
    r x c grid has branchwidth min(r, c), and then holds a (target + 1)-grid
    minor. A round that does not reduce asks `one_face_decision`, which
    decides an instance whose terminals each occur once on one face. When
    it does not decide, `exact_kernel` shrinks the instance by deletions
    that keep its answer. A kernel with every pair routed is a YES, and one
    with one pair left is decided by a shortest path. Only with two pairs
    or more is one tree decomposition of the kernel built (`tree_decompose`:
    the MCS sweep's when it is no wider than min-fill's, else min-fill's),
    and the DP runs on it. The kernel comes after the grid-minor search,
    whose grid detection would not read a grid with suppressed corners.
    Each round either returns or deletes one vertex, so the loop ends
    within n + 1 rounds. Every YES is checked on `inst`, the k = 1 one too,
    and so is a face certificate before it is reported.
    """
    k = inst.k
    if k == 1:
        return PipelineResult(_checked(inst, _shortest_linkage(inst)), (), (), 0)
    target = grid_requirement(k) if mode == "certified" else heuristic_grid_target(k)
    cur = inst
    to_original: dict[int, int] = {v: v for v in inst.graph.vertices}
    certificates: list[ReductionCertificate] = []
    removed: list[int] = []
    iterations = 0
    while True:
        iterations += 1
        # reduce only when a (target x target)-grid minor exists and the graph
        # is wider than target; the minor is cheap to rule out, so it is
        # looked for first, and only a grid yields one, whose width is its
        # smaller side
        model = find_grid_minor(cur.graph, target)
        if model is None or min(cur.graph.grid_shape) <= target:
            break
        cert = find_irrelevant_vertex(cur, model, mode=mode)
        if cert is None:
            break
        certificates.append(cert)
        removed.append(to_original[cert.removed_vertex])
        g2, remap = delete_vertices(cur.graph, [cert.removed_vertex])
        to_original = {new: to_original[old] for old, new in remap.items()}
        pairs2 = tuple((remap[s], remap[t]) for s, t in cur.pairs)
        cur = DppInstance(g2, pairs2)
    used: Optional[TreeDecomposition] = None
    no_certificate: Optional[FaceCertificate] = None
    decided = one_face_decision(cur)
    if isinstance(decided, FaceCertificate):
        outcome = SolveOutcome(Status.NO)
        u, v = decided.dart
        face = FaceCertificate((to_original[u], to_original[v]), decided.pairs)
        # after a deletion the face may not be one of inst's
        if verify_no_certificate(inst, face):
            no_certificate = face
    elif decided is not None:
        outcome = SolveOutcome(Status.YES, decided)
    else:
        kernel = exact_kernel(cur)
        small = kernel.inst
        if small is None:
            outcome = SolveOutcome(Status.YES)
        elif small.k == 1:
            outcome = _shortest_linkage(small)
        else:
            td = tree_decompose(small.graph)
            kernel_to_original = [to_original[v] for v in kernel.to_input]
            used = TreeDecomposition(
                td.parent,
                tuple(frozenset(kernel_to_original[v - 1] for v in bag) for bag in td.bags),
                td.width,
            )
            try:
                outcome = dp_solve(small, td, state_budget=dp_state_budget)
            except DpBudgetExceeded as exc:
                outcome = SolveOutcome(Status.UNKNOWN, reason=str(exc))
        if outcome.status is Status.YES:
            outcome = SolveOutcome(Status.YES, kernel.solution(outcome.solution))
    return PipelineResult(
        _checked(inst, outcome, to_original),
        tuple(certificates),
        tuple(removed),
        iterations,
        used,
        no_certificate,
    )


def _shortest_linkage(inst: DppInstance) -> SolveOutcome:
    """A one-pair instance decided by a shortest path."""
    path = shortest_path(inst.graph, *inst.pairs[0])
    if path is None:
        return SolveOutcome(Status.NO)
    return SolveOutcome(Status.YES, Solution((tuple(path),)))


def _checked(
    inst: DppInstance, outcome: SolveOutcome, to_original: Optional[dict[int, int]] = None
) -> SolveOutcome:
    """`outcome`, with a YES's paths taken to `inst`'s ids by `to_original`
    and checked on `inst`."""
    if outcome.status is not Status.YES:
        return outcome
    paths = outcome.solution.paths
    if to_original is not None:
        paths = tuple(tuple(to_original[v] for v in p) for p in paths)
    sol = Solution(paths)
    check = verify_solution(inst, sol)
    if not check:
        raise PlaneGraphError(f"internal: pipeline solution invalid: {check.problems[:3]}")
    return SolveOutcome(Status.YES, sol)

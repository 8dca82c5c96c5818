import math
import random
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from pdpp import plane
from pdpp.decomposition import (
    BranchDecomposition,
    TooWide,
    TreeDecomposition,
    bd_from_td,
    best_heuristic_bd,
    branch_decompose,
    branchwidth_decision,
    branchwidth_exact,
    branchwidth_lower_bound_from_tw,
    caterpillar_bd,
    find_grid_minor,
    grid_sweep_order,
    mcs_order,
    minfill_order,
    order_sets,
    td_from_bd,
    td_from_elimination,
    tree_decompose,
    treewidth_exact,
    verify_branch_decomposition,
    verify_tree_decomposition,
)
from pdpp.instances import DppInstance, gen_random_planar
from pdpp.oracle import Status, solve_bruteforce
from pdpp.plane import (
    BudgetExceeded,
    CheckResult,
    PlaneGraphError,
    delete_vertices,
    make_grid,
    plane_graph_from_edges,
    verify_minor_model,
)
from pdpp.solver import dp_solve


def tree_graph():
    return plane_graph_from_edges(7, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])


class TestTreewidth:
    def test_exact_small(self):
        assert treewidth_exact(tree_graph()) == 1
        assert treewidth_exact(make_grid(2, 2)) == 2
        assert treewidth_exact(make_grid(3, 3)) == 3

    def test_minfill_td_verifies(self):
        for seed in range(6):
            inst = gen_random_planar(10, 16, 1, seed)
            td = tree_decompose(inst.graph)
            assert verify_tree_decomposition(inst.graph, td)


def relabelled_grid(rows, cols, seed):
    """make_grid(rows, cols) under a seeded relabelling, embedding and all."""
    h = make_grid(rows, cols)
    perm = list(h.vertices)
    random.Random(seed).shuffle(perm)
    new = dict(zip(h.vertices, perm))
    rotation = {new[v]: [new[w] for w in h.rotation[v]] for v in h.vertices}
    return plane_graph_from_edges(h.n, [(new[u], new[v]) for u, v in h.edges], rotation)


def joins(td):
    return sum(len(kids) > 1 for kids in td.children())


class TestMcsSweep:
    def test_relabelled_grids_get_their_side(self):
        # the labelling puts the sweep's start at any corner; the two sweeps
        # run along perpendicular sides, and the narrower one is kept
        off = []
        minfill_off = 0
        for rows in range(2, 13):
            for cols in range(2, 13):
                for seed in range(3):
                    g = relabelled_grid(rows, cols, 10_000 * seed + 100 * rows + cols)
                    td = tree_decompose(g)
                    if (td.width, joins(td)) != (min(rows, cols), 0):
                        off.append((rows, cols, seed, td.width, joins(td)))
                    minfill = td_from_elimination(g, minfill_order(g)[0])
                    minfill_off += minfill.width > min(rows, cols)
        assert off == []
        assert minfill_off > 100  # min-fill alone would fail this test

    def test_ladder_gets_width_two(self):
        # the sweep along the 1500-vertex rows gives up within a few steps
        g = make_grid(2, 1500)
        td = tree_decompose(g)
        assert (td.width, joins(td)) == (2, 0)
        assert mcs_order(g, 1) is None


class TestVerifiers:
    def test_bad_bag_detected(self):
        g = tree_graph()
        td = tree_decompose(g)
        broken = TreeDecomposition(
            td.parent, tuple(b - {4} for b in td.bags), td.width
        )
        assert not verify_tree_decomposition(g, broken)

    def test_wrong_declared_width(self):
        g = tree_graph()
        td = tree_decompose(g)
        lying = TreeDecomposition(td.parent, td.bags, td.width + 1)
        result = verify_tree_decomposition(g, lying)
        assert not result
        assert any("declared width" in p for p in result.problems)

    def test_bd_wrong_width_detected(self):
        g = make_grid(2, 2)
        bd = caterpillar_bd(g, grid_sweep_order(g))
        lying = BranchDecomposition(bd.tree_edges, bd.tau, bd.width + 1)
        assert not verify_branch_decomposition(g, lying)

    def test_bd_tau_must_cover(self):
        g = make_grid(2, 2)
        bd = caterpillar_bd(g, grid_sweep_order(g))
        tau = dict(bd.tau)
        leaf = next(iter(tau))
        tau[leaf] = (1, 4)
        assert not verify_branch_decomposition(
            g, BranchDecomposition(bd.tree_edges, tau, bd.width)
        )


class TestBranchwidth:
    def test_grid_branchwidth_exact(self):
        for k in (2, 3, 4):
            g = make_grid(k, k)
            assert not branchwidth_decision(g, k - 1)
            assert branchwidth_decision(g, k)
            assert branchwidth_exact(g) == k

    def test_sweep_matches_exact_on_grids(self):
        # the sweep reaches min(rows, cols), the grid's exact branchwidth, so
        # best_heuristic_bd builds nothing else on a grid
        for rows in range(2, 13):
            for cols in range(2, 13):
                g = make_grid(rows, cols)
                bd = caterpillar_bd(g, grid_sweep_order(g))
                assert bd.width == min(rows, cols)
                if rows <= 4 and cols <= 4:
                    assert bd.width == branchwidth_exact(g)
                assert best_heuristic_bd(g).serialize() == bd.serialize()

    def test_closure_budget_counts_pairs_tried(self):
        # one unit per closure pair tried: each decision is made with exactly
        # the pinned budget and gives up with one fewer
        g = make_grid(3, 3)
        for b, pairs, answer in ((3, 406, True), (2, 235, False)):
            assert branchwidth_decision(g, b, budget=pairs) is answer
            with pytest.raises(BudgetExceeded, match="^branchwidth closure budget exceeded$"):
                branchwidth_decision(g, b, budget=pairs - 1)

    def test_tw_lower_bound_consistent(self):
        for k in (2, 3, 4):
            g = make_grid(k, k)
            assert branchwidth_lower_bound_from_tw(treewidth_exact(g)) <= k

    def test_single_edge(self):
        g = plane_graph_from_edges(2, [(1, 2)])
        assert branchwidth_exact(g) == 0


class TestEitherOr:
    def test_tree_low_width(self):
        g = tree_graph()
        out = branch_decompose(g, 10)
        assert isinstance(out, BranchDecomposition)
        assert out.width <= 2

    def test_4x4_with_generous_target(self):
        out = branch_decompose(make_grid(4, 4), 10)
        assert isinstance(out, BranchDecomposition)
        assert out.width >= 4

    def test_8x8_too_wide(self):
        g = make_grid(8, 8)
        out = branch_decompose(g, 2)
        assert isinstance(out, TooWide)
        assert verify_minor_model(g, out.grid_model)

    def test_emitted_decompositions_verify(self):
        for seed in range(5):
            g = gen_random_planar(9, 14, 1, seed).graph
            out = branch_decompose(g, 50)
            assert isinstance(out, BranchDecomposition)
            assert verify_branch_decomposition(g, out)


class TestTranslation:
    def test_td_from_bd_bounds(self):
        for k in (2, 3, 4):
            g = make_grid(k, k)
            bd = caterpillar_bd(g, grid_sweep_order(g))
            td = td_from_bd(g, bd)
            assert verify_tree_decomposition(g, td)
            assert td.width <= -((-3 * bd.width) // 2) - 1

    def test_single_edge_graph(self):
        g = plane_graph_from_edges(2, [(1, 2)])
        bd = best_heuristic_bd(g)
        td = td_from_bd(g, bd)
        assert td.bags[0] == frozenset({1, 2})

    def test_bd_width2_gives_td_width_le_2(self):
        g = tree_graph()
        bd = best_heuristic_bd(g)
        assert bd.width <= 2
        td = td_from_bd(g, bd)
        assert td.width <= 2


class TestGridMinor:
    @pytest.mark.parametrize("q", range(1, 7))
    def test_grid_contracts_up_to_its_side(self, q):
        g = make_grid(5, 7)
        model = find_grid_minor(g, q)
        if q > 5:
            assert model is None
        else:
            assert (model.grid_rows, model.grid_cols) == (q, q)
            assert verify_minor_model(g, model)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_relabelled_grid_contracts(self, q):
        # a 3x3 grid with shuffled labels, embedded from its edges alone, is
        # recognised as a grid and searched like make_grid's
        edges = [(1, 3), (1, 4), (1, 8), (2, 3), (2, 4), (2, 9),
                 (4, 5), (4, 7), (5, 6), (5, 9), (6, 7), (7, 8)]
        relabelled = plane_graph_from_edges(9, edges)
        assert relabelled.grid_shape == (3, 3)
        model = find_grid_minor(relabelled, q)
        assert (model.grid_rows, model.grid_cols) == (q, q)
        assert verify_minor_model(relabelled, model)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_non_grid_gives_none(self, q):
        # only grids are searched: a 4x4 grid with a chord across a face
        # holds every minor asked for here and still gets None, as do a 4x4
        # grid less one vertex and a tree
        grid = make_grid(4, 4)
        short = delete_vertices(grid, [6])[0]
        chorded = plane_graph_from_edges(16, [*grid.edges, (1, 6)])
        for g in (tree_graph(), short, chorded):
            assert g.grid_shape is None
            assert find_grid_minor(g, q) is None

    def test_too_few_vertices_skip_detection(self, monkeypatch):
        # q*q disjoint branch sets need q*q vertices; a smaller host gets
        # None without grid detection
        calls = []
        real = plane.detect_grid
        monkeypatch.setattr(plane, "detect_grid", lambda g: calls.append(g) or real(g))
        g = make_grid(5, 7)
        assert find_grid_minor(g, 6) is None
        assert calls == []
        assert find_grid_minor(g, 5) is not None
        assert calls == [g]

    @pytest.mark.parametrize("q", [0, -1])
    def test_side_below_one_rejected(self, q):
        with pytest.raises(PlaneGraphError, match="^grid side must be positive$"):
            find_grid_minor(make_grid(3, 3), q)


class TestSandwich:
    def test_prop_sandwich_on_corpus(self):
        graphs = [
            tree_graph(),
            make_grid(2, 2),
            make_grid(3, 3),
            make_grid(2, 4),
            plane_graph_from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]),
        ]
        for seed in range(3):
            graphs.append(gen_random_planar(8, 12, 1, seed).graph)
        for g in graphs:
            tw = treewidth_exact(g)
            bw = branchwidth_exact(g)
            if bw <= 1:
                continue  # sandwich is for bw >= 2 (paths/stars degenerate)
            assert bw <= tw + 1 <= -((-3 * bw) // 2)


# -- one-pass order sets and the indexed verifier against the old code ----------


def reference_order_function(bd, tree_edge):
    """The old per-edge order function: split the tree at the edge, intersect."""
    a, b = tree_edge
    adj = bd.adjacency()
    side = set()
    stack = [a]
    seen = {a, b}
    while stack:
        x = stack.pop()
        side.add(x)
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    left = {v for leaf, e in bd.tau.items() if leaf in side for v in e}
    right = {v for leaf, e in bd.tau.items() if leaf not in side for v in e}
    return frozenset(left & right)


def reference_verify_tree_decomposition(g, td):
    """The old verifier: scans every bag per edge and per vertex."""
    problems = []
    nodes = len(td.bags)
    if len(td.parent) != nodes:
        return CheckResult(False, ("parent/bag arrays differ in length",))
    stray = [i for i, p in enumerate(td.parent) if p not in range(-1, nodes)]
    if stray:
        return CheckResult(False, (f"nodes {stray[:5]} have a parent out of range",))
    roots = [i for i, p in enumerate(td.parent) if p < 0]
    if len(roots) != 1:
        problems.append(f"expected one root, found {len(roots)}")
    # a node below no root climbs its parent links for more steps than
    # there are nodes: the links close a cycle
    for x in range(nodes):
        for _ in range(nodes):
            if x < 0:
                break
            x = td.parent[x]
        if x >= 0:
            problems.append("parent links do not form one tree")
            return CheckResult(False, tuple(problems))
    covered = set()
    for bag in td.bags:
        covered |= bag
    missing = set(g.vertices) - covered
    if missing:
        problems.append(f"vertices {sorted(missing)[:5]} in no bag")
    for u, v in sorted(g.edges):
        if not any(u in bag and v in bag for bag in td.bags):
            problems.append(f"edge ({u},{v}) in no bag")
    for v in g.vertices:
        holding = [i for i, bag in enumerate(td.bags) if v in bag]
        if not holding:
            continue
        holding_set = set(holding)
        seen = {holding[0]}
        queue = deque([holding[0]])
        kids = td.children()
        while queue:
            x = queue.popleft()
            for y in kids[x] + ([td.parent[x]] if td.parent[x] >= 0 else []):
                if y in holding_set and y not in seen:
                    seen.add(y)
                    queue.append(y)
        if seen != holding_set:
            problems.append(f"bags containing {v} are disconnected")
    real_width = max((len(b) for b in td.bags), default=1) - 1
    if real_width != td.width:
        problems.append(f"declared width {td.width}, actual {real_width}")
    return CheckResult(not problems, tuple(problems))


def corpus_graphs(seeds):
    """Seeded random planar graphs (n 8-35) and square grids (side 2-6)."""
    for n in range(8, 36, 3):
        for density in (1.2, 1.6, 2.2):
            for seed in range(seeds):
                yield gen_random_planar(n, int(density * n), 1, 100 * n + seed).graph
    for side in range(2, 7):
        yield make_grid(side, side)


def test_order_sets_match_reference():
    bds = edges = 0
    for g in corpus_graphs(seeds=8):
        candidates = [best_heuristic_bd(g), bd_from_td(g, tree_decompose(g))]
        if g.grid_shape is not None:
            candidates.append(caterpillar_bd(g, grid_sweep_order(g)))
        for bd in candidates:
            got = order_sets(bd)
            assert set(got) == set(bd.tree_edges)
            for e in bd.tree_edges:
                assert got[e] == reference_order_function(bd, e), e
            assert bd.width == max(map(len, got.values()), default=0)
            bds += 1
            edges += len(bd.tree_edges)
    assert bds >= 450 and edges >= 30_000


def td_mutants(g, td, rng):
    """Seeded broken copies of a valid decomposition, one per kind of fault."""
    parent, bags = list(td.parent), list(td.bags)
    root = parent.index(-1)
    kids = td.children()

    def below(x):
        out, stack = set(), [x]
        while stack:
            y = stack.pop()
            out.add(y)
            stack.extend(kids[y])
        return out

    # a vertex dropped from one bag
    i = rng.randrange(len(bags))
    if bags[i]:
        v = rng.choice(sorted(bags[i]))
        dropped = bags[:i] + [bags[i] - {v}] + bags[i + 1 :]
        yield TreeDecomposition(td.parent, tuple(dropped), td.width)
    # an edge's only shared bag split in two, one end in each half
    for u, v in sorted(g.edges, key=lambda e: rng.random()):
        shared = [j for j, bag in enumerate(bags) if u in bag and v in bag]
        if len(shared) == 1:
            j = shared[0]
            split = bags[:j] + [bags[j] - {v}] + bags[j + 1 :] + [bags[j] - {u}]
            yield TreeDecomposition(tuple(parent + [j]), tuple(split), td.width)
            break
    # a node re-parented elsewhere in the tree (often disconnecting a vertex)
    movable = [x for x in range(len(parent)) if x != root]
    if movable:
        x = rng.choice(movable)
        targets = sorted(set(range(len(parent))) - below(x) - {parent[x]})
        if targets:
            moved = parent[:]
            moved[x] = rng.choice(targets)
            yield TreeDecomposition(tuple(moved), td.bags, td.width)
        # a node re-parented into its own subtree: a cycle cut off from the root
        looped = parent[:]
        looped[x] = rng.choice(sorted(below(x)))
        yield TreeDecomposition(tuple(looped), td.bags, td.width)
        # a second root
        cut = parent[:]
        cut[x] = -1
        yield TreeDecomposition(tuple(cut), td.bags, td.width)
    # a wrong declared width
    yield TreeDecomposition(td.parent, td.bags, td.width + rng.choice((-1, 1)))
    # a parent index out of range
    stray = parent[:]
    stray[rng.randrange(len(stray))] = rng.choice((-2, len(stray)))
    yield TreeDecomposition(tuple(stray), td.bags, td.width)


def test_tree_verifier_matches_reference():
    rng = random.Random(7)
    seen = set()
    for g in corpus_graphs(seeds=4):
        for td in (tree_decompose(g), td_from_bd(g, best_heuristic_bd(g))):
            assert verify_tree_decomposition(g, td) == CheckResult(True, ())
            for bad in td_mutants(g, td, rng):
                got = verify_tree_decomposition(g, bad)
                assert got == reference_verify_tree_decomposition(g, bad)
                seen.update(p.split(" ", 1)[0] for p in got.problems)
    # every kind of problem the verifier names was produced: a parent out of
    # range, a second root, a cycle of parent links, a vertex or an edge in no
    # bag, disconnected bags and a wrong width
    assert seen == {"nodes", "expected", "parent", "vertices", "edge", "bags", "declared"}


def test_tree_verifier_rejects_a_cycle_of_parent_links():
    # nodes 1 and 2 are each other's parent, cut off from the root; the DP
    # once answered NO on this instance, which has the two paths 2-3 and 1-4
    g = plane_graph_from_edges(4, [(2, 3), (1, 4)])
    inst = DppInstance(g, ((2, 3), (1, 4)))
    bags = (frozenset({1, 4}), frozenset({2, 3}), frozenset({2, 3}))
    looped = TreeDecomposition((-1, 2, 1), bags, 1)
    assert verify_tree_decomposition(g, looped) == CheckResult(
        False, ("parent links do not form one tree",)
    )
    with pytest.raises(PlaneGraphError, match="parent links do not form one tree"):
        dp_solve(inst, looped)
    assert solve_bruteforce(inst).status is Status.YES
    assert dp_solve(inst, TreeDecomposition((-1, 0, 1), bags, 1)).status is Status.YES
    stray = TreeDecomposition((-1, 3, 1), bags, 1)
    assert verify_tree_decomposition(g, stray) == CheckResult(
        False, ("nodes [1] have a parent out of range",)
    )


# a path, a triangle with a pendant vertex and a 4-cycle with a chord: the
# random bags below are drawn over one of them
SMALL_GRAPHS = (
    plane_graph_from_edges(4, [(1, 2), (2, 3), (3, 4)]),
    plane_graph_from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)]),
    plane_graph_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]),
)


@st.composite
def raw_decompositions(draw):
    """Parent arrays on 1-8 nodes with cycles, extra roots and out-of-range
    indices, bags over a small graph, and a width off by at most one."""
    g = draw(st.sampled_from(SMALL_GRAPHS))
    nodes = draw(st.integers(1, 8))
    # a random tree under a random numbering, then up to two links redrawn
    label = draw(st.permutations(range(nodes)))
    parent = [-1] * nodes
    for i in range(1, nodes):
        parent[label[i]] = label[draw(st.integers(0, i - 1))]
    for _ in range(draw(st.integers(0, 2))):
        parent[draw(st.integers(0, nodes - 1))] = draw(st.integers(-2, nodes))
    # each bag misses at most two vertices, so that some draws are valid
    missed = st.frozensets(st.sampled_from(g.vertices), max_size=2)
    bags = tuple(frozenset(g.vertices) - draw(missed) for _ in range(nodes))
    width = max(len(b) for b in bags) - 1 + draw(st.sampled_from((0, 0, -1, 1)))
    return g, TreeDecomposition(tuple(parent), bags, width)


def networkx_is_tree_decomposition(g, td):
    nodes = len(td.bags)
    if any(p not in range(-1, nodes) for p in td.parent):
        return False
    # a multigraph keeps a 2-cycle of parent links as two edges and a node
    # that is its own parent as a loop, so neither passes for a tree
    tree = nx.MultiGraph()
    tree.add_nodes_from(range(nodes))
    tree.add_edges_from((i, p) for i, p in enumerate(td.parent) if p >= 0)
    if not nx.is_tree(tree):
        return False
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            return False
    for v in g.vertices:
        holding = [i for i, bag in enumerate(td.bags) if v in bag]
        if not holding or not nx.is_connected(tree.subgraph(holding)):
            return False
    return td.width == max(len(bag) for bag in td.bags) - 1


@settings(max_examples=400)
@given(case=raw_decompositions())
def test_tree_verifier_matches_networkx(case):
    g, td = case
    assert verify_tree_decomposition(g, td).ok == networkx_is_tree_decomposition(g, td)


def reference_minfill_order(g):
    """The quadratic min-fill order and its width (most live neighbours at
    an elimination): every step rescans every live vertex."""
    adj = {v: set(g.rotation[v]) for v in g.vertices}
    order = []
    width = 0
    alive = set(g.vertices)
    while alive:
        best_v, best_fill = None, None
        for v in sorted(alive):
            lst = sorted(adj[v] & alive)
            fill = 0
            for i in range(len(lst)):
                for j in range(i + 1, len(lst)):
                    if lst[j] not in adj[lst[i]]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        lst = sorted(adj[best_v] & alive)
        width = max(width, len(lst))
        for i in range(len(lst)):
            for j in range(i + 1, len(lst)):
                adj[lst[i]].add(lst[j])
                adj[lst[j]].add(lst[i])
        order.append(best_v)
        alive.discard(best_v)
    return order, width


def random_planar_graph(n, density, seed):
    max_m = 3 * n - 6 if n >= 3 else n - 1
    m = min(max_m, max(n - 1, math.ceil(density * n)))
    return gen_random_planar(n, m, 1, seed).graph


planar_graphs = st.one_of(
    st.builds(
        random_planar_graph,
        st.integers(2, 80),
        st.floats(1.0, 2.9),
        st.integers(0, 2 ** 32 - 1),
    ),
    st.builds(make_grid, st.integers(1, 9), st.integers(1, 9)),
)


@settings(max_examples=150)
@given(g=planar_graphs)
def test_minfill_order_matches_reference(g):
    order, width = minfill_order(g)
    assert (order, width) == reference_minfill_order(g)
    assert width == td_from_elimination(g, order).width


@settings(max_examples=100)
@given(g=planar_graphs)
def test_td_from_bd_width_lower_bound(g):
    # every order set of bd lies in some bag of the translation
    bd = best_heuristic_bd(g)
    assert td_from_bd(g, bd).width >= bd.width - 1

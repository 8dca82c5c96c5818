"""The exact kernel the pipeline runs before the DP, rule by rule.

`exact_kernel` routes adjacent pairs, deletes non-terminals of degree at
most 1, suppresses non-terminals of degree 2 and deletes components
without terminals. Each rule keeps the answer, and `Kernel.solution` puts
the suppressed vertices back on a kernel solution's edges.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pdpp import solver
from pdpp.decomposition import tree_decompose
from pdpp.instances import DppInstance, Solution, gen_grid_instance, gen_random_planar
from pdpp.oracle import Status, solve_bruteforce, verify_solution
from pdpp.plane import make_grid, plane_graph_from_edges
from pdpp.solver import dp_solve, exact_kernel, solve_pipeline


def instance(n, edges, pairs):
    return DppInstance(plane_graph_from_edges(n, edges), tuple(pairs))


def record(monkeypatch, name):
    """Wrap `pdpp.solver.name`; the returned list gets each call's result."""
    calls = []
    real = getattr(solver, name)

    def wrapper(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(solver, name, wrapper)
    return calls


def solve_past_one_face(monkeypatch, inst):
    """`solve_pipeline(inst)` with the one-face stage falling through, so the
    kernel runs; returns the result and the calls to the kernel, the
    decomposition and the DP."""
    monkeypatch.setattr(solver, "one_face_decision", lambda cur: None)
    calls = {name: record(monkeypatch, name) for name in ("exact_kernel", "tree_decompose", "dp_solve")}
    return solve_pipeline(inst), calls


# pair (1, 2) must go 1-5-6-7-2: 1's other neighbour is the terminal 3
SERIES = instance(
    8,
    [(1, 5), (5, 6), (6, 7), (7, 2), (7, 3), (7, 8), (3, 8), (8, 4), (2, 4), (1, 3)],
    [(1, 2), (3, 4)],
)


def test_two_suppressions_in_series(monkeypatch):
    kernel = exact_kernel(SERIES)
    assert kernel.routed == {}
    assert kernel.to_input == (1, 2, 3, 4, 7, 8)
    g = kernel.inst.graph
    # the edge 1-7 stands for 1-5-6-7
    assert g.has_edge(1, 5)
    assert (kernel.inside[(1, 7)], kernel.inside[(7, 1)]) == ((5, 6), (6, 5))
    assert kernel.inst.pairs == ((1, 2), (3, 4))
    dp = dp_solve(kernel.inst)
    assert dp.solution.paths == ((1, 5, 2), (3, 6, 4))
    full = kernel.solution(dp.solution)
    assert full.paths == ((1, 5, 6, 7, 2), (3, 8, 4))
    assert verify_solution(SERIES, full)
    res, calls = solve_past_one_face(monkeypatch, SERIES)
    assert res.status is Status.YES
    assert res.outcome.solution == full
    assert [len(calls[name]) for name in calls] == [1, 1, 1]
    # the decomposition is reported in input ids and covers the kernel only
    assert set().union(*res.decomposition.bags) == {1, 2, 3, 4, 7, 8}


def test_routing_leaves_one_pair(monkeypatch):
    # (1, 2) is an edge; once it is routed, 3 and 4 are joined by a
    # shortest path through 5 (neighbours are scanned in increasing order).
    # 1-3 is an edge too, but 1 and 3 are ends of two different pairs.
    inst = instance(
        6,
        [(1, 2), (1, 3), (2, 4), (3, 5), (5, 4), (3, 6), (6, 4), (5, 6)],
        [(1, 2), (3, 4)],
    )
    kernel = exact_kernel(inst)
    assert kernel.routed == {0: (1, 2)}
    assert (kernel.inst.k, kernel.pair_ids, kernel.to_input) == (1, (1,), (3, 4, 5, 6))
    res, calls = solve_past_one_face(monkeypatch, inst)
    assert res.outcome.solution.paths == ((1, 2), (3, 5, 4))
    assert [len(calls[name]) for name in calls] == [1, 0, 0]
    assert res.decomposition is None


def test_every_pair_routed(monkeypatch):
    # the 6-cycle 1-8-2-4-7-3: suppressing 7 makes 3 and 4 adjacent, and
    # suppressing 8 makes 1 and 2 adjacent; both pairs are routed
    inst = instance(8, [(1, 8), (8, 2), (2, 4), (4, 7), (7, 3), (3, 1)], [(1, 2), (3, 4)])
    kernel = exact_kernel(inst)
    assert kernel.inst is None
    assert kernel.routed == {0: (1, 8, 2), 1: (3, 7, 4)}
    res, calls = solve_past_one_face(monkeypatch, inst)
    assert res.outcome.solution.paths == ((1, 8, 2), (3, 7, 4))
    assert [len(calls[name]) for name in calls] == [1, 0, 0]


def test_degree_one_non_terminals_go():
    # the path 1-2-3-4 with 5 hanging off 2: 5 goes, then 2 and 3 are
    # suppressed, and the pair (1, 4), whose ends have degree 1, is routed
    inst = instance(5, [(1, 2), (2, 3), (3, 4), (2, 5)], [(1, 4)])
    kernel = exact_kernel(inst)
    assert kernel.inst is None
    assert kernel.routed == {0: (1, 2, 3, 4)}


SQUARE = [(1, 3), (2, 3), (2, 4), (1, 4)]  # the 4-cycle 1-3-2-4


def test_suppression_beside_an_edge_deletes():
    # 5's neighbours 1 and 3 are adjacent already: 5 goes, and no edge comes
    inst = instance(5, SQUARE + [(1, 5), (5, 3)], [(1, 2), (3, 4)])
    kernel = exact_kernel(inst)
    assert kernel.to_input == (1, 2, 3, 4)
    assert kernel.inst.graph.edges == frozenset(SQUARE)
    assert kernel.inside == {}
    assert solve_pipeline(inst).status is Status.NO


def wheel(hub, rim):
    """The edges of a wheel: a hub joined to each vertex of the cycle `rim`."""
    return [(a, b) for a, b in zip(rim, rim[1:] + rim[:1])] + [(hub, v) for v in rim]


def test_terminal_free_component():
    # a K4 on 6-9 (every degree 3) holds no terminal and is deleted whole;
    # no other rule applies to it, nor to the wheel with the terminals
    k4 = [(6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9)]
    inst = instance(9, wheel(5, [1, 2, 3, 4]) + k4, [(1, 3), (2, 4)])
    kernel = exact_kernel(inst)
    assert kernel.to_input == (1, 2, 3, 4, 5)
    assert kernel.inst.graph.m == 8
    assert solve_pipeline(inst).status is Status.NO


def test_pairs_in_two_components_both_kept():
    # one pair on each of two wheels: both wheels stay
    inst = instance(10, wheel(5, [1, 2, 3, 4]) + wheel(10, [6, 7, 8, 9]), [(1, 3), (6, 8)])
    kernel = exact_kernel(inst)
    assert kernel.to_input == tuple(range(1, 11))
    assert solve_pipeline(inst).status is Status.YES


def test_7x7_routes_an_adjacent_pair(monkeypatch):
    # the boundary pair (49, 48) is an edge, and the kernel routes it; the
    # pipeline deletes one vertex first, then its kernel routes the pair
    # too and joins the other by a shortest path: no decomposition is built
    inst = gen_grid_instance(7, 2, 0)
    assert inst.pairs[0] == (49, 48)
    kernel = exact_kernel(inst)
    assert kernel.routed == {0: (49, 48)}
    assert kernel.inst.k == 1
    res, calls = solve_past_one_face(monkeypatch, inst)
    assert res.status is Status.YES
    assert [len(calls[name]) for name in calls] == [1, 0, 0]


def test_k1_yes_is_verified_once(monkeypatch):
    inst = gen_grid_instance(5, 1, 2)
    checked = record(monkeypatch, "verify_solution")
    res = solve_pipeline(inst)
    assert res.status is Status.YES
    assert len(checked) == 1 and checked[0]


# -- against the oracle -------------------------------------------------------------


def grafted(n, density, k, seed):
    """A small random plane instance with parts grafted on so that the
    rules fire: each edge is subdivided once or twice with probability 1/2,
    a path of two new vertices hangs off one vertex, and a K4 without
    terminals lies beside the graph. A pair may be adjacent already, or
    become adjacent once its edge's new vertices are suppressed."""
    base = gen_random_planar(n, min(3 * n - 6, max(n - 1, round(density * n))), k, seed)
    rng = random.Random(seed)
    edges = []
    fresh = base.graph.n
    for u, v in sorted(base.graph.edges):
        chain = [u]
        for _ in range(rng.choice((0, 0, 1, 2))):
            fresh += 1
            chain.append(fresh)
        chain.append(v)
        edges += zip(chain, chain[1:])
    edges += [(rng.randint(1, n), fresh + 1), (fresh + 1, fresh + 2)]
    k4 = range(fresh + 3, fresh + 7)
    edges += [(x, y) for x in k4 for y in k4 if x < y]
    return DppInstance(plane_graph_from_edges(fresh + 6, edges), base.pairs)


@settings(max_examples=150)
@given(
    inst=st.builds(
        grafted,
        st.integers(6, 12),
        st.floats(1.0, 2.2),
        st.integers(2, 3),
        st.integers(0, 2 ** 32 - 1),
    )
)
def test_pipeline_with_kernel_agrees_with_oracle(inst):
    truth = solve_bruteforce(inst).status
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "one_face_decision", lambda cur: None)
        past = solve_pipeline(inst)
    for res in (past, solve_pipeline(inst)):
        assert res.status is truth
        if truth is Status.YES:
            assert verify_solution(inst, res.outcome.solution)


# -- the decomposition never gets wider ---------------------------------------------


@pytest.mark.parametrize("n", [7, 8, 9])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_no_wider_on_interior_grids(n, k, seed):
    # interior-terminal grids: an n x n grid with 2k terminals drawn from
    # all of its vertices; every kernel here keeps two pairs or more, so
    # the DP runs on its decomposition
    ends = random.Random(seed).sample(range(1, n * n + 1), 2 * k)
    inst = DppInstance(make_grid(n, n), tuple(zip(ends[::2], ends[1::2])))
    kernel = exact_kernel(inst)
    assert kernel.inst.k >= 2
    assert tree_decompose(kernel.inst.graph).width <= tree_decompose(inst.graph).width


@pytest.mark.parametrize("seed", [1, 2])
def test_kernel_narrower_on_5x5(seed):
    # suppressing the corners that hold no terminal takes the width from 5
    # to 4 (each kernel here also routes a pair, and one pair is left)
    inst = gen_grid_instance(5, 2, seed)
    kernel = exact_kernel(inst)
    assert (tree_decompose(inst.graph).width, tree_decompose(kernel.inst.graph).width) == (5, 4)


def test_solution_without_kernel_instance():
    kernel = exact_kernel(instance(2, [(1, 2)], [(1, 2)]))
    assert kernel.inst is None
    assert kernel.solution(None) == Solution(((1, 2),))

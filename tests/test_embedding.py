"""The left-right embedding of `plane_graph_from_edges` against networkx.

networkx is a test-only dependency: its `check_planarity` is the reference
verdict, its `neighbors_cw_order` the reference rotation, and the outer dart
is the least dart of a longest face of that rotation.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from pdpp.instances import gen_random_planar, parse_instance
from pdpp.oracle import Status, verify_solution
from pdpp.plane import EmbeddingError, PlaneGraph, make_grid, norm_edge, plane_graph_from_edges
from pdpp.solver import solve_pipeline

SRC = Path(__file__).resolve().parents[1] / "src"


def reference(n, edges):
    """networkx's rotation and the outer dart picked from it, or None if non-planar.

    Edges go in sorted, as in `plane_graph_from_edges`: networkx's rotation
    depends on the order its graph was built in.
    """
    edge_list = sorted({norm_edge(u, v) for u, v in edges})
    G = nx.Graph()
    G.add_nodes_from(range(1, n + 1))
    G.add_edges_from(edge_list)
    planar, emb = nx.check_planarity(G)
    if not planar:
        return None
    rot = {v: tuple(emb.neighbors_cw_order(v)) for v in range(1, n + 1)}
    if not edge_list:
        return rot, None
    faces = PlaneGraph(n, edge_list, rot, edge_list[0]).faces()
    longest = max(len(f) for f in faces)
    return rot, min(min(f) for f in faces if len(f) == longest)


def assert_matches(n, edges):
    want = reference(n, edges)
    if want is None:
        with pytest.raises(EmbeddingError, match="input graph is not planar"):
            plane_graph_from_edges(n, edges)
        return False
    g = plane_graph_from_edges(n, edges)
    assert (g.rotation, g.outer_dart) == want
    return True


def relabel(n, edges, rng):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return sorted({norm_edge(perm[u - 1], perm[v - 1]) for u, v in edges})


def random_planar_edges(n, rng):
    m = rng.randint(n - 1, 3 * n - 6) if n >= 3 else n - 1
    return sorted(gen_random_planar(n, m, 1, rng.randrange(1 << 30)).graph.edges)


class TestSameAsNetworkx:
    def test_random_planar_relabelled(self):
        rng = random.Random(12)
        for n in range(3, 121):
            assert assert_matches(n, relabel(n, random_planar_edges(n, rng), rng))

    def test_grids_relabelled(self):
        rng = random.Random(13)
        for rows in range(2, 13):
            for cols in range(2, 13):
                g = make_grid(rows, cols)
                assert assert_matches(g.n, relabel(g.n, g.edges, rng))

    def test_forests_disconnected_and_isolated(self):
        rng = random.Random(14)
        for trial in range(60):
            n = rng.randint(1, 40)
            # a forest: each vertex hangs off an earlier one or starts a tree
            forest = [(rng.randint(1, v - 1), v) for v in range(2, n + 1) if rng.random() < 0.8]
            assert assert_matches(n, relabel(n, forest, rng))
            # planar pieces side by side, plus isolated vertices
            edges, base = [], 0
            for _ in range(rng.randint(2, 4)):
                size = rng.randint(3, 15)
                edges += [(u + base, v + base) for u, v in random_planar_edges(size, rng)]
                base += size + rng.randint(0, 2)
            assert assert_matches(base, relabel(base, edges, rng))
        for n in (0, 1, 2, 5):  # edgeless: empty rotations, no outer dart
            assert assert_matches(n, [])


def subdivided(n, branch, pattern, rng):
    """Edges of `pattern` on the `branch` vertices, each a path through 0-2 new vertices."""
    edges = []
    for a, b in pattern:
        path = [branch[a]]
        for _ in range(rng.randint(0, 2)):
            n += 1
            path.append(n)
        path.append(branch[b])
        edges += zip(path, path[1:])
    return n, edges


K5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
K33 = [(a, b) for a in range(3) for b in range(3, 6)]


class TestNonPlanar:
    @pytest.mark.parametrize("pattern", [K5, K33], ids=["K5", "K3,3"])
    def test_kuratowski_subdivision_in_planar_host(self, pattern):
        rng = random.Random(len(pattern))
        for _ in range(40):
            host = rng.randint(6, 40)
            branch = rng.sample(range(1, host + 1), 6)
            n, extra = subdivided(host, branch, pattern, rng)
            edges = random_planar_edges(host, rng) + extra
            assert not assert_matches(n, relabel(n, edges, rng))

    def test_planar_plus_random_edges(self):
        rng = random.Random(15)
        verdicts = set()
        for _ in range(150):
            n = rng.randint(5, 50)
            edges = set(random_planar_edges(n, rng))
            for _ in range(rng.randint(1, 6)):
                edges.add(norm_edge(*rng.sample(range(1, n + 1), 2)))
            verdicts.add(assert_matches(n, relabel(n, edges, rng)))
        assert verdicts == {True, False}


@settings(max_examples=300)
@given(data=st.data())
def test_any_small_graph_matches_networkx(data):
    n = data.draw(st.integers(0, 11))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    assert_matches(n, edges)


def ladder_text(length):
    """A 2 x length ladder without `rot` lines, rows joined at both ends."""
    top = range(1, length + 1)
    edges = [(v, v + 1) for v in top[:-1]]
    edges += [(v + length, v + length + 1) for v in top[:-1]]
    edges += [(v, v + length) for v in top]
    body = "".join(f"e {u} {v}\n" for u, v in edges)
    return f"p dpp {2 * length} {len(edges)} 2\n{body}t 1 {length}\nt {length + 1} {2 * length}\n"


class TestDeepInput:
    def test_long_ladder_embeds_and_solves(self):
        # the DFS from vertex 1 runs the whole top row and back along the
        # bottom one: 3,000 deep, with a back edge on every rung
        inst = parse_instance(ladder_text(1500))
        assert inst.graph.grid_shape == (2, 1500)
        res = solve_pipeline(inst)
        assert res.status is Status.YES
        assert verify_solution(inst, res.outcome.solution)

    def test_solve_without_rotation_never_imports_networkx(self, tmp_path):
        f = tmp_path / "ladder.dpp"
        f.write_text(ladder_text(30))
        probe = (
            "import sys\n"
            "from pdpp import cli\n"
            f"code = cli.main(['solve', '--json', {str(f)!r}])\n"
            "print('networkx' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
        )
        assert run.returncode == 0, run.stderr
        answer, imported = run.stdout.strip().splitlines()
        assert json.loads(answer)["answer"] == "yes"
        assert imported == "False"

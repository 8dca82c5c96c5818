import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pdpp.instances import (
    DppInstance,
    ParseError,
    Solution,
    gen_grid_instance,
    gen_random_planar,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from pdpp.plane import PlaneGraph, PlaneGraphError, connected_components


K2_TEXT = """\
p dpp 2 1 1
e 1 2
t 1 2
"""

# a 3-vertex path with a rotation for each vertex, before its outer and t records
PATH3_ROT = "p dpp 3 2 1\ne 1 2\ne 2 3\nrot 1 1 2\nrot 2 2 1 3\nrot 3 1 2\n"

# the benchmark's sparse pool pins the verdicts of gen_random_planar(n, m, k, seed)
SPARSE_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "sparse_pool.txt"


class TestParse:
    def test_k2(self):
        inst = parse_instance(K2_TEXT)
        assert inst.graph.n == 2
        assert inst.pairs == ((1, 2),)

    def test_comments_and_bytes(self):
        inst = parse_instance(b"# hi\np dpp 2 1 1\ne 1 2  # edge\nt 1 2\n")
        assert inst.k == 1

    def test_terminal_collision(self):
        with pytest.raises(ParseError, match="not distinct"):
            parse_instance("p dpp 2 1 1\ne 1 2\nt 1 1\n")

    @pytest.mark.parametrize(
        "pairs, line, message",
        [
            ("t 1 3\nt 3 4\n", 6, "terminal 3 used twice"),
            ("t 1 2\nt 4 1\n", 6, "terminal 1 used twice"),
            ("t 1 5\nt 2 3\n", 5, "terminal 5 outside 1..4"),
            ("t 1 2\nt 0 3\n", 6, "terminal 0 outside 1..4"),
        ],
        ids=["reused-in-second-pair", "reused-across-sides", "too-large", "zero"],
    )
    def test_bad_terminal_names_its_line(self, pairs, line, message):
        # the t record is rejected where it stands, not at the p line
        with pytest.raises(ParseError, match=rf"^line {line}: {message}$") as err:
            parse_instance("p dpp 4 3 2\ne 1 2\ne 2 3\ne 3 4\n" + pairs)
        assert err.value.line == line

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="duplicate edge"):
            parse_instance("p dpp 3 2 1\ne 1 2\ne 2 1\nt 1 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="declared"):
            parse_instance("p dpp 3 2 1\ne 1 2\nt 1 2\n")

    def test_nonplanar_rejected(self):
        lines = ["p dpp 5 10 1"]
        lines += [f"e {u} {v}" for u in range(1, 6) for v in range(u + 1, 6)]
        lines += ["t 1 2"]
        with pytest.raises(ParseError, match="planar"):
            parse_instance("\n".join(lines))

    def test_line_numbers_reported(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p dpp 2 1 1\ne 1 9\nt 1 2\n")
        assert err.value.line == 2

    def test_rotation_vertex_out_of_range(self):
        # every vertex of the 3-vertex path has its rotation; the extra one
        # names a vertex the graph does not have
        text = PATH3_ROT + "rot 7 2 1 3\nt 1 3\n"
        with pytest.raises(ParseError, match="vertex 7 outside 1..3") as err:
            parse_instance(text)
        assert err.value.line == 7

    def test_duplicate_outer(self):
        assert parse_instance(PATH3_ROT + "outer 2 3\nt 1 3\n").graph.outer_dart == (2, 3)
        with pytest.raises(ParseError, match="duplicate outer") as err:
            parse_instance(PATH3_ROT + "outer 1 2\nouter 2 3\nt 1 3\n")
        assert err.value.line == 8

    def test_roundtrip_identity(self):
        inst = gen_grid_instance(6, 2, 7)
        again = parse_instance(write_instance(inst))
        assert again.pairs == inst.pairs
        assert again.graph.edges == inst.graph.edges
        assert again.graph.rotation == inst.graph.rotation
        assert again.graph.outer_dart == inst.graph.outer_dart
        assert write_instance(again) == write_instance(inst)

    @pytest.mark.parametrize("embedded", [True, False])
    def test_grid_derived_on_the_one_graph_built(self, monkeypatch, embedded):
        inst = gen_grid_instance(6, 2, 7)
        text = write_instance(inst)
        if not embedded:
            text = "".join(
                line for line in text.splitlines(keepends=True)
                if not line.startswith(("rot", "outer"))
            )
        builds = []
        real = PlaneGraph.__init__

        def counted(self, *args, **kwargs):
            builds.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(PlaneGraph, "__init__", counted)
        again = parse_instance(text)
        assert builds == [again.graph]
        assert again.graph.grid_shape == inst.graph.grid_shape == (6, 6)
        assert again.graph.grid_coords == inst.graph.grid_coords


class TestSolutionFormat:
    def test_single_path(self):
        assert write_solution(Solution(((1, 2),))) == "s dpp yes\npath 1 1 2\n"

    def test_no(self):
        assert write_solution(None) == "s dpp no\n"
        assert parse_solution("s dpp no\n") is None

    def test_roundtrip(self):
        sol = Solution(((1, 2, 3), (4, 5)))
        assert parse_solution(write_solution(sol)) == sol

    def test_pair_order_preserved(self):
        text = write_solution(Solution(((1, 2), (3, 4))))
        lines = text.splitlines()
        assert lines[1].startswith("path 1 ") and lines[2].startswith("path 2 ")

    def test_bad_index(self):
        with pytest.raises(ParseError):
            parse_solution("s dpp yes\npath 2 1 2\n")


class TestGenerators:
    def test_grid_deterministic(self):
        a = write_instance(gen_grid_instance(6, 2, 7))
        b = write_instance(gen_grid_instance(6, 2, 7))
        assert a == b

    def test_grid_2x2(self):
        inst = gen_grid_instance(2, 1, 0)
        assert set(v for p in inst.pairs for v in p) <= {1, 2, 3, 4}

    def test_grid_terminals_on_boundary(self):
        inst = gen_grid_instance(10, 3, 1)
        terms = [v for p in inst.pairs for v in p]
        assert len(set(terms)) == 6
        for v in terms:
            assert inst.graph.degree(v) in (2, 3)

    def test_capacity_error(self):
        with pytest.raises(PlaneGraphError):
            gen_grid_instance(2, 3, 0)

    def test_random_planar_k4(self):
        inst = gen_random_planar(4, 6, 1, 3)
        assert inst.graph.m == 6
        assert all(inst.graph.degree(v) == 3 for v in inst.graph.vertices)

    def test_random_planar_tree(self):
        inst = gen_random_planar(5, 4, 2, 1)
        assert inst.graph.m == 4
        assert len(connected_components(inst.graph)) == 1

    def test_random_planar_m_too_big(self):
        with pytest.raises(PlaneGraphError):
            gen_random_planar(3, 7, 1, 1)

    def test_random_planar_deterministic(self):
        a = write_instance(gen_random_planar(9, 15, 2, 11))
        b = write_instance(gen_random_planar(9, 15, 2, 11))
        assert a == b

    def test_random_planar_valid_embeddings(self):
        for seed in range(20):
            inst = gen_random_planar(10, 14, 2, seed)
            assert inst.graph.n == 10 and inst.graph.m == 14

    def test_random_planar_matches_the_sparse_pool(self):
        # the pool's verdicts hold only for the instances it was pinned on:
        # the first 200 rows must still generate byte for byte the same text
        rows = [
            line.split()
            for line in SPARSE_POOL.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        digest = hashlib.sha256()
        for row in rows[:200]:
            n, m, k, seed = map(int, row[1:5])
            digest.update(write_instance(gen_random_planar(n, m, k, seed)).encode())
        assert digest.hexdigest() == (
            "6fecd868fb8881ac460ddee12906607100aaab578b63e80e56825ec4e6c8432f"
        )


@st.composite
def instances(draw):
    """Grid instances with side 2-6, or connected random planar ones, n 3-30."""
    if draw(st.booleans()):
        side = draw(st.integers(2, 6))
        k = draw(st.integers(1, 2 if side == 2 else 4))
        return gen_grid_instance(side, k, draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(3, 30))
    m = draw(st.integers(n - 1, 3 * n - 6))
    k = draw(st.integers(1, n // 2))
    return gen_random_planar(n, m, k, draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=100)
@given(inst=instances())
def test_instance_roundtrip_property(inst):
    text = write_instance(inst)
    again = parse_instance(text)
    assert again.pairs == inst.pairs
    assert again.graph.edges == inst.graph.edges
    assert again.graph.rotation == inst.graph.rotation
    assert again.graph.outer_dart == inst.graph.outer_dart
    assert write_instance(again) == text


@settings(max_examples=100)
@given(
    paths=st.lists(
        st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=8).map(tuple),
        min_size=1,
        max_size=5,
    )
)
def test_solution_roundtrip_property(paths):
    sol = Solution(tuple(paths))
    assert parse_solution(write_solution(sol)) == sol

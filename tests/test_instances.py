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
from pdpp.plane import (
    EmbeddingError,
    PlaneGraph,
    PlaneGraphError,
    _lr_rotation,
    connected_components,
    make_grid,
    norm_edge,
)


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

    @pytest.mark.parametrize("record", ["e 1 2", "rot 1 1 2", "outer 1 2", "t 1 2", "q 1"])
    def test_record_before_the_problem_line(self, record):
        with pytest.raises(ParseError, match="^line 1: record before the problem line$"):
            parse_instance(record + "\n" + K2_TEXT)

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

    def test_isolated_vertex_needs_no_rotation(self):
        # vertex 4 has no edge, so it needs no rot line when the others have one
        inst = parse_instance("p dpp 4 2 1\ne 1 2\ne 2 3\nrot 1 1 2\nrot 2 2 1 3\nrot 3 1 2\nt 1 4\n")
        assert inst.graph.rotation[4] == ()
        assert inst.graph.faces() == (((1, 2), (2, 3), (3, 2), (2, 1)),)

    def test_missing_rotations_named_on_the_problem_line(self):
        # a 4,000-vertex path with one rot line: the first five vertices
        # without one are named, at the p line
        n = 4000
        text = f"# a path\np dpp {n} {n - 1} 1\n" + "".join(f"e {v} {v + 1}\n" for v in range(1, n))
        text += "rot 2 2 1 3\nt 1 4000\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert (err.value.line, err.value.message) == (
            2, "rotation given for some vertices but missing for [1, 3, 4, 5, 6]"
        )

    def test_outer_record_needs_an_edge(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p dpp 3 0 1\nouter 1 2\nt 1 2\n")
        assert (err.value.line, err.value.message) == (1, "outer dart (1, 2) is not an edge")

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


# -- the one-pass loader against the loader it replaced -------------------------------


def _reference_records(text):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _reference_ints(lineno, fields, what):
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ParseError(lineno, f"non-integer value in {what} record")


def _reference_check_edges(n, edges):
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise PlaneGraphError(f"edge ({u},{v}) out of vertex range 1..{n}")
        if u == v:
            raise PlaneGraphError(f"loop at vertex {u} not allowed")


def reference_plane_graph(n, edges, rotation, outer):
    """The old `plane_graph_from_edges` and `PlaneGraph._validate`: edge and
    neighbour-set checks vertex by vertex, the outer dart checked only when
    the graph has edges, faces by a modulo turn table, components by
    union-find. Returns (n, edges, rotation, faces, outer_dart)."""
    edge_list = sorted({norm_edge(u, v) for u, v in edges})
    if rotation is None:
        _reference_check_edges(n, edge_list)
        rotation = _lr_rotation(n, edge_list)
        if rotation is None:
            raise EmbeddingError("input graph is not planar")
    edge_set = frozenset(norm_edge(u, v) for u, v in edge_list)
    rot = {v: tuple(rotation.get(v, ())) for v in range(1, n + 1)}
    _reference_check_edges(n, edge_set)
    nbr_sets = {v: set() for v in range(1, n + 1)}
    for u, v in edge_set:
        nbr_sets[u].add(v)
        nbr_sets[v].add(u)
    for v in range(1, n + 1):
        if len(rot[v]) != len(set(rot[v])):
            raise PlaneGraphError(f"rotation at {v} repeats a neighbor")
        if set(rot[v]) != nbr_sets[v]:
            raise PlaneGraphError(f"rotation at {v} is not a permutation of its neighbors")
    if edge_set and outer is not None and norm_edge(*outer) not in edge_set:
        raise PlaneGraphError(f"outer dart {outer} is not an edge")
    turn = {}
    for v in range(1, n + 1):
        for i, u in enumerate(rot[v]):
            turn[(u, v)] = (v, rot[v][(i + 1) % len(rot[v])])
    faces = []
    for u in range(1, n + 1):
        for v in rot[u]:
            if (u, v) in turn:
                orbit = [(u, v)]
                d = turn.pop((u, v))
                while d != (u, v):
                    orbit.append(d)
                    d = turn.pop(d)
                faces.append(tuple(orbit))
    faces.sort(key=min)
    if outer is None and edge_set:
        outer = min(max(faces, key=len))
    root = list(range(n + 1))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edge_set:
        root[find(u)] = find(v)
    c = len({find(v) for v in range(1, n + 1)})
    edged = len({find(u) for u, _ in edge_set})
    num_faces = len(faces) - (edged - 1) if edged else 1
    if n - len(edge_set) + num_faces != 1 + c:
        raise EmbeddingError(
            f"rotation system is not planar: n={n} m={len(edge_set)} "
            f"faces={num_faces} components={c}"
        )
    return n, edge_set, rot, tuple(faces), outer


def reference_parse_instance(text):
    """The old `parse_instance`, record by record through a generator, on
    `reference_plane_graph`. Returns (n, edges, rotation, faces,
    outer_dart, pairs)."""
    n = m = k = -1
    header_line = 0
    edges = []
    edge_seen = set()
    rot = {}
    outer = None
    pairs = []
    terminals = set()
    for lineno, fields in _reference_records(text):
        tag = fields[0]
        if tag == "p":
            if n >= 0:
                raise ParseError(lineno, "duplicate problem line")
            if len(fields) != 5 or fields[1] != "dpp":
                raise ParseError(lineno, "expected 'p dpp <n> <m> <k>'")
            n, m, k = _reference_ints(lineno, fields[2:], "problem")
            if n < 1 or m < 0 or k < 1:
                raise ParseError(lineno, f"bad sizes n={n} m={m} k={k}")
            header_line = lineno
        elif n < 0:
            raise ParseError(lineno, "record before the problem line")
        elif tag == "e":
            if len(fields) != 3:
                raise ParseError(lineno, "expected 'e <u> <v>'")
            u, v = _reference_ints(lineno, fields[1:], "edge")
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise ParseError(lineno, f"bad edge ({u},{v})")
            e = norm_edge(u, v)
            if e in edge_seen:
                raise ParseError(lineno, f"duplicate edge ({u},{v})")
            edge_seen.add(e)
            edges.append(e)
        elif tag == "rot":
            vals = _reference_ints(lineno, fields[1:], "rotation")
            if len(vals) < 2 or len(vals) != 2 + vals[1]:
                raise ParseError(lineno, "expected 'rot <v> <d> <w1> ... <wd>'")
            v = vals[0]
            if not 1 <= v <= n:
                raise ParseError(lineno, f"rotation for vertex {v} outside 1..{n}")
            if v in rot:
                raise ParseError(lineno, f"duplicate rotation for vertex {v}")
            rot[v] = vals[2:]
        elif tag == "outer":
            if len(fields) != 3:
                raise ParseError(lineno, "expected 'outer <u> <v>'")
            if outer is not None:
                raise ParseError(lineno, "duplicate outer record")
            u, v = _reference_ints(lineno, fields[1:], "outer")
            outer = (u, v)
        elif tag == "t":
            if len(fields) != 3:
                raise ParseError(lineno, "expected 't <s> <t>'")
            s, t = _reference_ints(lineno, fields[1:], "terminal")
            if s == t:
                raise ParseError(lineno, f"terminals not distinct in pair ({s},{t})")
            for v in (s, t):
                if not 1 <= v <= n:
                    raise ParseError(lineno, f"terminal {v} outside 1..{n}")
                if v in terminals:
                    raise ParseError(lineno, f"terminal {v} used twice")
                terminals.add(v)
            pairs.append((s, t))
        else:
            raise ParseError(lineno, f"unknown record '{tag}'")
    if n < 0:
        raise ParseError(1, "missing problem line")
    if len(edges) != m:
        raise ParseError(header_line, f"declared {m} edges, found {len(edges)}")
    if len(pairs) != k:
        raise ParseError(header_line, f"declared {k} pairs, found {len(pairs)}")
    rotation = None
    if rot:
        missing = [v for v in range(1, n + 1) if v not in rot and any(v in e for e in edges)]
        if missing:
            raise ParseError(
                header_line,
                f"rotation given for some vertices but missing for {missing[:5]}",
            )
        rotation = {v: rot.get(v, []) for v in range(1, n + 1)}
    try:
        return (*reference_plane_graph(n, edges, rotation, outer), tuple(pairs))
    except PlaneGraphError as exc:
        raise ParseError(header_line or 1, str(exc))


def loaded(text):
    """What `parse_instance` reads from text, as `reference_parse_instance`
    reports it: the error's line and message, or the graph and pairs."""
    try:
        inst = parse_instance(text)
    except ParseError as exc:
        return exc.line, exc.message
    g = inst.graph
    return g.n, g.edges, g.rotation, g.faces(), g.outer_dart, inst.pairs


def reference_loaded(text):
    """`loaded` by the old loader, except that an outer record on a graph
    without edges is now an error at the problem line."""
    try:
        got = reference_parse_instance(text)
    except ParseError as exc:
        return exc.line, exc.message
    n, edges, _, _, outer, _ = got
    if not edges and outer is not None:
        header = next(i for i, fields in _reference_records(text) if fields[0] == "p")
        return header, f"outer dart {outer} is not an edge"
    return got


@st.composite
def mutated_texts(draw):
    """An instance's text with or without its rot and outer lines, with up to
    three edits: a line dropped, duplicated, swapped with another, cut short
    or garbled, two neighbours of a rotation swapped, or a neighbour or the
    outer dart replaced by vertices of the graph."""
    inst = draw(instances())
    keep_rot, keep_outer = draw(st.booleans()), draw(st.booleans())
    lines = [
        line for line in write_instance(inst).splitlines()
        if (keep_rot or not line.startswith("rot")) and (keep_outer or not line.startswith("outer"))
    ]
    vertex = st.integers(1, inst.graph.n).map(str)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(
            ["drop", "duplicate", "swap", "cut", "garble", "reorder", "neighbour", "outer"]
        ))
        rot_lines = [i for i, line in enumerate(lines) if line.startswith("rot") and len(line.split()) > 3]
        if edit in ("reorder", "neighbour") and rot_lines:
            i = draw(st.sampled_from(rot_lines))
            fields = lines[i].split()
            a, b = draw(st.integers(3, len(fields) - 1)), draw(st.integers(3, len(fields) - 1))
            if edit == "reorder":
                fields[a], fields[b] = fields[b], fields[a]
            else:
                fields[a] = draw(vertex)
            lines[i] = " ".join(fields)
        elif edit == "outer":
            lines = [line for line in lines if not line.startswith("outer")]
            lines.insert(1, f"outer {draw(vertex)} {draw(vertex)}")
        elif len(lines) > 1:
            i = draw(st.integers(0, len(lines) - 1))
            fields = lines[i].split()
            j = draw(st.integers(0, len(fields) - 1))
            if edit == "drop":
                del lines[i]
            elif edit == "duplicate":
                lines.insert(i, lines[i])
            elif edit == "swap":
                k = draw(st.integers(0, len(lines) - 1))
                lines[i], lines[k] = lines[k], lines[i]
            elif edit == "cut":
                lines[i] = " ".join(fields[:j] + fields[j + 1:])
            else:
                fields[j] = draw(
                    st.sampled_from(["x", "1.5", "p", "e", "rot", "outer", "t", "#", ""])
                    | st.integers(-1, inst.graph.n + 1).map(str)
                )
                lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=400)
@given(text=mutated_texts())
def test_loader_matches_reference_loader(text):
    assert loaded(text) == reference_loaded(text)


ROT_FAULTS = {
    # in the 2x3 grid 1 2 3 over 4 5 6, vertex 2 has neighbours 3, 5, 1 and
    # vertex 5 has 2, 6, 4
    "repeat": ("rot 2 3 1 3 3", "rotation at 2 repeats a neighbor"),
    "missing-neighbour": ("rot 2 2 1 3", "rotation at 2 is not a permutation of its neighbors"),
    # 4 in place of 5: the dart count is right, a forward dart is no edge
    "non-neighbour": ("rot 2 3 1 3 4", "rotation at 2 is not a permutation of its neighbors"),
    # 5 lists 1 in place of 2, and 1 does not list 5: the forward darts
    # are still the edges, a backward one is not
    "asymmetric": ("rot 5 3 1 6 4", "rotation at 5 is not a permutation of its neighbors"),
}


@pytest.mark.parametrize("fault", sorted(ROT_FAULTS))
def test_rotation_faults_keep_their_messages(fault):
    bad, message = ROT_FAULTS[fault]
    v = bad.split()[1]
    text = write_instance(DppInstance(make_grid(2, 3), ((1, 6),)))
    text = "".join(
        (bad if line.split()[:2] == ["rot", v] else line) + "\n" for line in text.splitlines()
    )
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.line, err.value.message) == (1, message)
    assert loaded(text) == reference_loaded(text)

import math
import random
from collections import Counter, deque

import pytest
from hypothesis import assume, given, settings, strategies as st

from pdpp import plane
from pdpp.gallery import ring_lattice
from pdpp.instances import DppInstance, gen_grid_instance, gen_random_planar
from pdpp.plane import (
    Cycle,
    EmbeddingError,
    GridMinorModel,
    PlaneGraph,
    PlaneGraphError,
    centers,
    closed_interior,
    cycle_from_edges,
    delete_vertices,
    detect_grid,
    face_regions,
    grid_ring,
    grid_vertex,
    make_grid,
    norm_edge,
    outer_cycle,
    plane_graph_from_edges,
    plane_graph_from_points,
    verify_minor_model,
)
from pdpp.solver import exact_kernel


def triangle():
    return plane_graph_from_edges(3, [(1, 2), (2, 3), (1, 3)])


def rebuilds_grid(g, shape, coords):
    """Whether `coords` puts g's vertices one to a cell of a `shape` grid
    whose edges are exactly g's."""
    rows, cols = shape
    at = {rc: v for v, rc in coords.items()}
    if sorted(at) != [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]:
        return False
    rebuilt = {norm_edge(at[(i, j)], at[nb]) for (i, j) in at for nb in ((i + 1, j), (i, j + 1)) if nb in at}
    return rebuilt == g.edges


class TestFaces:
    def test_triangle_has_two_faces(self):
        g = triangle()
        assert g.num_faces() == 2

    def test_2x2_grid_has_two_faces(self):
        g = make_grid(2, 2)
        assert g.num_faces() == 2

    def test_6x6_grid_has_26_faces(self):
        g = make_grid(6, 6)
        assert g.num_faces() == 26

    def test_single_vertex(self):
        g = make_grid(1, 1)
        assert g.n == 1 and g.m == 0

    def test_euler_on_path_graph(self):
        g = make_grid(1, 5)
        assert g.num_faces() == 1

    def test_nonplanar_rotation_rejected(self):
        # K5 cannot be embedded; any rotation system fails the Euler check.
        edges = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
        rot = {v: [w for w in range(1, 6) if w != v] for v in range(1, 6)}
        with pytest.raises(EmbeddingError):
            PlaneGraph(5, edges, rot, (1, 2))

    def test_nonplanar_input_rejected(self):
        edges = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
        with pytest.raises(EmbeddingError):
            plane_graph_from_edges(5, edges)

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, [(1, 1)], "loop at vertex 1 not allowed"),
            (3, [(1, 2), (1, 1)], "loop at vertex 1 not allowed"),
            (3, [(1, 4)], r"edge \(1,4\) out of vertex range 1\.\.3"),
            (3, [(0, 1)], r"edge \(0,1\) out of vertex range 1\.\.3"),
            (3, [(2, 3), (1, 0)], r"edge \(0,1\) out of vertex range 1\.\.3"),
            (2, [(1, 2), (2, 5), (1, 5), (5, 6)], r"edge \(1,5\) out of vertex range 1\.\.2"),
        ],
    )
    def test_bad_edges_rejected_before_embedding(self, n, edges, message):
        # without a rotation system the embedding reads int arrays of size
        # n + 1, so a loop or a vertex outside 1..n must be refused first
        with pytest.raises(PlaneGraphError, match=f"^{message}$"):
            plane_graph_from_edges(n, edges)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_edgeless_graphs_embed(self, n):
        g = plane_graph_from_edges(n, [])
        assert (g.n, g.m, g.outer_dart) == (n, 0, None)
        assert g.rotation == {v: () for v in range(1, n + 1)}

    def test_rotation_must_match_neighbors(self):
        with pytest.raises(PlaneGraphError):
            PlaneGraph(3, [(1, 2)], {1: [2], 2: [1, 3], 3: []}, (1, 2))

    def test_outer_dart_must_be_an_edge_without_edges_too(self):
        with pytest.raises(PlaneGraphError, match=r"^outer dart \(1, 2\) is not an edge$"):
            PlaneGraph(3, [], {}, (1, 2))
        assert PlaneGraph(3, [], {}, None).outer_dart is None


class TestGrid:
    def test_6x6_counts(self):
        g = make_grid(6, 6)
        assert g.n == 36
        assert g.m == 60
        corners = {v for v in g.vertices if g.degree(v) == 2}
        assert len(corners) == 4
        assert len(centers(g)) == 4

    def test_2x3_grid(self):
        g = make_grid(2, 3)
        assert g.n == 6 and g.m == 7
        assert sum(1 for v in g.vertices if g.degree(v) == 2) == 4

    def test_5x5_single_center(self):
        g = make_grid(5, 5)
        cs = centers(g)
        assert cs == frozenset({grid_vertex(5, 5, 3, 3)})

    def test_2x2_all_centers(self):
        g = make_grid(2, 2)
        assert centers(g) == frozenset({1, 2, 3, 4})

    def test_even_grids_have_four_centers(self):
        for n in (2, 4, 6, 8):
            assert len(centers(make_grid(n, n))) == 4

    def test_odd_grids_have_one_center(self):
        for n in (3, 5, 7):
            assert len(centers(make_grid(n, n))) == 1

    def test_centers_rejects_non_grid(self):
        with pytest.raises(PlaneGraphError):
            centers(triangle())

    def test_outer_face_is_largest(self):
        g = make_grid(4, 4)
        faces = g.faces()
        outer = g.outer_face()
        assert len(faces[outer]) == max(len(f) for f in faces)

    def test_grid_ring(self):
        g = make_grid(5, 5)
        ring = grid_ring(g, 1)
        assert len(ring) == 8
        assert grid_vertex(5, 5, 2, 2) in ring.vertex_set

    def test_derived_grid_is_row_major(self):
        # a single column is a path, and reads as one row like every path
        for rows in range(1, 13):
            for cols in range(1, 13):
                g = make_grid(rows, cols)
                if cols == 1 < rows:
                    want = (1, rows), {v: (1, v) for v in g.vertices}
                else:
                    want = (rows, cols), {
                        grid_vertex(rows, cols, r, c): (r, c)
                        for r in range(1, rows + 1)
                        for c in range(1, cols + 1)
                    }
                assert (g.grid_shape, g.grid_coords) == want, (rows, cols)

    def test_relabelled_grids_are_recognised(self):
        # with make_grid's embedding, and with the one computed from the
        # edges alone, which for a 2 x c ladder may flip a rung
        for rows in range(2, 11):
            for cols in range(2, 11):
                h = make_grid(rows, cols)
                perm = list(h.vertices)
                random.Random(100 * rows + cols).shuffle(perm)
                new = dict(zip(h.vertices, perm))
                edges = [(new[u], new[v]) for u, v in h.edges]
                rotation = {new[v]: [new[w] for w in h.rotation[v]] for v in h.vertices}
                for g in (plane_graph_from_edges(h.n, edges, rotation), plane_graph_from_edges(h.n, edges)):
                    r, c = g.grid_shape
                    assert sorted((r, c)) == sorted((rows, cols))
                    assert rebuilds_grid(g, g.grid_shape, g.grid_coords)

    @pytest.mark.parametrize("side, k, seed", [(7, 2, 0), (7, 2, 1), (8, 2, 5), (7, 3, 0)])
    def test_grid_is_read_whichever_face_is_outer(self, side, k, seed):
        # the border is the face through the four corners, outer or not; the
        # first twelve faces of (7, 2, 0) include an inner cell, dart (9, 16)
        from pdpp.solver import solve_pipeline

        inst = gen_grid_instance(side, k, seed)
        h = inst.graph
        want = solve_pipeline(inst).outcome.status
        for i, face in enumerate(h.faces()[:12]):
            g = PlaneGraph(h.n, h.edges, h.rotation, face[0])
            assert g.outer_face() == i
            assert (g.grid_shape, g.grid_coords) == (h.grid_shape, h.grid_coords), face[0]
            if i % 4 == 0:
                res = solve_pipeline(DppInstance(g, inst.pairs))
                assert res.outcome.status == want, face[0]
                assert len(res.certificates) == 1, face[0]

    def test_deletions_are_not_grids(self):
        for rows, cols in ((3, 3), (3, 5), (4, 4), (5, 6)):
            g = make_grid(rows, cols)
            for v in g.vertices:
                h = delete_vertices(g, [v])[0]
                assert (h.grid_shape, h.grid_coords) == (None, None), (rows, cols, v)

    def test_grid_fields_are_read_only(self):
        g = make_grid(3, 4)
        for name in ("grid_shape", "grid_coords"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
        assert g.grid_shape == (3, 4)


class TestInterior:
    def test_outer_cycle_encloses_everything(self):
        g = make_grid(4, 4)
        region = closed_interior(g, outer_cycle(g))
        assert region.vertices == frozenset(g.vertices)
        assert region.edges == g.edges

    def test_inner_face_of_3x3(self):
        g = make_grid(3, 3)
        c = Cycle((1, 2, 5, 4))
        region = closed_interior(g, c)
        assert region.vertices == frozenset({1, 2, 4, 5})
        assert len(region.faces) == 1

    def test_middle_ring_of_5x5(self):
        g = make_grid(5, 5)
        region = closed_interior(g, grid_ring(g, 1))
        want = {
            grid_vertex(5, 5, r, c) for r in (2, 3, 4) for c in (2, 3, 4)
        }
        assert region.vertices == frozenset(want)

    def test_interior_exterior_partition(self):
        g = make_grid(4, 4)
        c = grid_ring(g, 1)
        region = closed_interior(g, c)
        outside = frozenset(g.vertices) - region.vertices
        assert outside | region.vertices == frozenset(g.vertices)
        assert not (outside & region.open_vertices())

    def test_chord_outside_cycle_stays_out(self):
        # Square 1-2-3-4 with a chord 1-3 drawn outside the square.
        pts = {1: (0.0, 0.0), 2: (2.0, 0.0), 3: (2.0, 2.0), 4: (0.0, 2.0), 5: (4.0, 1.0)}
        g = plane_graph_from_points(pts, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 5), (3, 5)])
        sq = Cycle((1, 2, 3, 4))
        region = closed_interior(g, sq)
        assert 5 not in region.vertices
        assert (2, 5) not in region.edges


class TestMinorModel:
    def test_identity_model(self):
        g = make_grid(3, 3)
        phi = {
            (r, c): frozenset({grid_vertex(3, 3, r, c)})
            for r in (1, 2, 3)
            for c in (1, 2, 3)
        }
        assert verify_minor_model(g, GridMinorModel(3, 3, phi))

    def test_shared_vertex_rejected(self):
        g = make_grid(2, 2)
        phi = {
            (1, 1): frozenset({1}),
            (1, 2): frozenset({1, 2}),
            (2, 1): frozenset({3}),
            (2, 2): frozenset({4}),
        }
        result = verify_minor_model(g, GridMinorModel(2, 2, phi))
        assert not result
        assert any("shared" in p for p in result.problems)

    def test_2x2_blocks_in_4x4(self):
        g = make_grid(4, 4)
        phi = {}
        for br in (1, 2):
            for bc in (1, 2):
                block = {
                    grid_vertex(4, 4, r, c)
                    for r in (2 * br - 1, 2 * br)
                    for c in (2 * bc - 1, 2 * bc)
                }
                phi[(br, bc)] = frozenset(block)
        assert verify_minor_model(g, GridMinorModel(2, 2, phi))

    def test_disconnected_branch_set_rejected(self):
        g = make_grid(1, 4)
        phi = {(1, 1): frozenset({1, 3}), (1, 2): frozenset({2})}
        result = verify_minor_model(g, GridMinorModel(1, 2, phi))
        assert not result


class TestDelete:
    def test_delete_center(self):
        g = make_grid(3, 3)
        h, remap = delete_vertices(g, [5])
        assert h.n == 8 and h.m == 8
        assert 5 not in remap
        assert h.num_faces() == 2

    def test_outer_face_deleted_picks_longest_face(self):
        # every dart of the triangle's outer face touches a deleted vertex,
        # so the outer dart is picked afresh: the least dart of a longest face
        g = plane_graph_from_points(
            {1: (0.0, 0.0), 2: (4.0, 0.0), 3: (2.0, 4.0), 4: (2.0, 1.0), 5: (1.5, 2.0), 6: (2.5, 2.0)},
            [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)],
        )
        h, remap = delete_vertices(g, [1, 2, 3])
        assert (h.n, h.m) == (3, 3)
        assert h.outer_dart == (1, 2)


class TestOuterDart:
    def test_longest_face_given_rotation(self):
        # a square with a pendant path: the outer orbit (8 of the 12 darts)
        # is the longest, and (1, 2) is its least dart
        rot = {1: [2, 4], 2: [3, 1], 3: [4, 2, 5], 4: [1, 3], 5: [3, 6], 6: [5]}
        edges = [(1, 2), (2, 3), (3, 4), (1, 4), (3, 5), (5, 6)]
        g = plane_graph_from_edges(6, edges, rot)
        assert g.outer_dart == (1, 2)
        assert len(g.faces()[g.outer_face()]) == 8

    def test_bad_rotation_keeps_its_message(self):
        # without an outer dart, a rotation that is not a permutation of the
        # neighbours is reported as such, not as a failed face walk
        with pytest.raises(PlaneGraphError, match="^rotation at 2 is not a permutation"):
            plane_graph_from_edges(3, [(1, 2), (2, 3)], {1: [2], 2: [1], 3: [2]})
        with pytest.raises(EmbeddingError, match="^rotation system is not planar"):
            edges = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
            plane_graph_from_edges(5, edges, {v: [w for w in range(1, 6) if w != v] for v in range(1, 6)})

    def test_omitted_dart_is_picked_by_the_graph(self):
        # PlaneGraph itself, not only its builders, takes the least dart of
        # a longest face when none is given
        rot = {1: [2, 4], 2: [3, 1], 3: [4, 2, 5], 4: [1, 3], 5: [3, 6], 6: [5]}
        edges = [(1, 2), (2, 3), (3, 4), (1, 4), (3, 5), (5, 6)]
        g = PlaneGraph(6, edges, rot, None)
        assert g.outer_dart == (1, 2)
        assert g.faces() == plane_graph_from_edges(6, edges, rot).faces()
        assert len(g.faces()[g.outer_face()]) == 8


def star_drawing(spokes, seed):
    """A straight-line drawing: a centre joined to points at random angles
    and radii, with random rims between angular neighbours less than a
    half-turn apart; no two segments cross."""
    rng = random.Random(seed)
    cx, cy = rng.uniform(-1, 1), rng.uniform(-1, 1)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(spokes))
    points = {1: (cx, cy)}
    for i, a in enumerate(angles, start=2):
        r = rng.uniform(0.5, 3)
        points[i] = (cx + r * math.cos(a), cy + r * math.sin(a))
    edges = [(1, v) for v in range(2, spokes + 2)]
    for i in range(spokes):
        gap = (angles[(i + 1) % spokes] - angles[i]) % (2 * math.pi)
        if spokes > 2 and gap < math.pi - 0.01 and rng.random() < 0.7:
            edges.append((i + 2, (i + 1) % spokes + 2))
    return points, edges


def ring_drawing(rings, sectors, bits):
    """A polar grid's points with its outer ring and a random subset of its
    other ring edges and spokes."""

    def vid(ring, s):
        return ring * sectors + s % sectors + 1

    points = {
        vid(r, s): ((1 + r) * math.cos(2 * math.pi * s / sectors), (1 + r) * math.sin(2 * math.pi * s / sectors))
        for r in range(rings)
        for s in range(sectors)
    }
    outer = [(vid(rings - 1, s), vid(rings - 1, s + 1)) for s in range(sectors)]
    inner = [(vid(r, s), vid(r, s + 1)) for r in range(rings - 1) for s in range(sectors)]
    spokes = [(vid(r, s), vid(r + 1, s)) for r in range(rings - 1) for s in range(sectors)]
    return points, outer + [e for i, e in enumerate(inner + spokes) if bits >> i % 60 & 1]


@settings(max_examples=200)
@given(
    drawing=st.one_of(
        st.builds(star_drawing, st.integers(1, 12), st.integers(0, 2**32 - 1)),
        st.builds(ring_drawing, st.integers(1, 4), st.integers(3, 9), st.integers(0, 2**60 - 1)),
    )
)
def test_outer_face_from_points_has_least_signed_area(drawing):
    # of the faces at the rightmost (then topmost) point, the unbounded one
    # is traced clockwise: its polygon has the least signed area
    points, edges = drawing
    g = plane_graph_from_points(points, edges)
    ext = max(points, key=lambda v: (points[v][0], points[v][1]))

    def signed_area(orbit):
        poly = [points[u] for u, _ in orbit]
        return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]))

    at_ext = [i for i, orbit in enumerate(g.faces()) if any(u == ext for u, _ in orbit)]
    assert g.outer_face() == min(at_ext, key=lambda i: signed_area(g.faces()[i]))


def reference_faces(g):
    """Every dart orbit, each from its first dart in vertex then rotation
    order, sorted by least dart; each step looks the dart up in the
    rotation."""

    def next_dart(d):
        u, v = d
        rot = g.rotation[v]
        return (v, rot[(rot.index(u) + 1) % len(rot)])

    orbits = []
    seen = set()
    for u in g.vertices:
        for v in g.rotation[u]:
            if (u, v) in seen:
                continue
            orbit = []
            d = (u, v)
            while d not in seen:
                seen.add(d)
                orbit.append(d)
                d = next_dart(d)
            orbits.append(tuple(orbit))
    orbits.sort(key=min)
    return tuple(orbits)


def reference_num_faces(g, orbits):
    """Euler's count: the unbounded face once, not once per component."""
    comp = {v: v for v in g.vertices}

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    for u, v in g.edges:
        comp[find(u)] = find(v)
    edged = len({find(u) for u, _ in g.edges})
    return len(orbits) - (edged - 1) if edged else 1


def random_planar(n, extra, seed, embed):
    g = gen_random_planar(n, min(3 * n - 6, n - 1 + extra), 1, seed).graph
    return g if embed else plane_graph_from_edges(g.n, g.edges)


def after_deletion(g, picks):
    return delete_vertices(g, {1 + p % g.n for p in picks})[0]


def ring_host(rings, sectors, spoke_bits, ring_bits):
    return ring_lattice(
        rings,
        sectors,
        spokes=lambda ring, s: spoke_bits >> (ring * sectors + s) % 60 & 1,
        ring_edges=lambda ring: ring == rings - 1 or ring_bits >> ring & 1,
    )[0]


random_planar_graphs = st.builds(
    random_planar, st.integers(3, 30), st.integers(0, 40), st.integers(0, 2**32 - 1), st.booleans()
)
plane_graphs = st.one_of(
    random_planar_graphs,
    st.builds(after_deletion, random_planar_graphs, st.lists(st.integers(0, 99), max_size=8)),
    st.builds(
        ring_host,
        st.integers(1, 4),
        st.integers(3, 9),
        st.integers(0, 2**60 - 1),
        st.integers(0, 15),
    ),
    st.builds(make_grid, st.integers(1, 7), st.integers(1, 7)),
)


@settings(max_examples=200)
@given(g=plane_graphs)
def test_faces_match_reference_walk(g):
    orbits = reference_faces(g)
    assert g.faces() == orbits
    for i, orbit in enumerate(orbits):
        assert all(g.face_of_dart(d) == i for d in orbit)
    assert g.num_faces() == reference_num_faces(g, orbits)
    if g.m:
        assert g.outer_dart in orbits[g.outer_face()]
    else:
        assert g.outer_face() == -1
    # without a dart, the least dart of a longest face, on the same orbits
    h = PlaneGraph(g.n, g.edges, g.rotation, None)
    assert h.faces() == orbits
    want = min(max(orbits, key=len)) if orbits else None
    assert h.outer_dart == want
    assert h.outer_face() == (orbits.index(max(orbits, key=len)) if orbits else -1)


def reference_rotation_fault(n, edges, rotation):
    """The rotation check vertex by vertex, as `PlaneGraph` made it before it
    counted darts: the message for the first edge outside 1..n or loop, else
    for the first vertex whose rotation repeats a neighbour or is not a
    permutation of its neighbours; None when there is none."""
    edge_set = frozenset(norm_edge(u, v) for u, v in edges)
    for u, v in edge_set:
        if not (1 <= u <= n and 1 <= v <= n):
            return f"edge ({u},{v}) out of vertex range 1..{n}"
        if u == v:
            return f"loop at vertex {u} not allowed"
    nbrs = {v: set() for v in range(1, n + 1)}
    for u, v in edge_set:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for v in range(1, n + 1):
        rot = rotation.get(v, ())
        if len(rot) != len(set(rot)):
            return f"rotation at {v} repeats a neighbor"
        if set(rot) != nbrs[v]:
            return f"rotation at {v} is not a permutation of its neighbors"
    return None


@st.composite
def rotation_mutants(draw):
    """A plane graph's edges and rotation after one to three edits: a
    neighbour replaced, dropped, repeated or inserted (ids 0..n+1), two
    neighbours swapped, or an edge added (a loop, out of range, new or
    already there)."""
    g = draw(plane_graphs)
    assume(g.n >= 1)
    edges = sorted(g.edges)
    rotation = {v: list(rot) for v, rot in g.rotation.items()}
    vertex = st.integers(0, g.n + 1)
    for _ in range(draw(st.integers(1, 3))):
        rot = rotation[draw(st.integers(1, g.n))]
        edit = draw(st.sampled_from(["replace", "drop", "repeat", "insert", "swap", "edge"]))
        if edit == "edge":
            edges.append((draw(vertex), draw(vertex)))
        elif edit == "insert" or not rot:
            rot.insert(draw(st.integers(0, len(rot))), draw(vertex))
        else:
            i, j = draw(st.integers(0, len(rot) - 1)), draw(st.integers(0, len(rot) - 1))
            if edit == "replace":
                rot[i] = draw(vertex)
            elif edit == "drop":
                del rot[i]
            elif edit == "repeat":
                rot.insert(i, rot[j])
            else:
                rot[i], rot[j] = rot[j], rot[i]
    return g.n, edges, rotation


@settings(max_examples=300)
@given(case=rotation_mutants())
def test_dart_count_matches_neighbour_sets(case):
    # the dart count accepts exactly the rotations the vertex-by-vertex
    # check accepts, and reports the fault that check finds first
    n, edges, rotation = case
    fault = reference_rotation_fault(n, edges, rotation)
    if fault is not None:
        with pytest.raises(PlaneGraphError) as err:
            PlaneGraph(n, edges, rotation, None)
        assert str(err.value) == fault
        return
    try:
        g = PlaneGraph(n, edges, rotation, None)
    except EmbeddingError as exc:
        assert str(exc).startswith("rotation system is not planar")
        return
    assert g.faces() == reference_faces(g)


# -- derived graphs against validated rebuilds ---------------------------------------


def reference_delete_vertices(g, doomed):
    """`delete_vertices` by a validated rebuild: the surviving edges and
    rotations, and as outer dart the first surviving dart of the old outer
    orbit, else the constructor's pick."""
    keep = [v for v in g.vertices if v not in doomed]
    remap = {old: i + 1 for i, old in enumerate(keep)}
    edges = [(remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap]
    rotation = {remap[v]: [remap[w] for w in g.rotation[v] if w in remap] for v in keep}
    outer_orbit = g.faces()[g.outer_face()] if g.m else ()
    outer = next(((remap[u], remap[v]) for u, v in outer_orbit if u in remap and v in remap), None)
    return PlaneGraph(len(keep), edges, rotation, outer), remap


def face_reading(g):
    """What a plane graph's faces determine; the face count is read first,
    so a graph that traces its faces on demand traces them here."""
    return g.num_faces(), g.outer_face(), g.faces(), g.outer_dart, g.rotation, g.edges, g.n


@settings(max_examples=200)
@given(g=plane_graphs, picks=st.lists(st.integers(0, 99), max_size=8))
def test_deletion_equals_validated_rebuild(g, picks):
    doomed = {1 + p % g.n for p in picks}
    h, remap = delete_vertices(g, doomed)
    want, want_remap = reference_delete_vertices(g, doomed)
    assert remap == want_remap
    assert face_reading(h) == face_reading(want)


@settings(max_examples=200)
@given(g=plane_graphs, picks=st.lists(st.integers(0, 99), min_size=2, max_size=12))
def test_kernel_graph_equals_validated_rebuild(g, picks):
    assume(g.n >= 2)
    ends = list(dict.fromkeys(1 + p % g.n for p in picks))
    assume(len(ends) >= 2)
    small = exact_kernel(DppInstance(g, tuple(zip(ends[::2], ends[1::2])))).inst
    if small is not None:
        h = small.graph
        assert face_reading(h) == face_reading(PlaneGraph(h.n, h.edges, h.rotation, None))


@settings(max_examples=200)
@given(g=plane_graphs, seed=st.integers(0, 2**32 - 1))
def test_every_edge_form_builds_the_same_graph(g, seed):
    # a normalised set is compared as given, any other form is normalised
    rng = random.Random(seed)
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
    rng.shuffle(shuffled)
    want = face_reading(g)
    for edges in (frozenset(g.edges), set(g.edges), sorted(g.edges), shuffled):
        h = PlaneGraph(g.n, edges, g.rotation, g.outer_dart)
        assert h.edges == {(v, w) for v, rot in h.rotation.items() for w in rot if v < w}
        assert face_reading(h) == want


def test_normalised_edge_set_is_read_as_given(monkeypatch):
    g = make_grid(4, 5)
    monkeypatch.setattr(plane, "norm_edge", None)  # a call would raise
    h = PlaneGraph(g.n, set(g.edges), g.rotation, g.outer_dart)
    assert face_reading(h) == face_reading(g)


# -- one dual walk: face regions and cycle interiors against reference walks ----------


def reference_components(g, faces, barriers):
    """Components of `faces` across edges not in `barriers`, by breadth-first
    search from the least face left over."""
    comps = []
    left = set(faces)
    while left:
        start = min(left)
        comp = {start}
        queue = deque([start])
        left.discard(start)
        while queue:
            f = queue.popleft()
            for u, v in g.faces()[f]:
                if norm_edge(u, v) in barriers:
                    continue
                other = g.face_of_dart((v, u))
                if other in left:
                    left.discard(other)
                    comp.add(other)
                    queue.append(other)
        comps.append(comp)
    return comps


def reference_union_find(g, allowed):
    """Each face's root after joining the two faces of every edge not in `allowed`."""
    parent = list(range(len(g.faces())))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in g.edges:
        if e not in allowed:
            ra, rb = (find(f) for f in g.faces_of_edge(e))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return {f: find(f) for f in range(len(parent))}


def reference_closed_interior(g, c):
    """(faces, vertices, edges) of c's closed interior: faces not reached from
    the outer face without crossing c, their closure with the cycle, and only
    edges that border an interior face or lie on c."""
    outside = {g.outer_face()}
    queue = deque(outside)
    while queue:
        for u, v in g.faces()[queue.popleft()]:
            other = g.face_of_dart((v, u))
            if norm_edge(u, v) not in c.edges and other not in outside:
                outside.add(other)
                queue.append(other)
    inner = frozenset(range(len(g.faces()))) - outside
    verts = set(c.vertex_set).union(*(g.face_vertices(f) for f in inner))
    edges = set(c.edges).union(*(g.face_edges(f) for f in inner))
    edges = {e for e in edges if e in c.edges or any(f in inner for f in g.faces_of_edge(e))}
    return inner, frozenset(verts), frozenset(edges)


@settings(max_examples=150)
@given(g=random_planar_graphs, data=st.data())
def test_face_regions_match_reference_walks(g, data):
    nfaces = len(g.faces())
    faces = data.draw(st.sets(st.integers(0, nfaces - 1)))
    barriers = frozenset(data.draw(st.sets(st.sampled_from(sorted(g.edges)))))
    want = {f: min(comp) for comp in reference_components(g, faces, barriers) for f in comp}
    assert face_regions(g, faces, barriers) == want
    # over all faces, the least face of a region is the union-find root
    assert face_regions(g, range(nfaces), barriers) == reference_union_find(g, barriers)


@settings(max_examples=100)
@given(g=random_planar_graphs)
def test_closed_interior_matches_reference_walk(g):
    for orbit in g.faces():
        vs = tuple(u for u, _ in orbit)
        if len(vs) < 3 or len(set(vs)) < len(vs):
            continue
        c = Cycle(vs)
        got = closed_interior(g, c)
        assert (got.faces, got.vertices, got.edges) == reference_closed_interior(g, c)
        assert cycle_from_edges(c.edges).normalized() == c.normalized()
        assert cycle_from_edges(set(c.edges) - {min(c.edges)}) is None


# -- grid detection against the diagonal fill it replaced -----------------------------


def reference_detect_grid(g):
    """Grid shape and coordinates by diagonal fill, or None.

    The boundary of the face through the four degree-2 corners, the outer
    face or not, is split at those corners into the grid's sides, giving
    the first row and column; the interior fills diagonally (each cell is
    the common unseen neighbor of its north and west cells). The final
    edge set is checked exactly. A path is the 1 x n grid, numbered from
    its smaller end.
    """
    if g.n == 1:
        return (1, 1), {1: (1, 1)}
    nbr = {v: set(g.rotation[v]) for v in g.vertices}
    degs = sorted(len(nbr[v]) for v in g.vertices)
    if degs and degs[-1] > 4:
        return None
    if degs and degs[-1] <= 2 and g.m == g.n - 1:
        ends = [v for v in g.vertices if len(nbr[v]) == 1]
        if len(ends) != 2:
            return None
        coords = {}
        prev, cur = None, min(ends)
        for j in range(1, g.n + 1):
            coords[cur] = (1, j)
            nxt = [w for w in nbr[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        if len(coords) != g.n:
            return None
        return (1, g.n), coords
    corners = [v for v in g.vertices if len(nbr[v]) == 2]
    if len(corners) != 4:
        return None
    around = [g.outer_face()] + [g.face_of_dart((corners[0], w)) for w in g.rotation[corners[0]]]
    border = next((f for f in around if set(corners) <= g.face_vertices(f)), None)
    if border is None:
        return None
    boundary = [u for u, _ in g.faces()[border]]
    if len(boundary) != len(set(boundary)):
        return None
    corner_pos = [i for i, v in enumerate(boundary) if v in set(corners)]
    if len(corner_pos) != 4:
        return None
    start = corner_pos[0]
    boundary = boundary[start:] + boundary[:start]
    corner_pos = [i for i, v in enumerate(boundary) if v in set(corners)]
    sides = []
    for a, b in zip(corner_pos, corner_pos[1:] + [len(boundary)]):
        sides.append(boundary[a : b + 1] if b < len(boundary) else boundary[a:] + [boundary[0]])
    if len(sides[0]) != len(sides[2]) or len(sides[1]) != len(sides[3]):
        return None
    cols = len(sides[0])
    rows = len(sides[1])
    if rows * cols != g.n:
        return None
    coords: dict[int, tuple[int, int]] = {}
    at: dict[tuple[int, int], int] = {}
    for j, v in enumerate(sides[0], start=1):
        coords[v] = (1, j)
        at[(1, j)] = v
    for i, v in enumerate(sides[3][::-1], start=1):
        if v in coords and coords[v] != (1, 1) and i > 1:
            return None
        coords[v] = (i, 1)
        at[(i, 1)] = v
    for r in range(2, rows + 1):
        for c in range(2, cols + 1):
            north = at.get((r - 1, c))
            west = at.get((r, c - 1))
            if north is None or west is None:
                return None
            common = [w for w in (nbr[north] & nbr[west]) if w not in coords]
            if len(common) != 1:
                return None
            v = common[0]
            coords[v] = (r, c)
            at[(r, c)] = v
    if len(coords) != g.n:
        return None
    want_edges = set()
    for (r, c), v in at.items():
        for rr, cc in ((r + 1, c), (r, c + 1)):
            if (rr, cc) in at:
                want_edges.add(norm_edge(v, at[(rr, cc)]))
    if want_edges != set(g.edges):
        return None
    return (rows, cols), coords


def reads_like_reference(g):
    """"same" when detect_grid gives the reference's answer on g, "ladder"
    when it reads a grid with a side of 2 where the reference reads None
    (the reference's border walk misses a ladder embedded with a flipped
    rung); any other difference fails."""
    got, want = detect_grid(g), reference_detect_grid(g)
    if got == want:
        return "same"
    assert want is None and min(got[0]) == 2 and rebuilds_grid(g, *got), (want, got)
    return "ladder"


def grid_detection_corpus():
    """make_grid r x c for 1 <= r, c <= 13; three seeded relabellings of
    each, with make_grid's rotation and with the computed one, each also
    with its first six faces as outer; every one-vertex deletion of the
    grids up to 40 vertices; and 1,140 random planar graphs, with their
    rotation and with the computed one."""
    for rows in range(1, 14):
        for cols in range(1, 14):
            h = make_grid(rows, cols)
            yield h
            for seed in range(3):
                perm = list(h.vertices)
                random.Random(1000 * seed + 100 * rows + cols).shuffle(perm)
                new = dict(zip(h.vertices, perm))
                edges = [(new[u], new[v]) for u, v in h.edges]
                rotation = {new[v]: [new[w] for w in h.rotation[v]] for v in h.vertices}
                for g in (plane_graph_from_edges(h.n, edges, rotation), plane_graph_from_edges(h.n, edges)):
                    yield g
                    for face in g.faces()[:6]:
                        yield PlaneGraph(g.n, g.edges, g.rotation, face[0])
            if rows * cols <= 40:
                for v in h.vertices:
                    yield delete_vertices(h, [v])[0]
    for n in range(3, 41):
        for seed in range(30):
            g = gen_random_planar(n, min(3 * n - 6, n - 1 + seed % 20), 1, seed).graph
            yield g
            yield plane_graph_from_edges(g.n, g.edges)


def test_grid_detection_matches_reference_on_corpus():
    # the ladders are the 2 x c and c x 2 grids whose computed embedding
    # flips a rung, each with its first faces as outer
    counts = Counter(reads_like_reference(g) for g in grid_detection_corpus())
    assert counts == {"same": 10037, "ladder": 355}


@settings(max_examples=200)
@given(g=plane_graphs)
def test_grid_detection_matches_reference(g):
    reads_like_reference(g)

import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cheap_configuration, corpus_host

from pdpp.clconfig import (
    Chord,
    CLConfiguration,
    _dilation,
    ConfigError,
    count_extremal,
    cyclically_connected,
    extract_tilted_grid,
    is_convex,
    is_touch_free,
    out_structure,
    reduce_configuration,
    segment_tree,
    segment_types,
    segments,
    verify_tilted_grid,
)
from pdpp.concentric import make_concentric, tighten, verify_tight
from pdpp.gallery import ring_cycle, ring_lattice, shortcut_annulus_host
from pdpp.oracle import Linkage, linkage_cost
from pdpp.plane import Cycle, PlaneGraph, bfs_distances, path_edges, plane_graph_from_points


def two_ring_host(sectors=6):
    g, vid = ring_lattice(3, sectors)
    cc = make_concentric(g, [ring_cycle(vid, 0, sectors), ring_cycle(vid, 1, sectors)])
    return g, vid, cc


class TestSegments:
    def test_empty_linkage(self):
        g, vid, cc = two_ring_host()
        q = CLConfiguration(g, cc, Linkage(()))
        assert segments(q) == []
        assert is_convex(q)
        assert count_extremal(q) == 0

    def test_crossing_path_single_segment(self):
        g, vid, cc = two_ring_host()
        path = (vid(2, 0), vid(1, 0), vid(0, 0), vid(0, 1), vid(1, 1), vid(2, 1))
        q = CLConfiguration(g, cc, Linkage((path,)))
        segs = segments(q)
        assert len(segs) == 1
        assert segs[0].eccentricity == 0
        assert not segs[0].extremal

    def test_touching_run_is_extremal(self):
        g, vid, cc = two_ring_host()
        path = (vid(2, 3), vid(1, 3), vid(1, 4), vid(2, 4))
        q = CLConfiguration(g, cc, Linkage((path,)))
        segs = segments(q)
        assert len(segs) == 1
        assert segs[0].extremal
        assert segs[0].eccentricity == 1

    def test_two_visits_two_segments(self):
        g, vid, cc = two_ring_host()
        path = (
            vid(2, 0), vid(1, 0), vid(1, 1), vid(2, 1), vid(2, 2),
            vid(1, 2), vid(1, 3), vid(2, 3),
        )
        q = CLConfiguration(g, cc, Linkage((path,)))
        assert len(segments(q)) == 2

    def test_terminal_inside_disc_rejected(self):
        g, vid, cc = two_ring_host()
        with pytest.raises(ConfigError):
            CLConfiguration(g, cc, Linkage(((vid(1, 0), vid(1, 1)),)))


class TestConvexity:
    def test_double_dip_violates_unique_chord(self):
        g, vid, cc = two_ring_host(8)
        path = (
            vid(2, 0), vid(1, 0), vid(0, 0), vid(0, 1), vid(1, 1),
            vid(1, 2), vid(0, 2), vid(0, 3), vid(1, 3), vid(2, 3),
        )
        q = CLConfiguration(g, cc, Linkage((path,)))
        report = is_convex(q)
        assert not report
        assert report.clause == "ii.a"
        assert report.level == 1

    def test_bump_only_dip_violates_reach(self):
        # Cycle family skips the intermediate ring, so the dip never
        # reaches the next cycle inward.
        g, vid = ring_lattice(4, 6)
        cc = make_concentric(g, [ring_cycle(vid, 0, 6), ring_cycle(vid, 2, 6)])
        path = (vid(3, 0), vid(2, 0), vid(1, 0), vid(1, 1), vid(2, 1), vid(3, 1))
        q = CLConfiguration(g, cc, Linkage((path,)))
        report = is_convex(q)
        assert not report
        assert report.clause == "ii.b"
        assert report.level == 1

    def test_three_semichords_detected(self):
        # W-shaped chord that only touches the middle cycle between bumps.
        g, vid = ring_lattice(5, 8)
        cc = make_concentric(
            g, [ring_cycle(vid, 0, 8), ring_cycle(vid, 1, 8), ring_cycle(vid, 3, 8)]
        )
        path = (
            vid(4, 0), vid(3, 0), vid(2, 0), vid(1, 0), vid(1, 1),
            vid(2, 1), vid(2, 2), vid(1, 2), vid(1, 3), vid(2, 3),
            vid(3, 3), vid(4, 3),
        )
        q = CLConfiguration(g, cc, Linkage((path,)))
        report = is_convex(q)
        assert not report
        assert report.clause == "ii.c"
        assert report.level == 2

    def test_lonely_crossing_violates_nesting(self):
        g, vid, cc = two_ring_host()
        path = (vid(2, 0), vid(1, 0), vid(0, 0), vid(0, 1), vid(1, 1), vid(2, 1))
        q = CLConfiguration(g, cc, Linkage((path,)))
        report = is_convex(q)
        assert not report
        assert report.clause == "iii"


class TestTouchFree:
    def test_no_contact_allowed(self):
        g, vid, cc = two_ring_host()
        path = (vid(2, 0), vid(2, 1))
        q = CLConfiguration(g, cc, Linkage((path,)))
        assert is_touch_free(q)

    def test_crossing_allowed(self):
        g, vid, cc = two_ring_host()
        path = (vid(2, 0), vid(1, 0), vid(0, 0), vid(0, 1), vid(1, 1), vid(2, 1))
        q = CLConfiguration(g, cc, Linkage((path,)))
        assert is_touch_free(q)

    def test_single_touch_rejected(self):
        g, vid, cc = two_ring_host()
        path = (vid(2, 3), vid(1, 3), vid(1, 4), vid(2, 4))
        q = CLConfiguration(g, cc, Linkage((path,)))
        assert not is_touch_free(q)


class TestOutStructure:
    def test_all_flying(self):
        g, vid, cc = two_ring_host()
        q = CLConfiguration(g, cc, Linkage(((vid(2, 0), vid(2, 1)),)))
        out = out_structure(q)
        assert len(out.flying_hairs) == 1
        assert out.flying_terminals == frozenset({vid(2, 0), vid(2, 1)})
        assert not out.hairs

    def test_crossing_gives_two_invading_hairs(self):
        g, vid, cc = two_ring_host()
        path = (vid(2, 0), vid(1, 0), vid(0, 0), vid(0, 1), vid(1, 1), vid(2, 1))
        q = CLConfiguration(g, cc, Linkage((path,)))
        out = out_structure(q)
        assert len(out.hairs) == 2
        assert all(h.kind == "invading" for h in out.hairs)
        assert not out.out_segments

    def test_bouncing_hair_and_cave(self):
        # Custom host: outer detour with an extra apex makes the attach
        # vertices degree 4 in the out-structure.
        pts = {}
        sectors = 6
        vid = lambda ring, s: ring * sectors + (s % sectors) + 1
        for ring in range(3):
            for s in range(sectors):
                ang = 2 * math.pi * s / sectors
                r = 1.0 + ring
                pts[vid(ring, s)] = (r * math.cos(ang), r * math.sin(ang))
        apex = 3 * sectors + 1
        ang = 2 * math.pi * 0.5 / sectors
        pts[apex] = (2.6 * math.cos(ang), 2.6 * math.sin(ang))
        edges = []
        for ring in range(3):
            for s in range(sectors):
                edges.append((vid(ring, s), vid(ring, s + 1)))
        for ring in range(2):
            for s in range(sectors):
                edges.append((vid(ring, s), vid(ring + 1, s)))
        edges += [(vid(1, 0), apex), (apex, vid(1, 1))]
        g = plane_graph_from_points(pts, edges)
        cc = make_concentric(g, [ring_cycle(vid, 0, sectors), ring_cycle(vid, 1, sectors)])
        path = (vid(2, 0), vid(1, 0), apex, vid(1, 1), vid(2, 1))
        q = CLConfiguration(g, cc, Linkage((path,)))
        out = out_structure(q)
        kinds = sorted(h.kind for h in out.hairs)
        assert kinds == ["bouncing", "bouncing"]
        assert out.bouncing_terminals == frozenset({vid(2, 0), vid(2, 1)})
        assert len(out.out_segments) == 1
        # the pocket between the detour and the outer cycle is a cave
        pocket = min(out.caves, key=len)
        assert len(pocket) == 1

    def test_fig7_style_counts(self):
        # One flying path, one invading crossing, one bouncing detour.
        g, vid, cc = two_ring_host(8)
        flying = (vid(2, 4), vid(2, 5))
        crossing = (vid(2, 0), vid(1, 0), vid(0, 0), vid(0, 1), vid(1, 1), vid(2, 1))
        q = CLConfiguration(g, cc, Linkage((flying, crossing)))
        out = out_structure(q)
        assert len(out.flying_hairs) == 1
        assert len(out.flying_terminals) == 2
        assert len(out.invading_terminals) == 2


# -- the readings against a reference computed from sets -----------------------------


def apex_host(sectors, cycle_rings, seed, apexes):
    """`corpus_host`'s lattice with an apex in the annulus face above ring r
    between sectors s and s + 1 for each (r, s) in `apexes`, joined to both.

    A ring vertex of the plain lattice has one spoke outward, so no path
    meets a ring at a lone vertex between two edges outside it; a path
    through an apex does: it bounces off the ring below.
    """
    g, vid, _ = corpus_host(sectors, cycle_rings, seed)

    def polar(radius, s):
        angle = 2 * math.pi * s / sectors
        return (radius * math.cos(angle), radius * math.sin(angle))

    points = {vid(r, s): polar(1 + r, s) for r in range(cycle_rings + 1) for s in range(sectors)}
    edges = list(g.edges)
    for r, s in sorted(apexes):
        apex = len(points) + 1
        # halfway between the two rings' chords, inside the sector's trapezoid
        points[apex] = polar((1.5 + r) * math.cos(math.pi / sectors), s + 0.5)
        edges += [(vid(r, s), apex), (apex, vid(r, s + 1))]
    return plane_graph_from_points(points, edges), vid


def random_path(g, s, t, rng):
    """A simple path from s to t: a depth-first search in random order.

    `todo` holds each entered vertex's shuffled neighbours; no vertex is
    entered twice.
    """
    stack = [s]
    todo = {s: rng.sample(g.rotation[s], len(g.rotation[s]))}
    while stack[-1] != t:
        w = next((w for w in todo[stack[-1]] if w not in todo), None)
        if w is None:
            stack.pop()
            continue
        todo[w] = rng.sample(g.rotation[w], len(g.rotation[w]))
        stack.append(w)
    return tuple(stack)


@st.composite
def ring_configurations(draw):
    """One random path between platform vertices, read against a random
    sub-family of the rings, so that rings without a cycle leave room for
    chords of three semichords."""
    sectors = draw(st.integers(5, 9))
    rings = draw(st.integers(2, 4))
    faces = st.tuples(st.integers(0, rings - 1), st.integers(0, sectors - 1))
    apexes = draw(st.sets(faces, max_size=5))
    g, vid = apex_host(sectors, rings, draw(st.integers(0, 10**6)), apexes)
    family = draw(st.sets(st.integers(0, rings - 1), min_size=1))
    cc = make_concentric(g, [ring_cycle(vid, r, sectors) for r in sorted(family)])
    rng = draw(st.randoms(use_true_random=False))
    s, t = rng.sample([vid(rings, x) for x in range(sectors)], 2)
    return CLConfiguration(g, cc, Linkage((random_path(g, s, t, rng),)))


def set_pieces(path, vertices, edges, cut=frozenset()):
    """The connected pieces of the path's vertices in `vertices` and edges in
    `edges`, from sets: vertices in `cut` belong to no piece and so split
    pieces apart. Each piece is (whether it holds an edge, the sorted path
    positions of its vertices and its edges' ends)."""
    pos = {v: i for i, v in enumerate(path)}
    kept = {("v", v) for v in path if v in vertices and v not in cut}
    kept |= {("e", e) for e in path_edges(path) if e in edges}
    adj = {x: [("v", v) for v in x[1] if ("v", v) in kept] if x[0] == "e" else [] for x in kept}
    for x, ends in list(adj.items()):
        for end in ends:
            adj[end].append(x)
    pieces, seen = [], set()
    for x in kept:
        if x not in seen:
            piece = set(bfs_distances(adj, [x]))
            seen |= piece
            ends = {v for kind, item in piece for v in ((item,) if kind == "v" else item)}
            pieces.append((any(kind == "e" for kind, _ in piece), sorted(pos[v] for v in ends)))
    return sorted(pieces, key=lambda piece: piece[1])


@settings(max_examples=150)
@given(ring_configurations())
def test_readings_match_pieces_from_sets(q):
    path = q.linkage.paths[0]
    discs, cycles = q.cycles.discs, q.cycles.cycles
    outer, rim = discs[-1], cycles[-1]
    segs = segments(q)
    # segments: the pieces of the path in the closed outer disc
    assert [s.vertices for s in segs] == [
        path[p[0] : p[-1] + 1] for _, p in set_pieces(path, outer.vertices, outer.edges)
    ]
    # chords: the pieces with an edge in a disc's open interior; semichords:
    # the pieces of an open chord outside the next disc in
    for s in segs:
        chords = []
        for lvl, (disc, cyc) in enumerate(zip(discs, cycles)):
            open_v, open_e = disc.vertices - cyc.vertex_set, disc.edges - cyc.edges
            for has_edge, p in set_pieces(s.vertices, open_v, open_e):
                if not has_edge:
                    continue
                a, b = p[0], p[-1]
                semis = 0
                if lvl:
                    inner = discs[lvl - 1]
                    chord_v = set(s.vertices[a + 1 : b]) - inner.vertices
                    chord_e = path_edges(s.vertices[a : b + 1]) - inner.edges
                    semis = len(set_pieces(s.vertices, chord_v, chord_e))
                chords.append(Chord(lvl, a, b, semis))
        assert s.chords == tuple(chords)
    assert is_touch_free(q) == (len(set_pieces(path, rim.vertex_set, rim.edges)) != 1)
    # out(L): the pieces outside the open disc, split at the outer cycle
    out = out_structure(q, segs)
    if rim.vertex_set.isdisjoint(path):
        assert (out.flying_hairs, out.hairs, out.out_segments) == ((path,), (), ())
        return
    outside_v = set(path) - (outer.vertices - rim.vertex_set)
    outside_e = path_edges(path) - outer.edges
    pieces = [
        path[p[0] : p[-1] + 1]
        for has_edge, p in set_pieces(path, outside_v, outside_e, rim.vertex_set)
        if has_edge
    ]
    hairs = [
        (0, piece, term, next(v for v in piece if v in rim.vertex_set))
        for piece in pieces
        for term in (path[0], path[-1])
        if term in piece
    ]
    assert out.flying_hairs == ()
    assert [(h.path_index, h.vertices, h.terminal, h.attach) for h in out.hairs] == hairs
    assert out.out_segments == tuple(p for p in pieces if path[0] not in p and path[-1] not in p)


class TestSegmentTree:
    def test_empty_linkage_single_node(self):
        g, vid, cc = two_ring_host()
        q = CLConfiguration(g, cc, Linkage(()))
        tree = segment_tree(q)
        assert len(tree.parent) == 1
        assert tree.height == 0

    def test_non_convex_rejected(self):
        g, vid, cc = two_ring_host()
        path = (vid(2, 0), vid(1, 0), vid(0, 0), vid(0, 1), vid(1, 1), vid(2, 1))
        q = CLConfiguration(g, cc, Linkage((path,)))
        with pytest.raises(ConfigError):
            segment_tree(q)

    def test_showcase_metrics(self, showcase):
        tree = segment_tree(showcase)
        assert tree.leaves == 11
        assert tree.dilation == 4
        assert tree.height == 8
        assert tree.real_height == 4

    def test_height_bound(self, showcase):
        tree = segment_tree(showcase)
        assert tree.height <= tree.dilation * tree.real_height

    def test_showcase_dilation_matches_all_pairs_reference(self, showcase):
        tree = segment_tree(showcase)
        assert tree.dilation == reference_dilation(tree.parent)


def reference_dilation(parent):
    """Edges on a longest tree path whose inner nodes have degree 2 and are not
    the root, over every pair of nodes (node 0 is the root)."""
    n = len(parent)
    deg = [(p >= 0) + parent.count(x) for x, p in enumerate(parent)]

    def ancestors(x):
        out = []
        while x != -1:
            out.append(x)
            x = parent[x]
        return out

    best = 0
    for i in range(n):
        for j in range(i + 1, n):
            up_i, up_j = ancestors(i), ancestors(j)
            meet = next(x for x in up_i if x in up_j)
            path = up_i[: up_i.index(meet) + 1] + up_j[: up_j.index(meet)][::-1]
            if all(deg[x] == 2 and x != 0 for x in path[1:-1]):
                best = max(best, len(path) - 1)
    return best


@settings(max_examples=300)
@given(st.lists(st.integers(0, 10**6), max_size=30))
def test_dilation_matches_all_pairs_reference(picks):
    # node x + 1 hangs under an earlier node, as segment_tree numbers them
    parent = [-1] + [p % (x + 1) for x, p in enumerate(picks)]
    deg = [(p >= 0) + parent.count(x) for x, p in enumerate(parent)]
    assert _dilation(parent, deg) == reference_dilation(parent)


class TestTypes:
    def test_showcase_classes(self, showcase):
        classes = segment_types(showcase)
        assert len(classes) == 19
        assert sorted(len(c) for c in classes)[-1] == 4

    def test_separated_by_third_segment(self, showcase):
        # inside one class, all members are mutually parallel and consecutive
        classes = segment_types(showcase)
        big = max(classes, key=len)
        eccs = sorted(s.eccentricity for s in big)
        assert eccs == list(range(eccs[0], eccs[0] + len(big)))


class TestTiltedGrid:
    def test_extract_from_showcase_chain(self, showcase):
        segs = segments(showcase)
        classes = segment_types(showcase, segs)
        big = max(classes, key=len)
        assert len(big) == 4
        u = extract_tilted_grid(showcase, big)
        assert u.capacity == 2
        assert verify_tilted_grid(showcase.graph, u, showcase.linkage)

    def test_capacity_one(self, showcase):
        segs = segments(showcase)
        classes = segment_types(showcase, segs)
        single = next(c for c in classes if len(c) == 1)
        u = extract_tilted_grid(showcase, single)
        assert u.capacity == 1

    def test_five_member_class_capacity_three(self):
        # Nested chain of 5 chords with eccentricities 0..4.
        from pdpp.gallery import _Chord, _Extremal  # noqa: F401

        g, vid = ring_lattice(7, 16)
        cycles = make_concentric(g, [ring_cycle(vid, r, 16) for r in range(6)])
        paths = []
        lo = 0
        for depth, ecc in ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4)):
            a = 0 + depth
            b = 15 - depth
            seq = [vid(6, a)]
            for ring in range(5, ecc - 1, -1):
                seq.append(vid(ring, a))
            for s in range(a + 1, b + 1):
                seq.append(vid(ecc, s))
            for ring in range(ecc + 1, 6):
                seq.append(vid(ring, b))
            seq.append(vid(6, b))
            paths.append(tuple(seq))
        q = CLConfiguration(g, cycles, Linkage(tuple(paths)))
        segs = segments(q)
        assert sorted(s.eccentricity for s in segs) == [0, 1, 2, 3, 4]
        classes = segment_types(q, segs)
        big = max(classes, key=len)
        assert len(big) == 5
        u = extract_tilted_grid(q, big)
        assert u.capacity == 3
        assert verify_tilted_grid(q.graph, u, q.linkage)


class TestReduction:
    def test_verdicts_invariant(self):
        q = cheap_configuration(6, 2, 1, seed=0)
        assert q is not None
        if not (q.linkage.edges & frozenset().union(*(c.edges for c in q.cycles.cycles))):
            raise AssertionError("fixture seed must ride the cycles")
        q2 = reduce_configuration(q)
        assert bool(is_convex(q)) == bool(is_convex(q2))
        assert is_touch_free(q) == is_touch_free(q2)
        assert count_extremal(q) == count_extremal(q2)

    def test_cost_invariant(self):
        q = cheap_configuration(6, 2, 1, seed=0)
        assert q is not None
        q2 = reduce_configuration(q)
        assert linkage_cost(q2.linkage, list(q2.cycles.cycles)) == linkage_cost(
            q.linkage, list(q.cycles.cycles)
        )


    @pytest.mark.parametrize(
        "sectors, cycle_rings, k, seed",
        [(6, 2, 1, 0), (6, 3, 1, 0), (8, 3, 2, 2), (8, 3, 2, 4), (8, 3, 2, 5)],
    )
    def test_contraction_equals_validated_rebuild(self, sectors, cycle_rings, k, seed):
        # the contracted graph is derived, not validated; a validating
        # rebuild from its rotation gives the same faces and outer face
        q = cheap_configuration(sectors, cycle_rings, k, seed)
        g, h = q.graph, reduce_configuration(q).graph
        assert h.n < g.n
        # each contraction drops one vertex and one edge, and makes no parallel edge
        assert g.m - h.m == g.n - h.n
        want = PlaneGraph(h.n, h.edges, h.rotation, h.outer_dart)
        assert h.num_faces() == want.num_faces()
        assert (h.rotation, h.faces(), h.outer_face()) == (want.rotation, want.faces(), want.outer_face())


class TestTightness:
    def test_ring_family_tight(self):
        g, vid, cc = two_ring_host()
        t = tighten(g, cc)
        assert [c.normalized() for c in t.cycles] == [c.normalized() for c in cc.cycles]
        assert verify_tight(g, cc, budget=1_000_000)

    def test_shortcut_breaks_tightness(self):
        g, vid, extra = shortcut_annulus_host()
        cc = make_concentric(g, [ring_cycle(vid, 0, 6), ring_cycle(vid, 1, 6)])
        # ring 1 plus the chord through the extra vertex slips between rings 1 and 2
        cc3 = make_concentric(
            g, [ring_cycle(vid, 0, 6), ring_cycle(vid, 1, 6), ring_cycle(vid, 2, 6)]
        )
        result = verify_tight(g, cc3, budget=1_000_000)
        assert not result
        t = tighten(g, cc3)
        assert verify_tight(g, t, budget=1_000_000)
        assert extra in t.cycles[2].vertex_set

    def test_two_rings_with_chord_still_tight_below(self):
        g, vid, extra = shortcut_annulus_host()
        cc = make_concentric(g, [ring_cycle(vid, 0, 6), ring_cycle(vid, 1, 6)])
        assert verify_tight(g, cc, budget=1_000_000)


class TestCheapImpliesConvex:
    def test_small_sweep(self):
        checked = 0
        for seed in range(6):
            q = cheap_configuration(6, 2, 1, seed=seed)
            if q is None:
                continue
            assert is_convex(q), f"seed {seed} gave a non-convex cheap configuration"
            checked += 1
        assert checked >= 4


class TestCyclicConnectivity:
    def test_star_edges_connected(self):
        g, vid, cc = two_ring_host()
        v = vid(1, 0)
        edge_set = frozenset(
            tuple(sorted((v, w))) for w in g.rotation[v]
        )
        assert cyclically_connected(g, edge_set)

    def test_far_edges_disconnected(self):
        g, vid, cc = two_ring_host()
        e1 = tuple(sorted((vid(0, 0), vid(0, 1))))
        e2 = tuple(sorted((vid(2, 3), vid(2, 4))))
        assert not cyclically_connected(g, frozenset({e1, e2}))

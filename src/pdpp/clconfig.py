"""Cycle-and-linkage configurations: segments, convexity, segment trees,
parallel segment classes, and tilted-grid extraction.

All region reasoning happens on face sets of the host embedding, through
`plane.face_regions` with the relevant paths as barriers: a segment's zone,
the segment tree's regions, the region between two parallel segments and
the out-structure's caves. `plane.face_closure` turns a face set back into
its vertices and edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .concentric import ConcentricCycles, make_concentric
from .oracle import Linkage
from .plane import (
    CheckResult,
    Cycle,
    DiskRegion,
    Edge,
    PlaneGraph,
    PlaneGraphError,
    bfs_distances,
    closed_interior,
    cycle_from_edges,
    derived_graph,
    face_closure,
    face_regions,
    norm_edge,
    path_edges,
)


class ConfigError(PlaneGraphError):
    """Configuration violates a structural precondition."""


class TypeRelationError(ConfigError):
    """The parallelism relation failed to be an equivalence on this instance."""


@dataclass(frozen=True)
class CLConfiguration:
    """Concentric cycles paired with a linkage whose terminals avoid the outer disc."""

    graph: PlaneGraph
    cycles: ConcentricCycles
    linkage: Linkage

    def __post_init__(self):
        self.linkage.check_in(self.graph)
        outer = self.cycles.outer_disc()
        bad = self.linkage.terminals & outer.vertices
        if bad:
            raise ConfigError(f"linkage terminals {sorted(bad)} lie in the outer disc")

    @property
    def depth(self) -> int:
        return self.cycles.depth

    def outer_cycle(self) -> Cycle:
        return self.cycles.cycles[-1]

    def outer_disc(self) -> DiskRegion:
        return self.cycles.outer_disc()


@dataclass(frozen=True)
class Chord:
    """Closed span of a chord: vertex indices [start, end] within the segment."""

    level: int
    start: int
    end: int
    semichords: int


@dataclass(frozen=True)
class Segment:
    """Maximal piece of a linkage path inside the outer disc."""

    index: int
    path_index: int
    vertices: tuple[int, ...]
    eccentricity: int
    extremal: bool
    chords: tuple[Chord, ...]
    zone_faces: Optional[frozenset[int]]

    @property
    def edges(self) -> frozenset[Edge]:
        return path_edges(self.vertices)

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])

    def chords_at(self, level: int) -> list[Chord]:
        return [c for c in self.chords if c.level == level]


# -- element walk -------------------------------------------------------------------
#
# A path of n vertices has 2n - 1 elements: element 2i is vertex i and element
# 2i + 1 is the edge from vertex i to vertex i + 1.


def _element_runs(
    path, v_ok, e_ok, lo: int = 0, hi: Optional[int] = None
) -> list[tuple[int, int]]:
    """Maximal runs (x, y) of the elements lo..hi whose vertex passes `v_ok`
    or whose normalized edge passes `e_ok`; hi defaults to the last element."""
    if hi is None:
        hi = 2 * len(path) - 2
    runs: list[tuple[int, int]] = []
    start = None
    for x in range(lo, hi + 1):
        i = x // 2
        ok = e_ok(norm_edge(path[i], path[i + 1])) if x % 2 else v_ok(path[i])
        if ok and start is None:
            start = x
        elif not ok and start is not None:
            runs.append((start, x - 1))
            start = None
    if start is not None:
        runs.append((start, hi))
    return runs


def _vertex_spans(path, v_ok, e_ok) -> list[tuple[int, int]]:
    """Vertex spans [a, b] of the runs that hold a vertex."""
    runs = _element_runs(path, v_ok, e_ok)
    return [((x + 1) // 2, y // 2) for x, y in runs if x < y or x % 2 == 0]


def _outside_pieces(path, disc: DiskRegion) -> list[tuple[int, ...]]:
    """The path's pieces outside the disc's open interior, cut at every
    boundary contact; each piece keeps the contacts at its ends.

    Pieces without an edge are dropped, except a whole one-vertex path.
    """
    rim = disc.cycle.vertex_set
    pieces = []
    spans = _vertex_spans(
        path, lambda v: v in rim or v not in disc.vertices, lambda e: e not in disc.edges
    )
    for a, b in spans:
        cuts = [a, *(i for i in range(a + 1, b) if path[i] in rim), b]
        pieces += [
            tuple(path[i : j + 1]) for i, j in zip(cuts, cuts[1:]) if i < j or len(path) == 1
        ]
    return pieces


def _region_faces(region: dict[int, int]) -> dict[int, frozenset[int]]:
    """The faces of each region of a `face_regions` map, by label, in label order."""
    groups: dict[int, set[int]] = {}
    for f, label in region.items():
        groups.setdefault(label, set()).add(f)
    return {label: frozenset(groups[label]) for label in sorted(groups)}


# -- segments ----------------------------------------------------------------------


def segments(q: CLConfiguration) -> list[Segment]:
    """All maximal intersections of linkage paths with the outer disc."""
    g = q.graph
    outer = q.outer_disc()
    r = q.depth
    discs = q.cycles.discs
    cyc_vsets = [c.vertex_set for c in q.cycles.cycles]
    cyc_esets = [c.edges for c in q.cycles.cycles]
    central_face = min(discs[0].faces)
    out: list[Segment] = []
    for pi, path in enumerate(q.linkage.paths):
        for a, b in _vertex_spans(path, outer.vertices.__contains__, outer.edges.__contains__):
            seg_vertices = tuple(path[a : b + 1])
            if not (seg_vertices[0] in cyc_vsets[r] and seg_vertices[-1] in cyc_vsets[r]):
                raise ConfigError(
                    f"segment {seg_vertices} does not start and end on the outer cycle"
                )
            ecc = min(
                (i for i in range(r + 1) if any(v in cyc_vsets[i] for v in seg_vertices)),
                default=r,
            )
            chords: list[Chord] = []
            for lvl in range(r + 1):
                disc = discs[lvl]
                v_inside = lambda v, d=disc, cv=cyc_vsets[lvl]: v in d.vertices and v not in cv
                e_inside = lambda e, d=disc, ce=cyc_esets[lvl]: e in d.edges and e not in ce
                # a run that holds an edge is a chord; its semichords are the
                # runs of its open elements outside the next disc in
                for x, y in _element_runs(seg_vertices, v_inside, e_inside):
                    if x == y and x % 2 == 0:
                        continue
                    start, end = x // 2, (y + 1) // 2
                    semis = 0
                    if lvl >= 1:
                        inner = discs[lvl - 1]
                        semis = len(
                            _element_runs(
                                seg_vertices,
                                lambda v, d=inner: v not in d.vertices,
                                lambda e, d=inner: e not in d.edges,
                                2 * start + 1,
                                2 * end - 1,
                            )
                        )
                    chords.append(Chord(lvl, start, end, semis))
            # a 0-chord-free segment's zone: the outer disc's faces it cuts off
            zone: Optional[frozenset[int]] = None
            if not any(ch.level == 0 for ch in chords):
                region = face_regions(g, outer.faces, path_edges(seg_vertices))
                zone = frozenset(f for f, lab in region.items() if lab != region[central_face])
            seg = Segment(
                index=len(out),
                path_index=pi,
                vertices=seg_vertices,
                eccentricity=ecc,
                extremal=(ecc == r),
                chords=tuple(chords),
                zone_faces=zone,
            )
            out.append(seg)
    return out


# -- convexity ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexityReport:
    ok: bool
    segment_index: Optional[int] = None
    clause: str = ""
    level: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def is_convex(q: CLConfiguration, segs: Optional[list[Segment]] = None) -> ConvexityReport:
    """Check the no-0-chord, unique-chord, two-semichord, and nesting clauses."""
    if segs is None:
        segs = segments(q)
    g = q.graph
    r = q.depth
    by_ecc: dict[int, list[Segment]] = {}
    for s in segs:
        by_ecc.setdefault(s.eccentricity, []).append(s)
    for s in segs:
        if s.chords_at(0):
            return ConvexityReport(False, s.index, "i", 0)
        for lvl in range(1, r + 1):
            at = s.chords_at(lvl)
            if len(at) > 1:
                return ConvexityReport(False, s.index, "ii.a", lvl)
            if at:
                if not any(v in q.cycles.cycles[lvl - 1].vertex_set for v in s.vertices):
                    return ConvexityReport(False, s.index, "ii.b", lvl)
                if at[0].semichords != 2:
                    return ConvexityReport(False, s.index, "ii.c", lvl)
        if s.eccentricity < r:
            assert s.zone_faces is not None
            zone_v, zone_e = face_closure(g, s.zone_faces)
            found = False
            for other in by_ecc.get(s.eccentricity + 1, ()):
                if other.index == s.index:
                    continue
                if set(other.vertices) <= zone_v and other.edges <= zone_e:
                    found = True
                    break
            if not found:
                return ConvexityReport(False, s.index, "iii", s.eccentricity)
    return ConvexityReport(True)


def is_touch_free(q: CLConfiguration) -> bool:
    """No linkage path meets the outer cycle in exactly one component."""
    outer = q.outer_cycle()
    vset = outer.vertex_set
    eset = outer.edges
    return all(
        len(_vertex_spans(path, vset.__contains__, eset.__contains__)) != 1
        for path in q.linkage.paths
    )


def count_extremal(q: CLConfiguration, segs: Optional[list[Segment]] = None) -> int:
    if segs is None:
        segs = segments(q)
    return sum(1 for s in segs if s.extremal)


# -- out-structure -------------------------------------------------------------------


@dataclass(frozen=True)
class Hair:
    path_index: int
    vertices: tuple[int, ...]
    terminal: int
    attach: int
    kind: str  # "invading" | "bouncing"


@dataclass(frozen=True)
class OutStructure:
    flying_hairs: tuple[tuple[int, ...], ...]
    hairs: tuple[Hair, ...]
    out_segments: tuple[tuple[int, ...], ...]
    caves: tuple[frozenset[int], ...]  # face groups of out(L)
    flying_terminals: frozenset[int]
    invading_terminals: frozenset[int]
    bouncing_terminals: frozenset[int]


def out_structure(q: CLConfiguration, segs: Optional[list[Segment]] = None) -> OutStructure:
    """Decompose the linkage outside the outer disc and classify terminals."""
    g = q.graph
    outer_c = q.outer_cycle()
    outer_d = q.outer_disc()
    if segs is None:
        segs = segments(q)
    cyc_e = outer_c.edges
    inside_only_edges = outer_d.edges - cyc_e
    out_edges = set(cyc_e)
    for e in q.linkage.edges:
        if e not in inside_only_edges:
            out_edges.add(e)
    degree: dict[int, int] = {}
    for u, v in out_edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1

    flying: list[tuple[int, ...]] = []
    hairs: list[Hair] = []
    out_segs: list[tuple[int, ...]] = []
    t0: set[int] = set()
    t1: set[int] = set()
    t2: set[int] = set()
    for pi, path in enumerate(q.linkage.paths):
        pieces = _outside_pieces(path, outer_d)
        if pieces == [tuple(path)]:
            flying.append(pieces[0])
            t0.update((path[0], path[-1]))
            continue
        # the end pieces run from a terminal to its first contact; the rest
        # join two contacts outside the disc
        ends = ((pieces[0], path[0], pieces[0][-1]), (pieces[-1], path[-1], pieces[-1][0]))
        for piece, term, attach in ends:
            if degree.get(attach, 0) >= 4:
                kind = "bouncing"
                t2.add(term)
            else:
                kind = "invading"
                t1.add(term)
            hairs.append(Hair(pi, piece, term, attach, kind))
        out_segs += pieces[1:-1]

    # faces of out(L): group host faces crossing only non-out edges
    region = face_regions(g, range(len(g.faces())), out_edges)
    disc_group = region[min(q.cycles.discs[0].faces)]
    extremal_pieces = [s for s in segs if s.extremal]
    caves: list[frozenset[int]] = []
    for label, grp in _region_faces(region).items():
        if label == disc_group:
            continue
        grp_verts, grp_edges = face_closure(g, grp)
        boundary_pieces: list[tuple[int, ...]] = []
        for piece in out_segs:
            if path_edges(piece) <= grp_edges:
                boundary_pieces.append(piece)
        for s in extremal_pieces:
            if len(s.vertices) == 1:
                if s.vertices[0] in grp_verts:
                    boundary_pieces.append(s.vertices)
            elif s.edges <= grp_edges:
                boundary_pieces.append(s.vertices)
        if boundary_pieces and _pieces_connected(boundary_pieces):
            caves.append(grp)
    return OutStructure(
        tuple(flying),
        tuple(hairs),
        tuple(out_segs),
        tuple(caves),
        frozenset(t0),
        frozenset(t1),
        frozenset(t2),
    )


def _pieces_connected(pieces: list[tuple[int, ...]]) -> bool:
    verts = [set(p) for p in pieces]
    touching = {i: [j for j, b in enumerate(verts) if a & b] for i, a in enumerate(verts)}
    return len(bfs_distances(touching, [0])) == len(pieces)


# -- segment tree ---------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentTree:
    """Rooted region tree with extra leaves for extremal segments.

    Node 0 is the root (central region); `kinds[i]` is "face" or "extremal";
    face nodes carry their region's face set in `regions`.
    """

    parent: tuple[int, ...]
    kinds: tuple[str, ...]
    regions: tuple[Optional[frozenset[int]], ...]
    segment_of_edge: tuple[Optional[int], ...]  # segment index labeling edge to parent
    height: int
    real_height: int
    dilation: int
    leaves: int


def segment_tree(q: CLConfiguration, segs: Optional[list[Segment]] = None) -> SegmentTree:
    """Weak dual of the inside structure, rooted at the central region."""
    if segs is None:
        segs = segments(q)
    conv = is_convex(q, segs)
    if not conv:
        raise ConfigError(
            f"segment tree needs a convex configuration "
            f"(segment {conv.segment_index} violates clause {conv.clause})"
        )
    g = q.graph
    outer = q.outer_disc()
    barriers = frozenset().union(*(s.edges for s in segs)) if segs else frozenset()
    # regions are named by their least face, and comps lists them in that order
    comp_of = face_regions(g, outer.faces, barriers)
    comps = _region_faces(comp_of)
    root_comp = comp_of[min(q.cycles.discs[0].faces)]

    tree_adj: dict[int, dict[int, int]] = {c: {} for c in comps}
    for s in segs:
        if s.extremal:
            continue
        pairs: set[tuple[int, int]] = set()
        for u, v in s.edges:
            fa, fb = g.faces_of_edge((u, v))
            if fa in comp_of and fb in comp_of:
                ca, cb = comp_of[fa], comp_of[fb]
                if ca != cb:
                    pairs.add((min(ca, cb), max(ca, cb)))
        if len(pairs) != 1:
            raise ConfigError(
                f"segment {s.index} separates {len(pairs)} region pairs; "
                "the inside structure is not a tree"
            )
        (a, b) = pairs.pop()
        tree_adj[a][b] = s.index
        tree_adj[b][a] = s.index

    # orient from the root: a region's parent is its neighbour one layer up
    # that comes first in BFS order, the one that reached it first
    dist = bfs_distances({c: sorted(tree_adj[c]) for c in comps}, [root_comp])
    if len(dist) != len(comps):
        raise ConfigError("inside regions are not connected through segments")
    order = list(dist)
    node_of_comp = {c: i for i, c in enumerate(order)}
    parent = [-1] * len(order)
    kinds = ["face"] * len(order)
    regions: list[Optional[frozenset[int]]] = [comps[c] for c in order]
    seg_labels: list[Optional[int]] = [None] * len(order)
    for i, c in enumerate(order[1:], 1):
        parent[i] = min(node_of_comp[y] for y in tree_adj[c] if dist[y] == dist[c] - 1)
        seg_labels[i] = tree_adj[c][order[parent[i]]]

    # extremal leaves hang under weak-dual leaf regions
    for s in segs:
        if not s.extremal:
            continue
        host_comp = _extremal_region(g, s, comp_of)
        if host_comp is None or len(tree_adj[host_comp]) > 1:
            continue
        parent.append(node_of_comp[host_comp])
        kinds.append("extremal")
        regions.append(None)
        seg_labels.append(s.index)

    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    depth = [0] * n
    for i in range(1, n):
        depth[i] = depth[parent[i]] + 1
    leaf_nodes = [i for i in range(n) if not children[i]]
    height = max((depth[i] for i in leaf_nodes), default=0)
    deg = [len(children[i]) + (1 if parent[i] >= 0 else 0) for i in range(n)]
    real_height = 0
    for leaf in leaf_nodes:
        cnt = 0
        x = leaf
        while x != -1:
            if deg[x] > 2:
                cnt += 1
            x = parent[x]
        real_height = max(real_height, cnt + 1)
    dilation = _dilation(parent, deg)
    return SegmentTree(
        tuple(parent),
        tuple(kinds),
        tuple(regions),
        tuple(seg_labels),
        height,
        real_height,
        dilation,
        len(leaf_nodes),
    )


def _extremal_region(g, s: Segment, comp_of: dict[int, int]) -> Optional[int]:
    if len(s.vertices) >= 2:
        for u, v in s.edges:
            for f in g.faces_of_edge((u, v)):
                if f in comp_of:
                    return comp_of[f]
        return None
    v = s.vertices[0]
    return min((c for f, c in comp_of.items() if v in g.face_vertices(f)), default=None)


def _dilation(parent, deg) -> int:
    """Edges on a longest chain: a tree path whose inner nodes have degree 2
    and are not the root.

    Such a node has one child, so every maximal chain runs straight up from
    a node that is not inner to its nearest ancestor that is not inner.
    """
    best = 0
    for x in range(len(parent)):
        if deg[x] == 2 and x != 0:
            continue
        length, y = 1, parent[x]
        if y < 0:
            continue
        while deg[y] == 2 and y != 0:
            length, y = length + 1, parent[y]
        best = max(best, length)
    return best


# -- parallel segments and types --------------------------------------------------------


def _arc(cyc: tuple[int, ...], a: int, b: int) -> list[int]:
    """Vertices of the outer cycle from position a to b inclusive, forward."""
    n = len(cyc)
    return [cyc[i % n] for i in range(a, a + (b - a) % n + 1)]


def _connecting_arcs(q: CLConfiguration, s1: Segment, s2: Segment) -> list[tuple[int, int]]:
    """The two arcs of the outer cycle from one segment's endpoints to the
    other's, as (start, end) positions; ConfigError if the segments interleave."""
    pos = {v: i for i, v in enumerate(q.outer_cycle().vertices)}
    pts = sorted((pos[v], owner) for owner, s in ((1, s1), (2, s2)) for v in set(s.endpoints))
    # the two owner-change gaps are the connecting arcs
    arcs = [(a, b) for (a, o), (b, p) in zip(pts, pts[1:] + pts[:1]) if o != p]
    if len(arcs) != 2:
        raise ConfigError(f"segments {s1.index} and {s2.index} interleave on the outer cycle")
    return arcs


def _region_between(
    q: CLConfiguration, s1: Segment, s2: Segment, arc: tuple[int, int]
) -> tuple[dict[int, int], Optional[int]]:
    """The outer disc's regions with both segments as barriers, and the
    region that `arc`'s first edge off the segments borders (None if none)."""
    barriers = s1.edges | s2.edges
    region = face_regions(q.graph, q.outer_disc().faces, barriers)
    walk = _arc(q.outer_cycle().vertices, *arc)
    probe = next((e for e in map(norm_edge, walk, walk[1:]) if e not in barriers), None)
    inner = [] if probe is None else [f for f in q.graph.faces_of_edge(probe) if f in region]
    return region, (region[inner[0]] if inner else None)


def parallel(q: CLConfiguration, s1: Segment, s2: Segment, segs: list[Segment]) -> bool:
    """The paper's three-clause parallelism test for two distinct segments."""
    if s1.index == s2.index:
        return True
    cyc = q.outer_cycle().vertices
    arcs = _connecting_arcs(q, s1, s2)
    for a, b in arcs:
        arc_set = frozenset(_arc(cyc, a, b))
        for other in segs:
            if other.index in (s1.index, s2.index):
                continue
            x, y = other.endpoints
            if x in arc_set and y in arc_set:
                return False
    # clause (3): the region between the segments must not contain disc 0
    region, between = _region_between(q, s1, s2, arcs[0])
    return between is None or between != region[min(q.cycles.discs[0].faces)]


def segment_types(q: CLConfiguration, segs: Optional[list[Segment]] = None) -> list[list[Segment]]:
    """Equivalence classes of the parallelism relation, transitivity verified."""
    if segs is None:
        segs = segments(q)
    n = len(segs)
    rel = [[False] * n for _ in range(n)]
    for i in range(n):
        rel[i][i] = True
        for j in range(i + 1, n):
            p = parallel(q, segs[i], segs[j], segs)
            rel[i][j] = rel[j][i] = p
    for i in range(n):
        for j in range(n):
            if not rel[i][j]:
                continue
            for k in range(n):
                if rel[j][k] and not rel[i][k]:
                    raise TypeRelationError(
                        f"parallelism is not transitive on segments "
                        f"({segs[i].index}, {segs[j].index}, {segs[k].index})"
                    )
    classes: list[list[Segment]] = []
    assigned = [False] * n
    for i in range(n):
        if assigned[i]:
            continue
        members = [j for j in range(n) if rel[i][j]]
        for j in members:
            assigned[j] = True
        classes.append([segs[j] for j in members])
    return classes


# -- cyclic connectivity helper ----------------------------------------------------------


def cyclically_connected(g: PlaneGraph, edge_set: frozenset[Edge]) -> bool:
    """Every two edges linked via consecutive-in-rotation adjacencies."""
    edges = sorted(edge_set)
    if len(edges) <= 1:
        return True
    adj: dict[Edge, set[Edge]] = {e: set() for e in edges}
    for v in g.vertices:
        rot = g.rotation[v]
        d = len(rot)
        if d < 2:
            continue
        for i in range(d):
            e1 = norm_edge(v, rot[i])
            e2 = norm_edge(v, rot[(i + 1) % d])
            if e1 in adj and e2 in adj and e1 != e2:
                adj[e1].add(e2)
                adj[e2].add(e1)
    return len(bfs_distances(adj, [edges[0]])) == len(edges)


# -- reduced pairs ------------------------------------------------------------------------


class ReductionUnsupported(ConfigError):
    """Contraction would create parallel edges; host outside the simple-graph regime."""


def reduce_configuration(q: CLConfiguration) -> CLConfiguration:
    """Contract every linkage edge lying on a cycle (the reduced pair).

    Cheapness, tightness, and convexity verdicts are invariant under this
    contraction; tests exercise that invariance.
    """
    g = q.graph
    cycle_edges: set[Edge] = set()
    for c in q.cycles.cycles:
        cycle_edges |= c.edges
    doomed = sorted(q.linkage.edges & cycle_edges)
    if not doomed:
        return q
    rot: dict[int, list[int]] = {v: list(g.rotation[v]) for v in g.vertices}
    alias = {v: v for v in g.vertices}

    def find(v: int) -> int:
        while alias[v] != v:
            alias[v] = alias[alias[v]]
            v = alias[v]
        return v

    for u0, v0 in doomed:
        u, v = find(u0), find(v0)
        if u == v:
            continue
        common = (set(rot[u]) & set(rot[v])) - {u, v}
        if common:
            raise ReductionUnsupported(
                f"contracting ({u},{v}) duplicates edges to {sorted(common)[:3]}"
            )
        iu = rot[u].index(v)
        iv = rot[v].index(u)
        merged = (
            rot[u][iu + 1 :]
            + rot[u][:iu]
            + rot[v][iv + 1 :]
            + rot[v][:iv]
        )
        for w in rot[v]:
            if w != u:
                rot[w][rot[w].index(v)] = u
        rot[u] = merged
        del rot[v]
        alias[v] = u

    # contracting an edge without making a parallel one keeps the graph plane
    walk = ((find(a), find(b)) for a, b in g.faces()[g.outer_face()])
    g2, remap = derived_graph(rot, sorted(rot), walk)

    def mapped(v: int) -> int:
        return remap[find(v)]

    def collapse(seq) -> tuple[int, ...]:
        out = []
        for v in seq:
            mv = mapped(v)
            if not out or out[-1] != mv:
                out.append(mv)
        return tuple(out)

    new_cycles = []
    for c in q.cycles.cycles:
        seq = list(collapse(c.vertices))
        if len(seq) > 1 and seq[0] == seq[-1]:
            seq.pop()
        if len(seq) < 3:
            raise ReductionUnsupported("a cycle degenerates under contraction")
        new_cycles.append(Cycle(tuple(seq)))
    cc2 = make_concentric(g2, new_cycles)
    new_paths = tuple(collapse(p) for p in q.linkage.paths)
    return CLConfiguration(g2, cc2, Linkage(new_paths))


# -- tilted grids ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TiltedGrid:
    """Two orthogonal path families whose contraction is a square grid."""

    x_paths: tuple[tuple[int, ...], ...]
    z_paths: tuple[tuple[int, ...], ...]

    @property
    def capacity(self) -> int:
        return len(self.x_paths)

    def intersection(self, i: int, j: int) -> tuple[frozenset[int], frozenset[Edge]]:
        xi = self.x_paths[i - 1]
        zj = self.z_paths[j - 1]
        return frozenset(xi) & frozenset(zj), path_edges(xi) & path_edges(zj)


def perimeter_cycle(u: TiltedGrid) -> Cycle:
    """X_1 + Z_1 + X_r + Z_r assembled into a simple cycle."""
    r = u.capacity
    if r < 2:
        raise ConfigError("perimeter needs capacity >= 2")
    edge_set: set[Edge] = set()
    for p in (u.x_paths[0], u.x_paths[-1], u.z_paths[0], u.z_paths[-1]):
        edge_set |= path_edges(p)
    cyc = cycle_from_edges(edge_set)
    if cyc is None:
        raise ConfigError("perimeter paths do not close into a single cycle")
    return cyc


def verify_tilted_grid(
    g: PlaneGraph, u: TiltedGrid, linkage: Optional[Linkage] = None
) -> CheckResult:
    """Full invariant check; with a linkage, also checks tidiness."""
    problems: list[str] = []
    r = u.capacity
    if len(u.z_paths) != r:
        return CheckResult(False, ("X and Z families differ in size",))
    for fam_name, fam in (("X", u.x_paths), ("Z", u.z_paths)):
        used: set[int] = set()
        for p in fam:
            if len(set(p)) != len(p):
                problems.append(f"{fam_name} path revisits a vertex")
            for a, b in zip(p, p[1:]):
                if not g.has_edge(a, b):
                    problems.append(f"{fam_name} path uses non-edge ({a},{b})")
            if used & set(p):
                problems.append(f"{fam_name} paths are not vertex-disjoint")
            used |= set(p)
    if problems:
        return CheckResult(False, tuple(problems))
    # spans[(name, p, o)]: where the intersection with the other family's
    # path o lies along path p of family name
    spans: dict[tuple[str, int, int], tuple[int, int]] = {}
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            vs, es = u.intersection(i, j)
            if not vs:
                problems.append(f"intersection ({i},{j}) is empty")
                continue
            for name, p, o, path in (("X", i, j, u.x_paths[i - 1]), ("Z", j, i, u.z_paths[j - 1])):
                idxs = sorted(k for k, v in enumerate(path) if v in vs)
                if idxs[-1] - idxs[0] != len(idxs) - 1:
                    problems.append(f"intersection ({i},{j}) is not contiguous along {name}_{p}")
                spans[(name, p, o)] = (idxs[0], idxs[-1])
            if len(es) != len(vs) - 1:
                problems.append(f"intersection ({i},{j}) is not a path")
            if (i in (1, r)) and (j in (1, r)) and es:
                problems.append(f"corner intersection ({i},{j}) has edges")
    if problems:
        return CheckResult(False, tuple(problems))
    for name, fam in (("X", u.x_paths), ("Z", u.z_paths)):
        for p, path in enumerate(fam, 1):
            seq = [spans[(name, p, o)] for o in range(1, r + 1)]
            fwd = all(seq[o][1] < seq[o + 1][0] for o in range(r - 1))
            rev = all(seq[o][0] > seq[o + 1][1] for o in range(r - 1))
            if not (fwd or rev):
                problems.append(f"intersections along {name}_{p} are out of order")
            if min(sp[0] for sp in seq) != 0 or max(sp[1] for sp in seq) != len(path) - 1:
                problems.append(f"{name}_{p} has a tail beyond its extreme intersections")
    if problems:
        return CheckResult(False, tuple(problems))
    if linkage is not None and r >= 2:
        disc = closed_interior(g, perimeter_cycle(u))
        zv = frozenset(v for p in u.z_paths for v in p)
        ze = frozenset().union(*(path_edges(p) for p in u.z_paths))
        lv = linkage.vertices & disc.vertices
        le = linkage.edges & disc.edges
        if lv != zv:
            problems.append(
                f"tidiness: linkage meets the disc in {len(lv)} vertices, expected {len(zv)}"
            )
        if le != ze:
            problems.append("tidiness: linkage edges in the disc differ from the Z family")
    return CheckResult(not problems, tuple(problems))


class TiltedGridConstructionError(ConfigError):
    pass


def extract_tilted_grid(q: CLConfiguration, cls: list[Segment]) -> TiltedGrid:
    """Build an L-tidy tilted grid of capacity ceil(|cls|/2) from a parallel class."""
    if not cls:
        raise ConfigError("empty segment class")
    g = q.graph
    ordered = sorted(cls, key=lambda s: s.eccentricity)
    eccs = [s.eccentricity for s in ordered]
    for a, b in zip(eccs, eccs[1:]):
        if b != a + 1:
            raise TiltedGridConstructionError(
                f"class eccentricities {eccs} do not form a consecutive run"
            )
    m = len(ordered)
    mprime = (m + 1) // 2
    if mprime == 1:
        s = ordered[0]
        deepest = q.cycles.cycles[s.eccentricity]
        meet = [v for v in s.vertices if v in deepest.vertex_set]
        if not meet:
            raise TiltedGridConstructionError("segment misses its eccentricity cycle")
        v = meet[0]
        u = TiltedGrid(((v,),), ((v,),))
        return u
    for s in ordered[:mprime]:
        if q.cycles.cycles[s.eccentricity].vertex_set.isdisjoint(s.vertices):
            raise TiltedGridConstructionError("segment misses its eccentricity cycle")
    s1, sm = ordered[0], ordered[mprime - 1]
    a_idx = eccs[mprime - 1]  # innermost annulus cycle index
    b_idx = a_idx + mprime - 1
    if b_idx > q.depth:
        raise TiltedGridConstructionError("annulus exceeds the cycle family")
    ann_faces = q.cycles.discs[b_idx].faces - q.cycles.discs[a_idx].faces
    # region between s1 and sm
    region, between = _region_between(q, s1, sm, _connecting_arcs(q, s1, sm)[0])
    if between is None:
        raise TiltedGridConstructionError("degenerate between-region")
    ds_and_ann = frozenset(f for f, lab in region.items() if lab == between) & ann_faces
    if not ds_and_ann:
        raise TiltedGridConstructionError("empty annulus crossing")
    # crop to the piece of it that holds its least face
    pieces = face_regions(g, ds_and_ann, ())
    _, delta_edges = face_closure(g, (f for f, lab in pieces.items() if lab == min(ds_and_ann)))

    def crop(path_vertices: tuple[int, ...], closed: bool) -> tuple[int, ...]:
        n = len(path_vertices)
        idx_edges = []
        rng = range(n) if closed else range(n - 1)
        for k in rng:
            a, b = path_vertices[k], path_vertices[(k + 1) % n]
            if norm_edge(a, b) in delta_edges:
                idx_edges.append(k)
        if not idx_edges:
            raise TiltedGridConstructionError("a family path misses the crop region")
        if closed:
            # contiguous arc on the cycle, possibly wrapping
            marks = set(idx_edges)
            start = None
            for k in idx_edges:
                if (k - 1) % n not in marks:
                    start = k
                    break
            if start is None:
                raise TiltedGridConstructionError("cycle crop is the whole cycle")
            seq = [path_vertices[start]]
            k = start
            while k in marks:
                seq.append(path_vertices[(k + 1) % n])
                k = (k + 1) % n
            return tuple(seq)
        lo, hi = min(idx_edges), max(idx_edges)
        if idx_edges != list(range(lo, hi + 1)):
            raise TiltedGridConstructionError("path crop is not contiguous")
        return tuple(path_vertices[lo : hi + 2])

    x_paths = []
    for lvl in range(a_idx, b_idx + 1):
        x_paths.append(crop(q.cycles.cycles[lvl].vertices, closed=True))
    z_paths = []
    for s in ordered[:mprime]:
        z_paths.append(crop(s.vertices, closed=False))
    # orient: X_1 innermost; align Z order along X paths by position
    u = TiltedGrid(tuple(x_paths), tuple(z_paths))
    u = _orient_tilted(u)
    check = verify_tilted_grid(g, u, q.linkage)
    if not check:
        raise TiltedGridConstructionError(
            f"extracted grid failed verification: {check.problems[:3]}"
        )
    return u


def _orient_tilted(u: TiltedGrid) -> TiltedGrid:
    """Normalize path directions so intersections run in increasing order."""
    if u.capacity < 2:
        return u
    # order Z along X_1 and X along the first Z, then turn each path to start
    # nearer the first path of the other family
    z_paths = _sorted_along(u.z_paths, u.x_paths[0])
    x_paths = _sorted_along(u.x_paths, z_paths[0])
    z_paths = _turned_toward(z_paths, x_paths[0])
    x_paths = _turned_toward(x_paths, z_paths[0])
    return TiltedGrid(x_paths, z_paths)


def _sorted_along(fam, ref: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The family's paths by the first position along `ref` where each meets it."""
    pos = {v: k for k, v in enumerate(ref)}
    return sorted(fam, key=lambda p: min((pos[v] for v in p if v in pos), default=1 << 30))


def _turned_toward(fam, ref: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Each path reversed if it meets `ref` nearer its far end than its start."""
    ref_set = set(ref)
    out = []
    for p in fam:
        hits = [k for k, v in enumerate(p) if v in ref_set]
        out.append(tuple(reversed(p)) if hits and hits[0] > len(p) - 1 - hits[-1] else p)
    return tuple(out)

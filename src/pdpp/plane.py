"""Embedded planar graphs: rotation systems, faces, cycles, disc regions, grids.

A plane graph is stored combinatorially as a rotation system (clockwise
neighbor order per vertex) plus a designated dart on the unbounded face.
A graph is validated, and its faces traced, when it is built; one derived
from a validated graph by edits that keep it plane is not validated again,
and traces its faces when they are first read.
All region queries (interior/exterior of a cycle) are answered by dual-graph
reachability, never by coordinates; `face_regions` is the one dual walk.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Container, Hashable, Iterable, Mapping, Optional, Sequence, TypeVar

Edge = tuple[int, int]
Dart = tuple[int, int]
N = TypeVar("N", bound=Hashable)


class PlaneGraphError(ValueError):
    """Structural problem with a plane graph or one of its derived objects."""


class EmbeddingError(PlaneGraphError):
    """Rotation system does not describe a planar (genus-0) embedding."""


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _dart_edges(rotation: Mapping[int, Iterable[int]]) -> frozenset[Edge]:
    """The edges of a rotation system: its darts (v, w) with v < w."""
    return frozenset((v, w) for v, rot in rotation.items() for w in rot if v < w)


def _check_edges(n: int, edges: Iterable[Edge]) -> None:
    """Reject the first edge that leaves 1..n or is a loop."""
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise PlaneGraphError(f"edge ({u},{v}) out of vertex range 1..{n}")
        if u == v:
            raise PlaneGraphError(f"loop at vertex {u} not allowed")


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus a human-readable list of violations."""

    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


class BudgetExceeded(RuntimeError):
    """An exhaustive search used up its work budget before finishing."""


class Budget:
    """Work one exhaustive search has spent; the search says what a unit counts.

    `spend` raises `error()` once `spent` passes `limit`, so a search that
    needs S units decides with a limit of S and gives up with S - 1.
    """

    __slots__ = ("limit", "spent", "error")

    def __init__(self, limit: int, error: Callable[[], BudgetExceeded] = BudgetExceeded):
        self.limit = limit
        self.spent = 0
        self.error = error

    def spend(self, n: int = 1) -> None:
        self.spent += n
        if self.spent > self.limit:
            raise self.error()


def face_orbits(n: int, rotation: dict[int, Sequence[int]]) -> tuple[tuple[Dart, ...], ...]:
    """The dart orbits of a rotation system of 1..n, sorted by least dart.

    Dart (u, v) turns at v to (v, w), w the neighbour after u in v's
    clockwise rotation. Each orbit starts at its first dart in vertex
    order, then rotation order. The rotation must be symmetric: w in the
    rotation of v exactly when v is in that of w.
    """
    turn: dict[Dart, Dart] = {}
    for v in range(1, n + 1):
        rot = rotation[v]
        if rot:
            u = rot[-1]  # the neighbour before rot[0]
            for w in rot:
                turn[(u, v)] = (v, w)
                u = w
    orbits = []
    # the values list every dart once, in vertex order, then rotation order
    for start in list(turn.values()):
        if start not in turn:
            continue
        orbit = [start]
        d = turn.pop(start)
        while d != start:
            orbit.append(d)
            d = turn.pop(d)
        orbits.append(tuple(orbit))
    orbits.sort(key=min)
    return tuple(orbits)


class PlaneGraph:
    """Simple undirected plane graph with dense vertex ids 1..n.

    Immutable after construction. The faces are the dart orbits of the
    rotation system, traced once; every derived object (regions, grid
    detection) reads them. The constructor validates the graph, and so
    traces its faces at once. A graph derived from a validated one by an
    edit that keeps it plane (`delete_vertices`, the exact kernel's graph,
    the edge contraction of `reduce_configuration`) is built by
    `derived_graph` instead: it is not validated again, and traces
    its faces on their first read. Without an outer dart, a graph with
    edges takes the least dart of a longest face when the faces are traced.
    Whether the graph is a grid is derived from it, by `detect_grid` on the
    first read of `grid_shape` or `grid_coords`, however the graph was
    built.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        rotation: dict[int, Sequence[int]],
        outer_dart: Optional[Dart],
    ):
        self.n = n
        self.rotation: dict[int, tuple[int, ...]] = {
            v: tuple(rotation.get(v, ())) for v in range(1, n + 1)
        }
        self._outer_dart = outer_dart
        self._validate(edges)

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    @property
    def outer_dart(self) -> Optional[Dart]:
        """The dart the graph was given on the unbounded face; without one, a
        graph with edges takes the least dart of a longest face."""
        if self._outer_dart is None and self.edges:
            self._trace_faces()
        return self._outer_dart

    # -- grid structure ----------------------------------------------------

    @cached_property
    def _grid(self) -> Optional[tuple[tuple[int, int], dict[int, tuple[int, int]]]]:
        return detect_grid(self)

    @property
    def grid_shape(self) -> Optional[tuple[int, int]]:
        """(rows, cols) when the graph is a full grid, else None."""
        return self._grid[0] if self._grid else None

    @property
    def grid_coords(self) -> Optional[dict[int, tuple[int, int]]]:
        """Each vertex's (row, col) when the graph is a full grid, else None."""
        return self._grid[1] if self._grid else None

    # -- validation and face tracing --------------------------------------

    def _validate(self, given: Iterable[Edge]) -> None:
        """Check the caller's edges, the rotation system, the outer dart and
        the genus; this sets `edges` and traces the faces."""
        # The darts (v, w), w in rotation[v], are checked at once: those with
        # v < w (`edges`), and those with v > w read as (w, v), must each be
        # exactly the caller's edges, and there must be 2m darts. This is the
        # vertex-by-vertex test (edges inside 1..n and no loops, each
        # rotation[v] listing the neighbours of v once each), which gives
        # each edge (u, w) exactly the darts (u, w) and (w, u). Conversely,
        # the two sets give m darts each, so with 2m in all no dart repeats
        # and none is a loop (v, v); a dart's edge is an edge, so rotation[v]
        # lists neighbours of v only; each edge (u, w) has the darts (u, w)
        # and (w, u), so u and w are vertices 1..n, u < w, and each lists the
        # other. A normalised set (what `parse_instance` hands over) is read
        # as given, any other form normalised.
        rotation = self.rotation
        self.edges = edges = _dart_edges(rotation)
        normalised = None if edges == given else frozenset(norm_edge(u, v) for u, v in given)
        if not (
            (normalised is None or normalised == edges)
            and sum(map(len, rotation.values())) == 2 * len(edges)
            and {(w, v) for v, rot in rotation.items() for w in rot if w < v} == edges
        ):
            if normalised is None:
                normalised = frozenset(norm_edge(u, v) for u, v in given)
            self._raise_rotation_fault(normalised)
        if self._outer_dart is not None:
            u, v = self._outer_dart
            if (u, v) not in edges and (v, u) not in edges:
                raise PlaneGraphError(f"outer dart {self._outer_dart} is not an edge")
        self._trace_faces()
        # Genus-0 check: Euler's formula with the unbounded face counted once.
        c = len(self._components)
        if self.n - self.m + self._num_faces != 1 + c:
            raise EmbeddingError(
                f"rotation system is not planar: n={self.n} m={self.m} "
                f"faces={self._num_faces} components={c}"
            )

    def _raise_rotation_fault(self, edges: frozenset[Edge]) -> None:
        """Raise the fault the dart count found in the caller's normalised
        `edges` as the vertex-by-vertex test names it: the first edge outside
        1..n or loop, else the first vertex whose rotation repeats a
        neighbour or is not a permutation of its neighbours."""
        _check_edges(self.n, edges)
        nbr_sets = {v: set() for v in self.vertices}
        for u, v in edges:
            nbr_sets[u].add(v)
            nbr_sets[v].add(u)
        for v in self.vertices:
            rot = self.rotation[v]
            if len(rot) != len(set(rot)):
                raise PlaneGraphError(f"rotation at {v} repeats a neighbor")
            if set(rot) != nbr_sets[v]:
                raise PlaneGraphError(
                    f"rotation at {v} is not a permutation of its neighbors"
                )
        raise AssertionError("the dart count and the neighbour sets disagree")

    def _trace_faces(self) -> None:
        """Trace the faces, take the default outer dart, and count the faces:
        at validation, or on a derived graph's first face read."""
        self._faces = faces = face_orbits(self.n, self.rotation)
        self._face_of = face_of = {d: i for i, orbit in enumerate(faces) for d in orbit}
        if self._outer_dart is None and self.edges:
            self._outer_dart = min(max(faces, key=len))
        self._outer_face_id = face_of[self._outer_dart] if self.edges else -1
        # Dart orbits repeat the unbounded face once per edge-bearing
        # component; isolated vertices trace no orbit at all.
        self._components = comps = connected_components(self)
        edged = sum(1 for comp in comps if any(self.rotation[v] for v in comp))
        self._num_faces = len(faces) - (edged - 1) if edged else 1

    # -- faces -----------------------------------------------------------

    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """All faces as dart orbits of the rotation system, sorted by least dart."""
        if self._faces is None:
            self._trace_faces()
        return self._faces

    def face_of_dart(self, dart: Dart) -> int:
        if self._faces is None:
            self._trace_faces()
        return self._face_of[dart]

    def outer_face(self) -> int:
        """Index of the unbounded face (the face containing the outer dart);
        -1 without edges."""
        if self._faces is None:
            self._trace_faces()
        return self._outer_face_id

    def face_vertices(self, face_id: int) -> frozenset[int]:
        return frozenset(u for u, _ in self.faces()[face_id])

    def face_edges(self, face_id: int) -> frozenset[Edge]:
        return frozenset(norm_edge(u, v) for u, v in self.faces()[face_id])

    def faces_of_edge(self, e: Edge) -> tuple[int, int]:
        """The (at most two distinct) face ids on either side of e."""
        u, v = e
        return (self.face_of_dart((u, v)), self.face_of_dart((v, u)))

    def num_faces(self) -> int:
        """Faces of the drawing: the unbounded one counted once."""
        if self._faces is None:
            self._trace_faces()
        return self._num_faces


# -- traversal helpers ---------------------------------------------------


def connected_components(g: PlaneGraph) -> list[frozenset[int]]:
    comps: list[frozenset[int]] = []
    seen: set[int] = set()
    for s in g.vertices:
        if s not in seen:
            comps.append(frozenset(bfs_distances(g.rotation, [s])))
            seen |= comps[-1]
    return comps


def bfs_distances(
    adj: Mapping[N, Iterable[N]], sources: Iterable[N], within: Optional[Container[N]] = None
) -> dict[N, int]:
    """Distance from the nearest source to each node it reaches, in the order reached.

    `adj` maps each node to its neighbours: a plane graph's `rotation`, a
    tree's child lists, any adjacency. With `within`, the search steps only
    onto nodes in `within`.
    """
    allowed = adj if within is None else within
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist and w in allowed:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def shortest_path(
    g: PlaneGraph, s: int, t: int, within: Optional[Container[int]] = None
) -> Optional[list[int]]:
    """Shortest s-t path, or None; with `within`, its steps stay in `within`.

    Neighbours are scanned in increasing order, so ties break the same way
    for every caller.
    """
    if s == t:
        return [s]
    allowed = g.rotation if within is None else within
    prev: dict[int, int] = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in sorted(g.rotation[v]):
            if w in prev or w not in allowed:
                continue
            prev[w] = v
            if w == t:
                path = [t]
                while path[-1] != s:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            queue.append(w)
    return None


# -- cycles and disc regions ----------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """A cycle given by its vertex sequence (first vertex not repeated)."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise PlaneGraphError(f"cycle needs >= 3 vertices, got {self.vertices}")
        if len(set(self.vertices)) != len(self.vertices):
            raise PlaneGraphError("cycle repeats a vertex")

    # Cached in the instance __dict__; equality and hash still read only
    # `vertices`, the one dataclass field.
    @cached_property
    def edges(self) -> frozenset[Edge]:
        vs = self.vertices
        return frozenset(
            norm_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))
        )

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def normalized(self) -> "Cycle":
        """Canonical rotation/direction, for equality tests."""
        vs = self.vertices
        k = vs.index(min(vs))
        fwd = vs[k:] + vs[:k]
        rev = (fwd[0],) + tuple(reversed(fwd[1:]))
        return Cycle(min(fwd, rev))

    def __len__(self) -> int:
        return len(self.vertices)


def check_cycle(g: PlaneGraph, c: Cycle) -> None:
    for e in c.edges:
        if e not in g.edges:
            raise PlaneGraphError(f"cycle step {e} is not an edge of the graph")


@dataclass(frozen=True)
class DiskRegion:
    """Closed interior of a cycle: vertices, edges and faces.

    `vertices`/`edges` include the cycle itself; `faces` are the strictly
    enclosed face ids.
    """

    cycle: Cycle
    vertices: frozenset[int]
    edges: frozenset[Edge]
    faces: frozenset[int]

    def open_vertices(self) -> frozenset[int]:
        return self.vertices - self.cycle.vertex_set

    def is_subset_of(self, other: "DiskRegion") -> bool:
        return self.faces <= other.faces and self.vertices <= other.vertices

    def is_proper_subset_of(self, other: "DiskRegion") -> bool:
        return self.is_subset_of(other) and (
            self.faces != other.faces or self.vertices != other.vertices
        )


def face_regions(
    g: PlaneGraph, faces: Iterable[int], barriers: Container[Edge]
) -> dict[int, int]:
    """Each of `faces` mapped to the least face id of its region.

    Two of `faces` share a region when a walk through `faces` joins them,
    each step crossing a shared edge not in `barriers`. This is the one
    dual-graph walk: cycle interiors, segment zones and regions, and the
    contracted dual of the min-cut searches all read it.
    """
    inside = set(faces)
    region: dict[int, int] = {}
    for start in sorted(inside):
        if start in region:
            continue
        region[start] = start
        stack = [start]
        while stack:
            for u, v in g.faces()[stack.pop()]:
                other = g.face_of_dart((v, u))
                if other not in region and other in inside and norm_edge(u, v) not in barriers:
                    region[other] = start
                    stack.append(other)
    return region


def face_closure(g: PlaneGraph, faces: Iterable[int]) -> tuple[frozenset[int], frozenset[Edge]]:
    """The vertices and edges on the boundaries of `faces`."""
    verts: set[int] = set()
    edges: set[Edge] = set()
    for f in faces:
        for u, v in g.faces()[f]:
            verts.add(u)
            edges.add(norm_edge(u, v))
    return frozenset(verts), frozenset(edges)


def interior_faces(g: PlaneGraph, c: Cycle) -> frozenset[int]:
    """Face ids strictly inside c: those outside the outer face's region."""
    check_cycle(g, c)
    region = face_regions(g, range(len(g.faces())), c.edges)
    outside = region[g.outer_face()]
    return frozenset(f for f, r in region.items() if r != outside)


def closed_interior(g: PlaneGraph, c: Cycle) -> DiskRegion:
    """Closed interior of c: everything drawn inside or on the cycle.

    Every edge of c borders one face inside it, so the closure of the
    interior faces holds the cycle, and no edge drawn outside c.
    """
    inner = interior_faces(g, c)
    verts, edges = face_closure(g, inner)
    # Isolated components embedded elsewhere never enter a cycle's interior
    # unless face-tracing put them there; rotation systems place each extra
    # component in the unbounded face by convention.
    return DiskRegion(cycle=c, vertices=verts, edges=edges, faces=inner)


def cycle_from_edges(edges: Iterable[Edge]) -> Optional[Cycle]:
    """The cycle a connected 2-regular edge set forms, else None.

    The walk starts at the least vertex and leaves it towards the lesser
    of its two neighbours, so the cycle depends on the edge set alone.
    """
    nbrs: dict[int, list[int]] = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    if not nbrs or any(len(nb) != 2 for nb in nbrs.values()):
        return None
    seq = [min(nbrs)]
    prev = max(nbrs[seq[0]])  # entered from the greater neighbour, so leave by the lesser
    while True:
        a, b = nbrs[seq[-1]]
        nxt = a if a != prev else b
        if nxt == seq[0]:
            break
        prev = seq[-1]
        seq.append(nxt)
    return Cycle(tuple(seq)) if len(seq) == len(nbrs) else None


def path_edges(vertices: Sequence[int]) -> frozenset[Edge]:
    """The edges between consecutive vertices of a path."""
    return frozenset(norm_edge(a, b) for a, b in zip(vertices, vertices[1:]))


# -- grids -----------------------------------------------------------------


def grid_vertex(rows: int, cols: int, r: int, c: int) -> int:
    return (r - 1) * cols + c


def make_grid(rows: int, cols: int) -> PlaneGraph:
    """The rows x cols grid with its canonical embedding.

    Vertex ids are row-major starting at 1; the unbounded face is the one
    bounded by the outer cycle whenever the grid has more than two faces.
    Its derived `grid_shape` is (rows, cols) with row-major `grid_coords`,
    except that a single column (cols = 1, rows > 1) is a path and reads
    as (1, rows), like every other path.
    """
    if rows < 1 or cols < 1:
        raise PlaneGraphError("grid dimensions must be positive")
    n = rows * cols
    edges = set()
    rotation: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            v = grid_vertex(rows, cols, r, c)
            # clockwise when drawn with row 1 on top: up, right, down, left
            for rr, cc in ((r - 1, c), (r, c + 1), (r + 1, c), (r, c - 1)):
                if 1 <= rr <= rows and 1 <= cc <= cols:
                    w = grid_vertex(rows, cols, rr, cc)
                    rotation[v].append(w)
                    if v < w:
                        edges.add((v, w))
    outer: Optional[Dart] = None
    if rows >= 2 and cols >= 2:
        outer = (grid_vertex(rows, cols, 1, 1), grid_vertex(rows, cols, 1, 2))
    elif cols >= 2:
        outer = (1, 2)
    elif rows >= 2:
        outer = (1, 1 + cols)
    return PlaneGraph(n, edges, rotation, outer)


def detect_grid(g: PlaneGraph) -> Optional[tuple[tuple[int, int], dict[int, tuple[int, int]]]]:
    """Recognize a full grid and recover coordinates, or None.

    A path is the 1 x n grid, numbered from its smaller end. Otherwise a
    corner c (degree 2) and its neighbour w fix the orientation: c is at
    (1, 1) and w at (1, 2). They are the first corner on the face through
    all four corners (the outer face if it is one) and the vertex after
    it on that face, else the least corner and its least neighbour. Row 1
    ends at `far`, the corner nearest c that is nearer w; the distances d
    from c and d2 from `far` give each vertex's column (d - d2 + cols + 1) / 2
    and row d - col + 2. The final edge set is checked exactly.
    """
    if g.n == 1:
        return (1, 1), {1: (1, 1)}
    degs = [len(g.rotation[v]) for v in g.vertices]
    if max(degs, default=0) > 4:
        return None
    if max(degs, default=0) <= 2 and g.m == g.n - 1:
        # a path graph is a 1 x n grid
        ends = [v for v in g.vertices if degs[v - 1] == 1]
        if len(ends) != 2:
            return None
        d = bfs_distances(g.rotation, [ends[0]])
        return ((1, g.n), {v: (1, i + 1) for v, i in d.items()}) if len(d) == g.n else None
    corners = [v for v in g.vertices if degs[v - 1] == 2]
    if len(corners) != 4:
        return None
    around = [g.outer_face()] + [g.face_of_dart((corners[0], w)) for w in g.rotation[corners[0]]]
    border = next((f for f in around if set(corners) <= g.face_vertices(f)), None)
    if border is None:
        c, w = corners[0], min(g.rotation[corners[0]])
    else:
        c, w = next((u, v) for u, v in g.faces()[border] if u in corners)
    d, dw = bfs_distances(g.rotation, [c]), bfs_distances(g.rotation, [w])
    if len(d) != g.n:
        return None
    far = min((x for x in corners if dw[x] < d[x]), key=d.__getitem__, default=None)
    if far is None or g.n % (d[far] + 1):
        return None
    cols = d[far] + 1
    rows = g.n // cols
    d2 = bfs_distances(g.rotation, [far])
    coords: dict[int, tuple[int, int]] = {}
    at: dict[tuple[int, int], int] = {}
    for v in g.vertices:
        col, odd = divmod(d[v] - d2[v] + cols + 1, 2)
        row = d[v] - col + 2
        if odd or not (1 <= row <= rows and 1 <= col <= cols) or (row, col) in at:
            return None
        coords[v] = (row, col)
        at[(row, col)] = v
    want_edges = {
        norm_edge(v, at[nb])
        for (r, col), v in at.items()
        for nb in ((r + 1, col), (r, col + 1))
        if nb in at
    }
    if want_edges != g.edges:
        return None
    return (rows, cols), coords


def grid_corners(g: PlaneGraph) -> frozenset[int]:
    if g.grid_shape is None:
        raise PlaneGraphError("not a grid")
    rows, cols = g.grid_shape
    if rows < 2 or cols < 2:
        raise PlaneGraphError("corners are defined for grids with rows, cols >= 2")
    return frozenset(v for v in g.vertices if g.degree(v) == 2)


def centers(g: PlaneGraph) -> frozenset[int]:
    """Vertices at maximum distance from the grid's corner set."""
    corners = grid_corners(g)
    dist = bfs_distances(g.rotation, corners)
    best = max(dist.values())
    return frozenset(v for v, d in dist.items() if d == best)


def grid_position_map(g: PlaneGraph) -> dict[tuple[int, int], int]:
    if g.grid_coords is None:
        raise PlaneGraphError("not a grid")
    return {rc: v for v, rc in g.grid_coords.items()}


def grid_ring(g: PlaneGraph, offset: int) -> Cycle:
    """The cycle at `offset` steps in from the grid boundary (offset 0 = outer cycle)."""
    at = grid_position_map(g)
    rows, cols = g.grid_shape
    r0, r1 = 1 + offset, rows - offset
    c0, c1 = 1 + offset, cols - offset
    if r1 - r0 < 1 or c1 - c0 < 1:
        raise PlaneGraphError(f"grid has no ring at offset {offset}")
    return Cycle(tuple(at[p] for p in rectangle_border(r0, c0, r1, c1)))


def rectangle_border(r0: int, c0: int, r1: int, c1: int) -> list[tuple[int, int]]:
    """Positions round the border of rows r0..r1 and columns c0..c1.

    Clockwise with row r0 on top, from (r0, c0): along row r0, down column
    c1, back along row r1, up column c0.
    """
    return (
        [(r0, c) for c in range(c0, c1 + 1)]
        + [(r, c1) for r in range(r0 + 1, r1 + 1)]
        + [(r1, c) for c in range(c1 - 1, c0 - 1, -1)]
        + [(r, c0) for r in range(r1 - 1, r0, -1)]
    )


def outer_cycle(g: PlaneGraph) -> Cycle:
    return grid_ring(g, 0)


# -- minor models -----------------------------------------------------------


@dataclass(frozen=True)
class GridMinorModel:
    """Branch sets realizing a grid_rows x grid_cols grid minor in a host graph."""

    grid_rows: int
    grid_cols: int
    phi: dict[tuple[int, int], frozenset[int]] = field(hash=False)

    def side(self) -> int:
        return min(self.grid_rows, self.grid_cols)

    def grid_positions(self) -> list[tuple[int, int]]:
        return [
            (r, c)
            for r in range(1, self.grid_rows + 1)
            for c in range(1, self.grid_cols + 1)
        ]


def verify_minor_model(g: PlaneGraph, model: GridMinorModel) -> CheckResult:
    """Check disjointness, connectivity, and adjacency of a grid minor model."""
    problems: list[str] = []
    positions = model.grid_positions()
    for pos in positions:
        if pos not in model.phi:
            problems.append(f"missing branch set for grid vertex {pos}")
            return CheckResult(False, tuple(problems))
    seen: dict[int, tuple[int, int]] = {}
    for pos in positions:
        bs = model.phi[pos]
        if not bs:
            problems.append(f"empty branch set at {pos}")
        for v in bs:
            if not 1 <= v <= g.n:
                problems.append(f"branch set at {pos} mentions unknown vertex {v}")
            elif v in seen:
                problems.append(f"vertex {v} shared by branch sets {seen[v]} and {pos}")
            else:
                seen[v] = pos
    if problems:
        return CheckResult(False, tuple(problems))
    for pos in positions:
        vs = model.phi[pos]
        if len(bfs_distances(g.rotation, [min(vs)], within=vs)) != len(vs):
            problems.append(f"branch set at {pos} is not connected")
    for r, c in positions:
        for nb in ((r + 1, c), (r, c + 1)):
            if nb in model.phi:
                a, b = model.phi[(r, c)], model.phi[nb]
                if not any(g.has_edge(u, v) for u in a for v in b):
                    problems.append(f"no edge between branch sets {(r, c)} and {nb}")
    return CheckResult(not problems, tuple(problems))


@dataclass(frozen=True)
class TopologicalMinorModel:
    """Injective vertex map plus internally disjoint host paths per pattern edge."""

    phi0: dict[object, int] = field(hash=False)
    phi1: dict[object, tuple[int, ...]] = field(hash=False)


def verify_topological_minor(
    g: PlaneGraph,
    model: TopologicalMinorModel,
    pattern_edges: Iterable[tuple[object, object]],
) -> CheckResult:
    problems: list[str] = []
    vals = list(model.phi0.values())
    if len(set(vals)) != len(vals):
        problems.append("phi0 is not injective")
    for key, path in model.phi1.items():
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                problems.append(f"path for {key} uses non-edge ({a},{b})")
        if len(set(path)) != len(path):
            problems.append(f"path for {key} revisits a vertex")
    for x, y in pattern_edges:
        key = frozenset((x, y))
        path = model.phi1.get(key)
        if path is None:
            problems.append(f"no path for pattern edge {set(key)}")
            continue
        ends = {path[0], path[-1]}
        if ends != {model.phi0[x], model.phi0[y]}:
            problems.append(f"path for {set(key)} has wrong endpoints {ends}")
    paths = list(model.phi1.values())
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            shared = set(paths[i]) & set(paths[j])
            endpoints = {paths[i][0], paths[i][-1]} & {paths[j][0], paths[j][-1]}
            bad = shared - endpoints
            if bad:
                problems.append(
                    f"paths {i} and {j} share internal vertices {sorted(bad)}"
                )
    return CheckResult(not problems, tuple(problems))


# -- construction from arbitrary edge lists ---------------------------------


def plane_graph_from_edges(
    n: int,
    edges: Iterable[Edge],
    rotation: Optional[dict[int, Sequence[int]]] = None,
    outer_dart: Optional[Dart] = None,
) -> PlaneGraph:
    """Build a plane graph, computing an embedding when none is given.

    Without a rotation system the left-right planarity test embeds the
    graph; non-planar input is a hard error. Without an outer dart,
    `PlaneGraph` takes the least dart of a longest face.
    """
    if rotation is None:
        edges = {norm_edge(u, v) for u, v in edges}
        edge_list = sorted(edges)
        _check_edges(n, edge_list)
        rotation = _lr_rotation(n, edge_list)
        if rotation is None:
            raise EmbeddingError("input graph is not planar")
    return PlaneGraph(n, edges, rotation, outer_dart)


def _lr_rotation(n: int, edge_list: list[Edge]) -> Optional[dict[int, list[int]]]:
    """Clockwise rotation of every vertex 1..n, or None if the graph is not planar.

    The left-right planarity test (Brandes, *The Left-Right Planarity
    Test*, 2009, after de Fraysseix, Ossona de Mendez & Rosenstiehl, 2006)
    on int arrays, with explicit stacks instead of recursion. `edge_list`
    is sorted, loop-free and inside 1..n; edge ids are its positions. Every
    choice (DFS order, stable sorts, where each half-edge is inserted and
    where each rotation starts) follows networkx's `check_planarity`, so
    the rotations are its `neighbors_cw_order` lists.
    """
    m = len(edge_list)
    if n > 2 and m > 3 * n - 6:
        return None
    NONE = m  # "no edge"; per-edge arrays carry this spare slot
    ends = [u + v for u, v in edge_list]  # other end of e at v: ends[e] - v
    inc: list[list[int]] = [[] for _ in range(n + 1)]
    for e, (u, v) in enumerate(edge_list):
        inc[u].append(e)  # sorted edges list each vertex's neighbours ascending
        inc[v].append(e)

    # Phase 1: orient by DFS; heights, lowpoints and nesting depths.
    src = [0] * m  # tail once oriented, 0 before
    dst = [0] * m
    height = [-1] * (n + 1)
    parent = [NONE] * (n + 1)  # tree edge into v
    lowpt = [0] * (m + 1)
    lowpt2 = [0] * m
    nesting = [0] * m
    out: list[list[int]] = [[] for _ in range(n + 1)]  # edges oriented away from v
    pos = [0] * (n + 1)
    roots = []

    def settle(e: int, v: int) -> None:
        # e leaves v and its subtree is done: fix its nesting depth and fold
        # its lowpoints into v's parent edge.
        nesting[e] = 2 * lowpt[e] + (lowpt2[e] < height[v])
        f = parent[v]
        if f != NONE:
            if lowpt[e] < lowpt[f]:
                lowpt2[f] = min(lowpt[f], lowpt2[e])
                lowpt[f] = lowpt[e]
            elif lowpt[e] > lowpt[f]:
                lowpt2[f] = min(lowpt2[f], lowpt[e])
            else:
                lowpt2[f] = min(lowpt2[f], lowpt2[e])

    for r in range(1, n + 1):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            row = inc[v]
            i = pos[v]
            while i < len(row):
                e = row[i]
                i += 1
                if src[e]:
                    continue
                w = ends[e] - v
                src[e], dst[e] = v, w
                out[v].append(e)
                lowpt[e] = lowpt2[e] = height[v]
                if height[w] < 0:  # tree edge
                    parent[w] = e
                    height[w] = height[v] + 1
                    stack.append(w)
                    break
                lowpt[e] = height[w]  # back edge
                settle(e, v)
            else:
                stack.pop()
                e = parent[v]
                if e != NONE:
                    settle(e, src[e])
            pos[v] = i

    # Phase 2: test for an LR partition. A conflict pair is a list
    # [left.low, left.high, right.low, right.high] of return edges.
    ordered = [sorted(es, key=nesting.__getitem__) for es in out]
    ref = [NONE] * (m + 1)
    side = [1] * (m + 1)
    lowpt_edge = [NONE] * (m + 1)
    bottom: list[Optional[list[int]]] = [None] * m  # top of S when e was reached
    S: list[list[int]] = []

    def conflicting(low: int, high: int, b: int) -> bool:
        return (low != NONE or high != NONE) and lowpt[high] > lowpt[b]

    def add_constraints(ei: int, e: int) -> bool:
        P = [NONE, NONE, NONE, NONE]
        while True:  # merge the return edges of ei into P.right
            Q = S.pop()
            if Q[0] != NONE or Q[1] != NONE:
                Q = [Q[2], Q[3], Q[0], Q[1]]
                if Q[0] != NONE or Q[1] != NONE:
                    return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] == NONE and P[3] == NONE:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into P.left
        while conflicting(S[-1][0], S[-1][1], ei) or conflicting(S[-1][2], S[-1][3], ei):
            Q = S.pop()
            if conflicting(Q[2], Q[3], ei):
                Q = [Q[2], Q[3], Q[0], Q[1]]
                if conflicting(Q[2], Q[3], ei):
                    return False
            ref[P[2]] = Q[3]
            if Q[2] != NONE:
                P[2] = Q[2]
            if P[0] == NONE and P[1] == NONE:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P[0] != NONE or P[1] != NONE or P[2] != NONE or P[3] != NONE:
            S.append(P)
        return True

    def lowest(P: list[int]) -> int:
        if P[0] == NONE and P[1] == NONE:
            return lowpt[P[2]]
        if P[2] == NONE and P[3] == NONE:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e: int) -> None:
        u = src[e]
        while S and lowest(S[-1]) == height[u]:  # drop pairs returning to u
            P = S.pop()
            if P[0] != NONE:
                side[P[0]] = -1
        if S:  # trim the next pair's intervals
            P = S[-1]
            while P[1] != NONE and dst[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] == NONE and P[0] != NONE:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = NONE
            while P[3] != NONE and dst[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] == NONE and P[2] != NONE:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = NONE
        if lowpt[e] < height[u]:  # e's side is that of a highest return edge
            hl, hr = S[-1][1], S[-1][3]
            if hl != NONE and (hr == NONE or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    def integrate(ei: int, v: int) -> bool:
        # ei leaves v and its subtree is tested: add its return edges
        if lowpt[ei] < height[v]:
            if ei == ordered[v][0]:
                lowpt_edge[parent[v]] = lowpt_edge[ei]
            elif not add_constraints(ei, parent[v]):
                return False
        return True

    pos = [0] * (n + 1)
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            row = ordered[v]
            i = pos[v]
            while i < len(row):
                ei = row[i]
                i += 1
                bottom[ei] = S[-1] if S else None
                w = dst[ei]
                if parent[w] == ei:  # tree edge
                    stack.append(w)
                    break
                lowpt_edge[ei] = ei
                S.append([NONE, NONE, ei, ei])
                if not integrate(ei, v):
                    return None
            else:
                stack.pop()
                e = parent[v]
                if e != NONE:
                    remove_back_edges(e)
                    if not integrate(e, src[e]):
                        return None
            pos[v] = i

    # Phase 3: resolve relative sides to absolute ones and re-sort.
    for e in range(m):
        chain = []
        x = e
        while ref[x] != NONE:
            chain.append(x)
            x = ref[x]
        s = side[x]
        for y in reversed(chain):
            s *= side[y]
            side[y] = s
            ref[y] = NONE
        if side[e] < 0:
            nesting[e] = -nesting[e]
    ordered = [sorted(es, key=nesting.__getitem__) for es in out]

    # Phase 4: embed. Dart 2e runs src -> dst, dart 2e + 1 back; cw/ccw
    # link the darts leaving one vertex, and first[v] starts its rotation.
    cw = [0] * (2 * m)
    ccw = [0] * (2 * m)
    first = [-1] * (n + 1)
    for v in range(1, n + 1):
        ds = [2 * e for e in ordered[v]]
        if ds:
            first[v] = ds[0]
            for a, b in zip(ds, ds[1:] + ds[:1]):
                cw[a] = b
                ccw[b] = a
    left_ref = [0] * (n + 1)
    right_ref = [0] * (n + 1)

    def insert_ccw_of(d: int, ref_dart: int) -> None:
        p = ccw[ref_dart]
        cw[p], ccw[d], cw[d], ccw[ref_dart] = d, p, ref_dart, d

    pos = [0] * (n + 1)
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            row = ordered[v]
            while pos[v] < len(row):
                e = row[pos[v]]
                pos[v] += 1
                w = dst[e]
                d = 2 * e + 1  # the half-edge w -> v
                if parent[w] == e:  # tree edge: v becomes w's first neighbour
                    if first[w] < 0:
                        cw[d] = ccw[d] = d
                    else:
                        insert_ccw_of(d, first[w])
                    first[w] = d
                    left_ref[v] = right_ref[v] = 2 * e
                    stack.append(v)
                    stack.append(w)
                    break
                if side[e] == 1:  # right: just clockwise of right_ref[w]
                    insert_ccw_of(d, cw[right_ref[w]])
                else:  # left: just counter-clockwise of left_ref[w]
                    if first[w] == left_ref[w]:
                        first[w] = d
                    insert_ccw_of(d, left_ref[w])
                    left_ref[w] = d

    rotation = {}
    for v in range(1, n + 1):
        rot = []
        d = first[v]
        if d >= 0:
            while True:
                e = d >> 1
                rot.append(src[e] if d & 1 else dst[e])
                d = cw[d]
                if d == first[v]:
                    break
        rotation[v] = rot
    return rotation


def derived_graph(
    rotation: Mapping[int, Sequence[int]], keep: Sequence[int], walk: Iterable[Dart] = ()
) -> tuple[PlaneGraph, dict[int, int]]:
    """The graph an edit that keeps a plane graph plane leaves, and its old->new map.

    `rotation` is the edited rotation in old ids and `keep` the kept
    vertices in ascending order: they become 1..k, and neighbours not kept
    are dropped. The outer dart is the first dart of `walk` (the old outer
    face, in old ids) whose ends are kept and distinct, else the default
    pick. Nothing is checked: the edit is trusted to keep the rotation
    symmetric and of genus 0, and the faces are traced on their first read.
    """
    remap = {old: new for new, old in enumerate(keep, start=1)}
    g = PlaneGraph.__new__(PlaneGraph)
    g.n = len(keep)
    g.rotation = {remap[v]: tuple(remap[w] for w in rotation[v] if w in remap) for v in keep}
    g.edges = _dart_edges(g.rotation)
    g._outer_dart = next(
        ((remap[u], remap[v]) for u, v in walk if u != v and u in remap and v in remap), None
    )
    g._faces = None
    return g, remap


def delete_vertices(g: PlaneGraph, doomed: Iterable[int]) -> tuple[PlaneGraph, dict[int, int]]:
    """Remove vertices, re-index densely, and return (graph, old->new map)."""
    doomed_set = set(doomed)
    keep = [v for v in g.vertices if v not in doomed_set]
    return derived_graph(g.rotation, keep, g.faces()[g.outer_face()] if g.edges else ())


# -- geometric builder (used by ring-shaped showcase hosts) ------------------


def plane_graph_from_points(
    points: dict[int, tuple[float, float]],
    edges: Iterable[Edge],
) -> PlaneGraph:
    """Plane graph from straight-line coordinates: rotations by clockwise angle.

    The caller guarantees the drawing is crossing-free; the Euler check
    rejects anything else.
    """
    n = max(points)
    if set(points) != set(range(1, n + 1)):
        raise PlaneGraphError("point ids must be dense 1..n")
    edge_set = {norm_edge(u, v) for u, v in edges}
    edge_list = sorted(edge_set)
    _check_edges(n, edge_list)  # before the rotation is built from the ids
    nbrs: dict[int, list[int]] = {v: [] for v in points}
    for u, v in edge_list:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rotation = {}
    for v, lst in nbrs.items():
        x0, y0 = points[v]
        lst.sort(key=lambda w: -math.atan2(points[w][1] - y0, points[w][0] - x0))
        rotation[v] = lst
    if not edge_list:
        return PlaneGraph(n, edge_set, rotation, None)
    # The +x ray from the rightmost (then topmost) point lies in the
    # unbounded face. That point's rotation runs clockwise by falling angle,
    # so the face's corner there ends at the first neighbour below the ray,
    # or wraps round to the first neighbour when none is below it.
    ext = max(points, key=lambda v: (points[v][0], points[v][1]))
    if not rotation[ext]:
        raise PlaneGraphError("extreme point is isolated; cannot pick outer face")
    x0, y0 = points[ext]
    below = [w for w in rotation[ext] if math.atan2(points[w][1] - y0, points[w][0] - x0) < 0]
    return PlaneGraph(n, edge_set, rotation, (ext, (below or rotation[ext])[0]))

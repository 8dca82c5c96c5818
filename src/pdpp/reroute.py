"""Constructive rerouting: boundary patterns in grids, disk untangling, and
linkage improvement over tilted grids.

`route_pattern` realizes a non-crossing boundary matching inside a square
grid with the explicit staircase construction (down/right/up for side edges,
rank-staggered descents for crossing edges). `untangle_disk` replaces the
lines of a vertical crossing by fewer non-crossing chords and returns each
path's route: its kept outside pieces joined by its chords.
`improve_over_tilted_grid` composes the two: it routes the chords' pattern
in the representation grid and walks each route, lifting each chord by
sliding along the tilted grid's own paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .clconfig import (
    ConfigError,
    TiltedGrid,
    _outside_pieces,
    _vertex_spans,
    perimeter_cycle,
    verify_tilted_grid,
)
from .oracle import Linkage
from .plane import (
    Budget,
    BudgetExceeded,
    CheckResult,
    DiskRegion,
    PlaneGraph,
    TopologicalMinorModel,
    closed_interior,
    grid_vertex,
    make_grid,
    path_edges,
    verify_topological_minor,
)

Label = tuple[str, int]  # ("up" | "down", column)


class PatternError(ValueError):
    """Boundary pattern violates the routing preconditions."""


@dataclass(frozen=True)
class BoundaryPattern:
    """1-regular matching on the labels up_1..up_k, down_1..down_k.

    Valid patterns are non-crossing with respect to the boundary order
    up_1..up_k, down_k..down_1 (equivalently: adding the consecutive
    boundary edges keeps the graph outerplanar), and every same-side edge
    spans an odd column gap so its length (|i-j|+1)/2 is an integer.
    """

    k: int
    edges: frozenset[frozenset[Label]]

    def __post_init__(self):
        seen: set[Label] = set()
        for e in self.edges:
            if len(e) != 2:
                raise PatternError(f"pattern edge {set(e)} is not a pair")
            for side, i in e:
                if side not in ("up", "down") or not 1 <= i <= self.k:
                    raise PatternError(f"bad label {(side, i)}")
                if (side, i) in seen:
                    raise PatternError(f"label {(side, i)} matched twice")
                seen.add((side, i))

    def is_perfect(self) -> bool:
        return len(self.edges) == self.k

    def covered(self) -> frozenset[Label]:
        return frozenset(l for e in self.edges for l in e)


def _boundary_position(label: Label, k: int) -> int:
    """Position along the cyclic order up_1..up_k, down_k..down_1."""
    side, i = label
    return i - 1 if side == "up" else 2 * k - i


def validate_pattern(p: BoundaryPattern) -> None:
    """Reject crossing pairs and even-gap side edges, naming the offender."""
    k = p.k
    intervals = []
    for e in p.edges:
        a, b = sorted(_boundary_position(l, k) for l in e)
        intervals.append((a, b, e))
    for (a1, b1, e1), (a2, b2, e2) in itertools.combinations(intervals, 2):
        if (a1 < a2 < b1 < b2) or (a2 < a1 < b2 < b1):
            raise PatternError(f"edges {set(e1)} and {set(e2)} cross")
    for e in p.edges:
        (s1, i), (s2, j) = sorted(e)
        if s1 == s2 and (abs(i - j) % 2) == 0:
            raise PatternError(
                f"same-side edge {set(e)} has even gap; length (|i-j|+1)/2 "
                "is not an integer"
            )


def _pin(g: PlaneGraph, k: int, label: Label) -> int:
    side, i = label
    row = 1 if side == "up" else k
    return grid_vertex(k, k, row, i)


def route_pattern(k: int, pattern: BoundaryPattern) -> TopologicalMinorModel:
    """Vertex-disjoint paths in the k x k grid realizing the pattern.

    Side edges use the (l-1, 2l-1, l-1) staircase at their nesting depth;
    crossing edges descend, jog at a rank-staggered middle row, and descend
    again. Partial matchings (unmatched labels allowed) route the same way
    with the jog rows packed below the deepest side staircase.
    """
    if pattern.k != k:
        raise PatternError(f"pattern is for side {pattern.k}, not {k}")
    validate_pattern(pattern)
    g = make_grid(k, k)
    same_side: dict[str, list] = {"up": [], "down": []}
    crossing = []
    for e in pattern.edges:
        (sa, ia), (sb, ib) = sorted(e)
        if sa == sb:
            same_side[sa].append((min(ia, ib), max(ia, ib), e))
        else:  # sorted puts down before up
            crossing.append((ib, ia, e))
    b_c = len(crossing)
    q = max(len(edges) for edges in same_side.values())
    if 2 * q + b_c > k:
        raise PatternError(
            f"pattern needs {2 * q + b_c} rows but the grid has only {k}"
        )

    def depth(pairs, a, b) -> int:
        return 1 + max(
            (depth(pairs, a2, b2) for a2, b2, _ in pairs if a < a2 and b2 < b),
            default=0,
        )

    phi1: dict[frozenset[Label], tuple[int, ...]] = {}

    def realize(coords: list[tuple[int, int]]) -> tuple[int, ...]:
        return tuple(grid_vertex(k, k, r, c) for r, c in coords)

    # a down staircase is the up one with row r mapped to k + 1 - r
    for side, edges in same_side.items():
        for i, j, e in edges:
            l = (j - i + 1) // 2 if pattern.is_perfect() else depth(edges, i, j)
            coords = (
                [(r, i) for r in range(1, l + 1)]
                + [(l, c) for c in range(i + 1, j + 1)]
                + [(r, j) for r in range(l - 1, 0, -1)]
            )
            if side == "down":
                coords = [(k + 1 - r, c) for r, c in coords]
            phi1[e] = realize(coords)
    cross_up_cols = sorted(u for u, _, _ in crossing)
    for up_i, down_j, e in crossing:
        rank = cross_up_cols.index(up_i) + 1
        stretch = down_j - up_i
        if stretch >= 0:
            jog = 1 + q + b_c - rank
            cols = range(up_i + 1, down_j + 1)
        else:
            jog = 1 + q + rank - 1
            cols = range(up_i - 1, down_j - 1, -1)
        coords = (
            [(r, up_i) for r in range(1, jog + 1)]
            + [(jog, c) for c in cols]
            + [(r, down_j) for r in range(jog + 1, k + 1)]
        )
        if len(coords) <= 1:
            raise PatternError(f"degenerate crossing edge {set(e)}")
        phi1[e] = realize(coords)

    phi0 = {label: _pin(g, k, label) for label in pattern.covered()}
    model = TopologicalMinorModel(phi0, phi1)
    check = verify_route(k, pattern, model)
    if not check:
        raise PatternError(f"internal: routing failed verification: {check.problems[:3]}")
    return model


def verify_route(k: int, pattern: BoundaryPattern, model: TopologicalMinorModel) -> CheckResult:
    """Independent check: paths in-grid, pinned, pairwise internally disjoint."""
    g = make_grid(k, k)
    problems: list[str] = []
    for e in pattern.edges:
        path = model.phi1.get(e)
        if path is None:
            problems.append(f"missing path for {set(e)}")
            continue
        ends = {path[0], path[-1]}
        want = {_pin(g, k, l) for l in e}
        if ends != want:
            problems.append(f"path for {set(e)} not pinned to {want}")
    base = verify_topological_minor(g, model, [tuple(e) for e in pattern.edges])
    if not base:
        problems.extend(base.problems)
    return CheckResult(not problems, tuple(problems))


def _noncrossing_matchings(points, size: int):
    """Non-crossing matchings of exactly `size` pairs on points in cyclic order.

    Each matching is a tuple of sorted pairs, and they come in lexicographic
    order of those tuples: the least matched point rises in id order, then
    its partner, and the other pairs recurse on the larger points. A chord
    splits its region of the cycle in two, and a branch is entered only when
    the regions left can still hold the pairs it needs, so each matching
    costs polynomial work.
    """

    def rec(regions: list[tuple], need: int):
        if need == 0:
            yield ()
            return
        for a in sorted(p for region in regions for p in region):
            # the points below a stay unmatched
            regions = [tuple(p for p in region if p >= a) for region in regions]
            if sum(len(region) // 2 for region in regions) < need:
                return
            (home,) = (region for region in regions if a in region)
            rest = [region for region in regions if region is not home]
            i = home.index(a)
            for b in sorted(home[:i] + home[i + 1 :]):
                lo, hi = sorted((i, home.index(b)))
                split = [*rest, home[lo + 1 : hi], home[hi + 1 :] + home[:lo]]
                if sum(len(region) // 2 for region in split) >= need - 1:
                    for tail in rec(split, need - 1):
                        yield ((a, b), *tail)

    yield from rec([tuple(points)], size)


def all_boundary_patterns(k: int):
    """Every valid perfect pattern on grid side k (non-crossing matchings).

    Each is valid: a chord of a non-crossing perfect matching leaves an even
    number of labels on either side, so a same-side edge has an odd gap.
    """
    order = [("up", i) for i in range(1, k + 1)] + [
        ("down", i) for i in range(k, 0, -1)
    ]
    for matching in _noncrossing_matchings(order, k):
        yield BoundaryPattern(k, frozenset(frozenset(pair) for pair in matching))


# -- vertical crossings and untangling --------------------------------------------------


@dataclass(frozen=True)
class VerticalCrossing:
    """Lines of a linkage stacked across a disk, with up/down boundary ends."""

    disk: DiskRegion
    lines: tuple[tuple[int, ...], ...]  # ordered from the first simplicial face
    up: tuple[int, ...]  # up boundary endpoint of lines[i]
    down: tuple[int, ...]


def vertical_crossing(g: PlaneGraph, linkage: Linkage, disk: DiskRegion) -> VerticalCrossing:
    """Classify the linkage's trace on the disk, or raise ConfigError.

    The components of linkage-on-disk must be boundary-to-boundary paths
    whose endpoints stack along the boundary cycle (palindromic endpoint
    order), i.e. the chord structure has exactly two simplicial faces.
    """
    boundary = disk.cycle
    bverts = boundary.vertex_set
    lines: list[tuple[int, ...]] = []
    for path in linkage.paths:
        for a, b in _vertex_spans(path, disk.vertices.__contains__, disk.edges.__contains__):
            piece = tuple(path[a : b + 1])
            if piece[0] not in bverts or piece[-1] not in bverts:
                raise ConfigError(f"disk trace {piece} does not join boundary points")
            lines.append(piece)
    if not lines:
        raise ConfigError("linkage does not meet the disk")
    # read endpoint labels around the boundary
    occupied: dict[int, int] = {}
    for idx, piece in enumerate(lines):
        for v in (piece[0], piece[-1]):
            if v in occupied and len(piece) > 1:
                raise ConfigError(f"two lines share boundary point {v}")
            occupied[v] = idx
    seq = [occupied[v] for v in boundary.vertices if v in occupied]
    if len(seq) != 2 * len(lines):
        # single-vertex lines contribute one boundary point twice
        raise ConfigError("boundary endpoints do not pair up")
    n = len(lines)
    for shift in range(2 * n):
        rot = seq[shift:] + seq[:shift]
        first, second = rot[:n], rot[n:]
        if sorted(first) == list(range(n)) and first == list(reversed(second)):
            order = first
            # boundary vertices in the same rotation
            pts = [v for v in boundary.vertices if v in occupied]
            pts = pts[shift:] + pts[:shift]
            up_of = {order[i]: pts[i] for i in range(n)}
            down_of = {second[i]: pts[n + i] for i in range(n)}
            ordered_lines = tuple(lines[i] for i in order)
            up = tuple(up_of[i] for i in order)
            down = tuple(down_of[i] for i in order)
            return VerticalCrossing(disk, ordered_lines, up, down)
    raise ConfigError("lines do not stack: the crossing is not vertical")


@dataclass(frozen=True)
class Untangling:
    """Chords that replace a disk's trace, and each path's route through them.

    A route runs between the path's terminals through its kept outside
    pieces, each chord taken as a single step between its two ends.
    """

    chords: tuple[tuple[int, int], ...]  # non-crossing boundary connections
    routes: tuple[tuple[int, ...], ...]  # one per linkage path, in its order


def untangle_disk(
    g: PlaneGraph,
    linkage: Linkage,
    disk: DiskRegion,
    k: int,
    budget: int = 200_000,
) -> Optional[Untangling]:
    """Replace the disk trace by fewer non-crossing chords, or None.

    Tries the non-crossing matchings of fewer than r chords on the r lines'
    boundary ends, fewest chords first and then lexicographically by vertex
    id. A matching is accepted when the strictly-outside pieces and its
    chords join every path's terminals to each other and cross every chord;
    the routes are those joining walks. One budget unit is one matching
    tried: None means no matching of fewer than r chords untangles the
    disk, and a search that needs more than `budget` matchings raises
    BudgetExceeded instead.
    """
    crossing = vertical_crossing(g, linkage, disk)
    r = len(crossing.lines)
    if len(linkage.paths) != k:
        raise ConfigError(f"linkage has {len(linkage.paths)} paths, caller said {k}")
    if r <= 2 ** k:
        raise ConfigError(f"need more than 2^{k} lines, got {r}")
    attach_points = set(crossing.up) | set(crossing.down)
    boundary_pts = [v for v in disk.cycle.vertices if v in attach_points]
    # vertical_crossing rejects a bounce (a one-vertex line), so each line end
    # ends at most one outside piece, and so does each terminal; the chords
    # are a matching, so pieces and chords make vertex-disjoint paths and
    # cycles, and the walk from a terminal, alternating pieces and chords,
    # is forced. piece_from[v] is v's piece read from v.
    piece_from: dict[int, tuple[int, ...]] = {}
    for path in linkage.paths:
        for piece in _outside_pieces(path, disk):
            piece_from[piece[0]] = piece
            piece_from[piece[-1]] = piece[::-1]

    def walk(v: int, partner: dict[int, int]):
        """The forced walk from v, each chord one step, and its chord count."""
        route, crossed, on_piece = [v], 0, v in piece_from
        while v in (piece_from if on_piece else partner):
            if on_piece:
                route += piece_from[v][1:]
            else:
                route.append(partner[v])
                crossed += 1
            v = route[-1]
            on_piece = not on_piece
        return tuple(route), crossed

    tried = Budget(budget, lambda: BudgetExceeded(f"over {budget} matchings tried untangling"))
    for size in range(r):
        for chords in _noncrossing_matchings(boundary_pts, size):
            tried.spend()
            partner = dict(chords) | {b: a for a, b in chords}
            walks = [walk(path[0], partner) for path in linkage.paths]
            joined = all(route[-1] == path[-1] for (route, _), path in zip(walks, linkage.paths))
            if joined and sum(crossed for _, crossed in walks) == size:
                return Untangling(chords, tuple(route for route, _ in walks))
    return None


# -- improvement over tilted grids --------------------------------------------------------


class ImprovementError(ConfigError):
    pass


def _slide(line: tuple[int, ...], v: int, cell) -> tuple[int, ...]:
    """The vertices of `line` after v up to the nearest one in `cell`."""
    i = line.index(v)
    t = min((t for t, w in enumerate(line) if w in cell), key=lambda t: abs(t - i))
    return line[i + 1 : t + 1] if t >= i else line[t:i][::-1]


def improve_over_tilted_grid(
    g: PlaneGraph, linkage: Linkage, u: TiltedGrid, budget: int = 200_000
) -> Optional[Linkage]:
    """Equivalent linkage with strictly fewer Z-family edges, or None.

    Requires the grid to be linkage-tidy with capacity above 2^(number of
    paths); composes untangling on the real disk with the staircase routing
    on the representation grid. Each new path walks its untangling route
    and lifts each chord on it: every step of the chord's routing slides
    along the step's row X_i or column Z_j to the next intersection.
    None means the disk has no untangling; the untangling's BudgetExceeded
    passes through.
    """
    k = len(linkage.paths)
    m = u.capacity
    if m <= 2 ** k:
        raise ImprovementError(f"capacity {m} is not above 2^{k}")
    # a tidy grid's intersections are non-empty and lie in order along both
    # of their paths, each a subpath of both, so every slide below is defined
    check = verify_tilted_grid(g, u, linkage)
    if not check:
        raise ImprovementError(f"tilted grid is not tidy: {check.problems[:2]}")
    disk = closed_interior(g, perimeter_cycle(u))
    untangled = untangle_disk(g, linkage, disk, k, budget=budget)
    if untangled is None:
        return None
    # label boundary host vertices by the grid's own orientation:
    # Z_j's endpoint on X_1 is up_j, its endpoint on X_m is down_j
    label_of: dict[int, Label] = {}
    for j, zp in enumerate(u.z_paths, start=1):
        top_cell, _ = u.intersection(1, j)
        bot_cell, _ = u.intersection(m, j)
        top = zp[0] if zp[0] in top_cell else zp[-1]
        bot = zp[-1] if zp[-1] in bot_cell else zp[0]
        if top not in top_cell or bot not in bot_cell or top == bot:
            raise ImprovementError(f"Z path {j} does not join the two extreme rows")
        label_of[top] = ("up", j)
        label_of[bot] = ("down", j)
    pattern_edges = frozenset(
        frozenset({label_of[a], label_of[b]}) for a, b in untangled.chords
    )
    model = route_pattern(m, BoundaryPattern(m, pattern_edges))
    coords = {grid_vertex(m, m, r, c): (r, c) for r in range(1, m + 1) for c in range(1, m + 1)}

    def lift(a: int, b: int) -> list[int]:
        """The host path of chord a -> b: its pattern edge's routing from a's
        pin, each step slid along X_i if it keeps row i and along Z_j if it
        keeps column j, then a last slide along X_i, inside the last
        intersection, to b."""
        rep = model.phi1[frozenset({label_of[a], label_of[b]})]
        if rep[0] != model.phi0[label_of[a]]:
            rep = rep[::-1]
        cells = [coords[v] for v in rep]
        path = [a]
        for (r1, c1), (r2, c2) in zip(cells, cells[1:]):
            line = u.x_paths[r1 - 1] if r1 == r2 else u.z_paths[c1 - 1]
            path += _slide(line, path[-1], u.intersection(r2, c2)[0])
        path += _slide(u.x_paths[cells[-1][0] - 1], path[-1], {b})
        return path

    partner = dict(untangled.chords) | {b: a for a, b in untangled.chords}
    new_paths = []
    for route in untangled.routes:
        path = [route[0]]
        for a, b in zip(route, route[1:]):
            # a step joining a chord's two ends is that chord: a piece joining
            # them too would close a cycle with it, which no walk from a
            # terminal enters
            path += lift(a, b)[1:] if partner.get(a) == b else [b]
        new_paths.append(tuple(path))
    new_linkage = Linkage(tuple(new_paths))
    if new_linkage.pattern != linkage.pattern:
        raise ImprovementError("rerouted linkage changed the pattern")
    new_linkage.check_in(g)
    z_edges = frozenset().union(*(path_edges(p) for p in u.z_paths))
    before = len(z_edges & linkage.edges)
    after = len(z_edges & new_linkage.edges)
    if after >= before:
        raise ImprovementError(f"Z-edge count did not drop ({before} -> {after})")
    return new_linkage

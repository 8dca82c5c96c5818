"""Ring-structured hosts and showcase configurations for tests and the CLI.

`ring_lattice` builds polar-grid plane graphs (rings x sectors, full spokes).
`nested_chord_showcase` constructs a depth-7 configuration of 24 segments
whose segment tree has 11 leaves, height 8, real height 4, dilation 4, and
whose parallelism relation has 19 classes; the layout nests chord paths in
angular intervals so each region of the tree is realized exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .clconfig import CLConfiguration
from .concentric import make_concentric
from .oracle import Linkage
from .plane import Cycle, PlaneGraph, plane_graph_from_points


def ring_lattice(
    rings: int,
    sectors: int,
    spokes: Optional[Callable[[int, int], bool]] = None,
    ring_edges: Optional[Callable[[int], bool]] = None,
) -> tuple[PlaneGraph, Callable[[int, int], int]]:
    """Polar grid: `rings` concentric cycles of `sectors` vertices plus spokes.

    `spokes(ring, sector)` filters radial edges between ring and ring+1;
    `ring_edges(ring)` filters whole rings. Returns the graph and an
    (ring, sector) -> vertex id lookup.
    """
    if rings < 1 or sectors < 3:
        raise ValueError("need rings >= 1 and sectors >= 3")

    def vid(ring: int, sector: int) -> int:
        return ring * sectors + (sector % sectors) + 1

    points = _ring_points(rings, sectors, vid)
    edges = []
    for ring in range(rings):
        if ring_edges is None or ring_edges(ring):
            for s in range(sectors):
                edges.append((vid(ring, s), vid(ring, s + 1)))
    for ring in range(rings - 1):
        for s in range(sectors):
            if spokes is None or spokes(ring, s):
                edges.append((vid(ring, s), vid(ring + 1, s)))
    return plane_graph_from_points(points, edges), vid


def _ring_points(rings: int, sectors: int, vid: Callable[[int, int], int]) -> dict:
    """Each lattice vertex's point: ring r at radius 1 + r, sectors evenly spaced."""
    points = {}
    for ring in range(rings):
        radius = 1.0 + ring
        for s in range(sectors):
            angle = 2 * math.pi * s / sectors
            points[vid(ring, s)] = (radius * math.cos(angle), radius * math.sin(angle))
    return points


def ring_cycle(vid: Callable[[int, int], int], ring: int, sectors: int) -> Cycle:
    return Cycle(tuple(vid(ring, s) for s in range(sectors)))


# -- the showcase configuration ------------------------------------------------------


@dataclass
class _Chord:
    """A chord descriptor: dip eccentricity plus nested children."""

    ecc: int
    children: list  # of _Chord or _Extremal


@dataclass
class _Extremal:
    pass


def _showcase_tree() -> _Chord:
    """Root-region children; eccentricities follow the chain depths."""
    e_chain = _Chord(4, [_Chord(5, [_Chord(6, [_Extremal()])])])
    g1 = _Chord(6, [_Extremal(), _Extremal()])
    d_chain = _Chord(2, [_Chord(3, [e_chain, g1])])
    f1 = _Chord(6, [_Extremal(), _Extremal()])
    f2 = _Chord(6, [_Extremal(), _Extremal()])
    c_chain = _Chord(0, [_Chord(1, [d_chain, f1, f2])])
    j1 = _Chord(6, [_Extremal(), _Extremal()])
    j2 = _Chord(6, [_Extremal(), _Extremal()])
    i_branch = _Chord(5, [j1, j2])
    return _Chord(-1, [c_chain, i_branch])


def _width(node) -> int:
    if isinstance(node, _Extremal):
        return 2
    inner = sum(_width(ch) for ch in node.children) + (len(node.children) + 1)
    return inner + 2


def nested_chord_showcase() -> CLConfiguration:
    """Depth-7 configuration with the documented segment-tree metrics."""
    root = _showcase_tree()
    sectors = sum(_width(ch) for ch in root.children) + len(root.children)
    depth = 7
    g, vid = ring_lattice(depth + 2, sectors)

    paths: list[tuple[int, ...]] = []

    def chord_path(ecc: int, a: int, b: int) -> tuple[int, ...]:
        seq = [vid(depth + 1, a)]
        for ring in range(depth, ecc - 1, -1):
            seq.append(vid(ring, a))
        for s in range(a + 1, b + 1):
            seq.append(vid(ecc, s))
        for ring in range(ecc + 1, depth + 1):
            seq.append(vid(ring, b))
        seq.append(vid(depth + 1, b))
        return tuple(seq)

    def place(node, lo: int) -> None:
        """Lay out `node` (chord or extremal) starting at sector `lo`."""
        if isinstance(node, _Extremal):
            paths.append(
                (
                    vid(depth + 1, lo),
                    vid(depth, lo),
                    vid(depth, lo + 1),
                    vid(depth + 1, lo + 1),
                )
            )
            return
        hi = lo + _width(node) - 1
        paths.append(chord_path(node.ecc, lo, hi))
        cursor = lo + 2  # skip own endpoint plus one gap
        for ch in node.children:
            place(ch, cursor)
            cursor += _width(ch) + 1

    cursor = 1
    for ch in root.children:
        place(ch, cursor)
        cursor += _width(ch) + 1

    cycles = make_concentric(
        g, [ring_cycle(vid, ring, sectors) for ring in range(depth + 1)]
    )
    return CLConfiguration(g, cycles, Linkage(tuple(paths)))


# -- small tightness fixtures ----------------------------------------------------------


def shortcut_annulus_host(sectors: int = 6):
    """Three rings plus a detour vertex hanging inside the outer annulus.

    The detour joins two ring-2 vertices, so a cycle avoiding the inner
    discs slips between rings 1 and 2: the plain three-ring family is not
    tight here.
    """
    g0, vid = ring_lattice(3, sectors)
    points = _ring_points(3, sectors, vid)
    extra = max(points) + 1
    ang = 2 * math.pi * 0.5 / sectors
    points[extra] = (2.5 * math.cos(ang), 2.5 * math.sin(ang))
    edges = list(g0.edges) + [(vid(2, 0), extra), (extra, vid(2, 1))]
    g = plane_graph_from_points(points, edges)
    return g, vid, extra

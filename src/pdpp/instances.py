"""Instance and solution file formats plus random instance generators.

Instance format (UTF-8 text, one record per line, '#' starts a comment):

    p dpp <n> <m> <k>
    e <u> <v>                         m lines, 1 <= u < v <= n
    rot <v> <d> <w1> ... <wd>         optional clockwise neighbor lists
    outer <u> <v>                     optional dart on the unbounded face
    t <s> <t>                         k lines; order defines the pair index

Solution format:

    s dpp yes|no
    path <i> <v1> ... <vl>            present iff yes, i = 1..k
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .plane import (
    Dart,
    Edge,
    PlaneGraph,
    PlaneGraphError,
    bfs_distances,
    make_grid,
    norm_edge,
    plane_graph_from_edges,
)


class ParseError(ValueError):
    """Malformed instance or solution text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class DppInstance:
    graph: PlaneGraph
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.pairs) < 1:
            raise PlaneGraphError("an instance needs at least one terminal pair")
        terminals = [v for pair in self.pairs for v in pair]
        if len(set(terminals)) != len(terminals):
            raise PlaneGraphError("terminals are not pairwise distinct")
        for v in terminals:
            if not 1 <= v <= self.graph.n:
                raise PlaneGraphError(f"terminal {v} is not a vertex")

    @property
    def k(self) -> int:
        return len(self.pairs)

    def terminals(self) -> frozenset[int]:
        return frozenset(v for pair in self.pairs for v in pair)


@dataclass(frozen=True)
class Solution:
    paths: tuple[tuple[int, ...], ...]


# -- parsing -----------------------------------------------------------------


def _records(text: str | bytes):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _ints(lineno: int, fields: list[str], what: str) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ParseError(lineno, f"non-integer value in {what} record")


# the record kind a non-integer value is reported in, by record tag
_KIND = {"p": "problem", "e": "edge", "rot": "rotation", "outer": "outer", "t": "terminal"}


def parse_instance(text: str | bytes) -> DppInstance:
    """Read an instance in one pass over its lines.

    A bad record is reported at its line; a fault of the graph as a whole,
    found when `PlaneGraph` validates it (once), at the problem line.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = m = k = -1
    header_line = lineno = 0
    tag = ""
    edges: set[Edge] = set()
    rot: dict[int, tuple[int, ...]] = {}
    outer: Dart | None = None
    pairs: list[tuple[int, int]] = []
    terminals: set[int] = set()
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            fields = raw.partition("#")[0].split()
            if not fields:
                continue
            tag = fields[0]
            if tag == "p":
                if n >= 0:
                    raise ParseError(lineno, "duplicate problem line")
                if len(fields) != 5 or fields[1] != "dpp":
                    raise ParseError(lineno, "expected 'p dpp <n> <m> <k>'")
                n, m, k = map(int, fields[2:])
                if n < 1 or m < 0 or k < 1:
                    raise ParseError(lineno, f"bad sizes n={n} m={m} k={k}")
                header_line = lineno
            elif n < 0:
                raise ParseError(lineno, "record before the problem line")
            elif tag == "e":
                if len(fields) != 3:
                    raise ParseError(lineno, "expected 'e <u> <v>'")
                u, v = int(fields[1]), int(fields[2])
                if not (1 <= u <= n and 1 <= v <= n) or u == v:
                    raise ParseError(lineno, f"bad edge ({u},{v})")
                e = norm_edge(u, v)
                if e in edges:
                    raise ParseError(lineno, f"duplicate edge ({u},{v})")
                edges.add(e)
            elif tag == "rot":
                vals = tuple(map(int, fields[1:]))
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
                outer = (int(fields[1]), int(fields[2]))
            elif tag == "t":
                if len(fields) != 3:
                    raise ParseError(lineno, "expected 't <s> <t>'")
                s, t = int(fields[1]), int(fields[2])
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
    except ParseError:
        raise
    except ValueError:  # only int() raises one here
        raise ParseError(lineno, f"non-integer value in {_KIND[tag]} record") from None
    if n < 0:
        raise ParseError(1, "missing problem line")
    if len(edges) != m:
        raise ParseError(header_line, f"declared {m} edges, found {len(edges)}")
    if len(pairs) != k:
        raise ParseError(header_line, f"declared {k} pairs, found {len(pairs)}")
    if rot and len(rot) < n:
        ends = {v for e in edges for v in e}
        missing = [v for v in range(1, n + 1) if v not in rot and v in ends]
        if missing:
            raise ParseError(
                header_line,
                f"rotation given for some vertices but missing for {missing[:5]}",
            )
    try:
        # PlaneGraph gives a vertex without a rot line the empty rotation
        graph = plane_graph_from_edges(n, edges, rot or None, outer)
        return DppInstance(graph, tuple(pairs))
    except PlaneGraphError as exc:
        raise ParseError(header_line or 1, str(exc))


def write_instance(inst: DppInstance) -> str:
    g = inst.graph
    out = [f"p dpp {g.n} {g.m} {inst.k}"]
    for u, v in sorted(g.edges):
        out.append(f"e {u} {v}")
    for v in g.vertices:
        rot = g.rotation[v]
        if rot:
            out.append(f"rot {v} {len(rot)} " + " ".join(map(str, rot)))
    if g.outer_dart is not None:
        out.append(f"outer {g.outer_dart[0]} {g.outer_dart[1]}")
    for s, t in inst.pairs:
        out.append(f"t {s} {t}")
    return "\n".join(out) + "\n"


def parse_solution(text: str | bytes) -> Solution | None:
    """Parse a solution stream; returns None for a NO answer."""
    answer: str | None = None
    paths: dict[int, tuple[int, ...]] = {}
    for lineno, fields in _records(text):
        if fields[0] == "s":
            if answer is not None:
                raise ParseError(lineno, "duplicate solution line")
            if len(fields) != 3 or fields[1] != "dpp" or fields[2] not in ("yes", "no"):
                raise ParseError(lineno, "expected 's dpp yes|no'")
            answer = fields[2]
        elif fields[0] == "path":
            vals = _ints(lineno, fields[1:], "path")
            if len(vals) < 2:
                raise ParseError(lineno, "expected 'path <i> <v1> ...'")
            i = vals[0]
            if i in paths:
                raise ParseError(lineno, f"duplicate path index {i}")
            paths[i] = tuple(vals[1:])
        else:
            raise ParseError(lineno, f"unknown record '{fields[0]}'")
    if answer is None:
        raise ParseError(1, "missing solution line")
    if answer == "no":
        if paths:
            raise ParseError(1, "NO answer must not carry paths")
        return None
    if sorted(paths) != list(range(1, len(paths) + 1)):
        raise ParseError(1, f"path indices {sorted(paths)} are not 1..k")
    return Solution(tuple(paths[i] for i in range(1, len(paths) + 1)))


def write_solution(sol: Solution | None) -> str:
    if sol is None:
        return "s dpp no\n"
    out = ["s dpp yes"]
    for i, path in enumerate(sol.paths, start=1):
        out.append(f"path {i} " + " ".join(map(str, path)))
    return "\n".join(out) + "\n"


# -- generators ---------------------------------------------------------------


def gen_grid_instance(n: int, k: int, seed: int) -> DppInstance:
    """n x n grid with k random terminal pairs on the outer cycle."""
    if n < 2 or k < 1:
        raise PlaneGraphError("grid instances need n >= 2 and k >= 1")
    g = make_grid(n, n)
    # the outer face lists the outer cycle from vertex 1 clockwise
    boundary = [u for u, _ in g.faces()[g.outer_face()]]
    if 2 * k > len(boundary):
        raise PlaneGraphError(
            f"cannot place {2 * k} terminals on a {len(boundary)}-vertex outer cycle"
        )
    rng = random.Random(seed)
    chosen = rng.sample(boundary, 2 * k)
    pairs = tuple((chosen[2 * i], chosen[2 * i + 1]) for i in range(k))
    return DppInstance(g, pairs)


def _random_maximal_planar(n: int, rng: random.Random) -> tuple[list[Edge], dict[int, list[int]]]:
    """Random planar triangulation on n >= 3 vertices via face insertion."""
    edges = [(1, 2), (2, 3), (1, 3)]
    rotation: dict[int, list[int]] = {1: [2, 3], 2: [3, 1], 3: [1, 2]}
    faces: list[tuple[int, int, int]] = [(1, 2, 3), (1, 3, 2)]
    for v in range(4, n + 1):
        idx = rng.randrange(len(faces))
        a, b, c = faces.pop(idx)
        # New vertex inside face (a, b, c) whose boundary is traversed a->b->c;
        # inserting v after the predecessor keeps each rotation consistent.
        for x, prv, nxt in ((a, c, b), (b, a, c), (c, b, a)):
            rot = rotation[x]
            rot.insert(rot.index(prv) + 1, v)
        rotation[v] = [a, c, b]
        edges.extend([(a, v), (b, v), (c, v)])
        faces.extend([(a, b, v), (b, c, v), (c, a, v)])
    return edges, rotation


def gen_random_planar(n: int, m: int, k: int, seed: int) -> DppInstance:
    """Connected planar instance: random triangulation thinned to m edges."""
    if n < 1 or k < 1:
        raise PlaneGraphError("need n >= 1 and k >= 1")
    if 2 * k > n:
        raise PlaneGraphError(f"cannot place {2 * k} distinct terminals on {n} vertices")
    max_m = 3 * n - 6 if n >= 3 else n - 1
    if m > max_m:
        raise PlaneGraphError(f"m={m} exceeds the planar bound {max_m} for n={n}")
    if m < n - 1:
        raise PlaneGraphError(f"m={m} cannot keep {n} vertices connected")
    rng = random.Random(seed)
    if n <= 2:
        edges = [(1, 2)] if n == 2 else []
        graph = plane_graph_from_edges(n, edges)
    else:
        edges, rotation = _random_maximal_planar(n, rng)
        edge_set = {norm_edge(u, v) for u, v in edges}
        adj = {v: set(rotation[v]) for v in rotation}

        candidates = sorted(edge_set)
        rng.shuffle(candidates)
        while len(edge_set) > m and candidates:
            u, v = candidates.pop()
            adj[u].discard(v)
            adj[v].discard(u)
            if v not in bfs_distances(adj, [u]):  # uv is a bridge: keep it
                adj[u].add(v)
                adj[v].add(u)
                continue
            edge_set.discard((u, v))
            rotation[u].remove(v)
            rotation[v].remove(u)
        if len(edge_set) > m:
            raise PlaneGraphError(f"could not thin to m={m} while staying connected")
        graph = plane_graph_from_edges(n, edge_set, rotation)
    chosen = rng.sample(range(1, n + 1), 2 * k)
    pairs = tuple((chosen[2 * i], chosen[2 * i + 1]) for i in range(k))
    return DppInstance(graph, pairs)

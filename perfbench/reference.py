"""Answer checks that share no code with `pdpp`.

Every check here reads what the program was given (the `.dpp` text, or the
host description the benchmark wrote) with its own parser, so a defect in
the program's parser, oracle or verifier cannot also hide in the reference.
Each check returns a list of problems; an empty list means the answer holds.
"""

from __future__ import annotations


def read_dpp(text: str) -> tuple[set[frozenset[int]], list[tuple[int, int]]]:
    """Edges and terminal pairs of a `.dpp` instance; rotation lines are ignored."""
    edges: set[frozenset[int]] = set()
    pairs: list[tuple[int, int]] = []
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "e":
            edges.add(frozenset((int(fields[1]), int(fields[2]))))
        elif fields[0] == "t":
            pairs.append((int(fields[1]), int(fields[2])))
    return edges, pairs


def _outer_cycle_of_grid(edges: set[frozenset[int]]) -> list[int]:
    """Outer cycle of an n x n grid (n >= 3), in cyclic order.

    In such a grid the outer-cycle vertices are exactly those of degree < 4,
    and each of them has exactly two neighbours on the cycle.
    """
    degree: dict[int, int] = {}
    for e in edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    rim = {v for v, d in degree.items() if d < 4}
    nbrs = {v: sorted(w for e in edges if v in e for w in e if w != v and w in rim) for v in rim}
    if any(len(ns) != 2 for ns in nbrs.values()):
        raise ValueError("not a square grid with n >= 3")
    start = min(rim)
    order = [start]
    prev, cur = start, nbrs[start][0]
    while cur != start:
        order.append(cur)
        a, b = nbrs[cur]
        prev, cur = cur, (b if a == prev else a)
    if len(order) != len(rim):
        raise ValueError("outer-cycle vertices do not form one cycle")
    return order


def boundary_rule(edges: set[frozenset[int]], pairs: list[tuple[int, int]]) -> bool:
    """Solvability of a 2-pair grid instance whose terminals lie on the outer cycle.

    Two pairs on the boundary of a disc can be linked disjointly inside it
    only if they do not interleave (Jordan curve theorem). If they do not
    interleave, each pair has an outer-cycle arc free of other terminals,
    and the two arcs are disjoint, so the answer is YES. The rule is exact
    for two pairs only.
    """
    if len(pairs) != 2:
        raise ValueError("the boundary rule is exact for two pairs only")
    position = {v: i for i, v in enumerate(_outer_cycle_of_grid(edges))}
    (s1, t1), (s2, t2) = pairs
    for v in (s1, t1, s2, t2):
        if v not in position:
            raise ValueError(f"terminal {v} is not on the outer cycle")
    lo, hi = sorted((position[s1], position[t1]))
    inside = [lo < position[v] < hi for v in (s2, t2)]
    return inside[0] == inside[1]


def linkage_problems(
    edges: set[frozenset[int]],
    pairs: list[tuple[int, int]],
    paths: list[list[int]],
    ordered: bool = True,
) -> list[str]:
    """Why `paths` is not a vertex-disjoint linkage of `pairs` in the graph.

    With `ordered`, path i must run from s_i to t_i; otherwise the paths
    may come in any order and direction, one per pair.
    """
    problems: list[str] = []
    if len(paths) != len(pairs):
        return [f"expected {len(pairs)} paths, got {len(paths)}"]
    if ordered:
        for i, (path, (s, t)) in enumerate(zip(paths, pairs), start=1):
            if not path or path[0] != s or path[-1] != t:
                problems.append(f"path {i} does not join {s} to {t}")
    else:
        wanted = sorted(tuple(sorted(p)) for p in pairs)
        got = sorted(tuple(sorted((p[0], p[-1]))) for p in paths if p)
        if got != wanted:
            problems.append("the paths do not join the requested pairs")
    seen: set[int] = set()
    for i, path in enumerate(paths, start=1):
        for a, b in zip(path, path[1:]):
            if frozenset((a, b)) not in edges:
                problems.append(f"path {i} uses the non-edge {a}-{b}")
        for v in path:
            if v in seen:
                problems.append(f"vertex {v} is used twice")
            seen.add(v)
    return problems


def linkage_cost(paths: list[list[int]], cycle_edges: set[frozenset[int]]) -> int:
    """Number of linkage edges that lie on none of the cycles."""
    return sum(
        1 for path in paths for a, b in zip(path, path[1:]) if frozenset((a, b)) not in cycle_edges
    )

"""NO certificates read off one face: the certificate, its checker, its finder.

Two pairs whose terminals interleave on one face, each once, cannot be
linked (the easy half of Robertson and Seymour, Graph Minors VI). The
finder `interleaving_face` and the one-face stage share `once_faces` and
`interleaving`; the checker `verify_no_certificate` walks the face from the
rotation system alone and shares no code with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container, Hashable, Optional

from .instances import DppInstance
from .plane import CheckResult, Dart, PlaneGraph


@dataclass(frozen=True)
class FaceCertificate:
    """Proof of NO: two pairs whose terminals interleave on one face's walk.

    The face is named by a dart `dart` on it; `pairs` are two indices into
    the instance's pairs. If s1, s2, t1, t2 occur in that cyclic order on
    the walk, each once, then a vertex drawn inside the face and joined to
    the four occurrences closes any s1-t1 path into a cycle that separates
    s2 from t2 (Jordan curve theorem), so the two pairs cannot be linked by
    disjoint paths.
    """

    dart: tuple[int, int]
    pairs: tuple[int, int]


def verify_no_certificate(inst: DppInstance, cert: FaceCertificate) -> CheckResult:
    """Check a face certificate on `inst`, walking the face from the rotation.

    The walk is traced here from `inst.graph.rotation` alone: dart (u, v)
    turns at v to (v, w), w the neighbour after u in v's clockwise rotation.
    """
    g = inst.graph
    u0, v0 = cert.dart
    if not (1 <= u0 <= g.n and v0 in g.rotation[u0]):
        return CheckResult(False, (f"dart {cert.dart} is not an edge",))
    i, j = cert.pairs
    if i == j or not (0 <= i < inst.k and 0 <= j < inst.k):
        return CheckResult(False, (f"pairs {cert.pairs} are not two pairs of the instance",))
    walk = []
    u, v = u0, v0
    while True:
        walk.append(u)
        rot = g.rotation[v]
        u, v = v, rot[(rot.index(u) + 1) % len(rot)]
        if (u, v) == (u0, v0):
            break
    problems = []
    where = {}
    for x in (*inst.pairs[i], *inst.pairs[j]):
        count = walk.count(x)
        if count != 1:
            problems.append(f"terminal {x} occurs {count} times on the face")
        else:
            where[x] = walk.index(x)
    if not problems:
        (s1, t1), (s2, t2) = inst.pairs[i], inst.pairs[j]
        a, b = sorted((where[s1], where[t1]))
        if (a < where[s2] < b) == (a < where[t2] < b):
            problems.append(f"pairs {i} and {j} do not interleave on the face")
    return CheckResult(not problems, tuple(problems))


def once_faces(
    g: PlaneGraph, v: int, face_of: Callable[[Dart], Hashable], deleted: Container[int] = ()
) -> set:
    """The faces, as `face_of` keys them, on which v occurs exactly once.

    A vertex occurs on a face once per dart of its own on it, so the faces
    are read off v's darts to the neighbours not in `deleted`; no face is
    scanned.
    """
    count: dict = {}
    for w in g.rotation[v]:
        if w not in deleted:
            f = face_of((v, w))
            count[f] = count.get(f, 0) + 1
    return {f for f, c in count.items() if c == 1}


def interleaving(order: list[int]) -> Optional[tuple[int, int]]:
    """Two pairs that interleave in a cyclic sequence of pair indices, each
    index twice, or None when the sequence reduces to empty on a stack.

    A pair met a second time below the top of the stack was opened before
    the top's pair, which is still open: the two interleave.
    """
    stack: list[int] = []
    for i in order:
        if stack and stack[-1] == i:
            stack.pop()
        elif i in stack:
            return (min(i, stack[-1]), max(i, stack[-1]))
        else:
            stack.append(i)
    return None


def interleaving_face(g: PlaneGraph, pairs: list[tuple[int, int]]) -> Optional[FaceCertificate]:
    """A certificate for two pairs that interleave on a face, or None.

    Each pair's faces are those on which both its terminals occur once.
    Faces are tried in order; on each face shared by two or more pairs,
    their cyclic order of pair indices goes to `interleaving`.
    """
    on_face: dict[int, list[int]] = {}
    for i, (s, t) in enumerate(pairs):
        for f in once_faces(g, s, g.face_of_dart) & once_faces(g, t, g.face_of_dart):
            on_face.setdefault(f, []).append(i)
    for f in sorted(on_face):
        if len(on_face[f]) < 2:
            continue
        walk = g.faces()[f]
        owner = {v: i for i in on_face[f] for v in pairs[i]}
        crossing = interleaving([owner[u] for u, _ in walk if u in owner])
        if crossing is not None:
            return FaceCertificate(walk[0], crossing)
    return None

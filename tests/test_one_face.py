"""The one-face stage and the face certificate checker, against the oracle.

`one_face_decision` decides an instance whose terminals each occur once on
one face: NO with a `FaceCertificate` when two pairs interleave there, YES
by routing pairs along the face. `verify_no_certificate` checks a
certificate from the rotation system alone.
"""

import ast
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pdpp.certificates import FaceCertificate, interleaving, interleaving_face, verify_no_certificate
from pdpp.instances import DppInstance, Solution, gen_grid_instance, gen_random_planar
from pdpp.oracle import Status, solve_bruteforce, verify_solution
from pdpp import certificates, plane, solver
from pdpp.plane import PlaneGraph, delete_vertices, make_grid, plane_graph_from_edges, shortest_path
from pdpp.solver import _shortcut, one_face_decision


def _random_planar(n, density, k, seed):
    m = min(max(n - 1, math.ceil(density * n)), 3 * n - 6)
    return gen_random_planar(n, m, min(k, n // 2), seed)


def _square_grid(n, k, seed):
    """An n x n grid with k pairs drawn from all of its vertices."""
    ends = random.Random(seed).sample(range(1, n * n + 1), 2 * min(k, n * n // 2))
    return DppInstance(make_grid(n, n), tuple(zip(ends[::2], ends[1::2])))


instances = st.one_of(
    st.builds(
        _random_planar,
        st.integers(4, 11),
        st.floats(1.0, 2.2),
        st.integers(2, 3),
        st.integers(0, 2 ** 32 - 1),
    ),
    st.builds(_square_grid, st.integers(2, 5), st.integers(2, 3), st.integers(0, 2 ** 32 - 1)),
)


@settings(max_examples=300)
@given(inst=instances)
def test_stage_agrees_with_oracle(inst):
    decided = one_face_decision(inst)
    if decided is None:
        return
    truth = solve_bruteforce(inst).status
    if isinstance(decided, FaceCertificate):
        assert truth is Status.NO
        assert verify_no_certificate(inst, decided)
    else:
        assert truth is Status.YES
        assert verify_solution(inst, decided)


@settings(max_examples=300)
@given(inst=instances)
def test_finder_is_sound_and_covers_the_stage(inst):
    # a certificate the finder returns checks and sits on a NO; every NO the
    # stage proves on a face, the finder proves too
    cert = interleaving_face(inst.graph, inst.pairs)
    if cert is not None:
        assert verify_no_certificate(inst, cert)
        assert solve_bruteforce(inst).status is Status.NO
    if isinstance(one_face_decision(inst), FaceCertificate):
        assert cert is not None


def test_stage_decides_a_share_of_the_corpus():
    # the property test above checks something only where the stage answers
    decided = [
        one_face_decision(_square_grid(n, 2, seed)) for n in (3, 4, 5) for seed in range(20)
    ]
    no = sum(isinstance(d, FaceCertificate) for d in decided)
    yes = sum(d is not None for d in decided) - no
    assert no >= 5 and yes >= 5


def test_route_cuts_closed_sub_walks():
    # a tree has one face; the walk from terminal 1 to terminal 3 passes
    # the leaf 7 and comes back through 2, which the path visits once
    rotation = {1: [2], 2: [1, 7, 3, 5], 3: [2], 4: [5], 5: [2, 4, 8, 6], 6: [5], 7: [2], 8: [5]}
    g = plane_graph_from_edges(8, [(1, 2), (2, 7), (2, 3), (2, 5), (4, 5), (5, 8), (5, 6)], rotation)
    assert [u for u, _ in g.faces()[0]] == [1, 2, 7, 2, 3, 2, 5, 4, 5, 8, 5, 6, 5, 2]
    inst = DppInstance(g, ((1, 3), (4, 6)))
    sol = one_face_decision(inst)
    assert sol.paths == ((1, 2, 3), (4, 5, 6))
    assert verify_solution(inst, sol)


@pytest.mark.parametrize("side, k, seed", [(9, 3, 72), (9, 3, 185), (12, 4, 111), (12, 4, 150)])
def test_routing_passes_over_a_pair_that_splits_a_terminal(side, k, seed):
    # routing the first free pair along the outer cycle would leave another
    # terminal twice on the merged face, so another free pair goes first
    inst = gen_grid_instance(side, k, seed)
    sol = one_face_decision(inst)
    assert isinstance(sol, Solution)
    assert verify_solution(inst, sol)


def reference_accepts(inst, dart, pairs):
    """The certificate rule, read through `PlaneGraph.faces()`."""
    g = inst.graph
    i, j = pairs
    if i == j or not g.has_edge(*dart):
        return False
    walk = [u for u, _ in g.faces()[g.face_of_dart(dart)]]
    ends = (*inst.pairs[i], *inst.pairs[j])
    if any(walk.count(x) != 1 for x in ends):
        return False
    s1, t1, s2, t2 = (walk.index(x) for x in ends)
    a, b = sorted((s1, t1))
    return (a < s2 < b) != (a < t2 < b)


@settings(max_examples=150)
@given(inst=instances)
def test_checker_matches_reference_on_every_dart_and_two_pairs(inst):
    # an accepted certificate is sound: its two pairs alone cannot be linked
    g = inst.graph
    proven = set()
    for u in g.vertices:
        for v in g.rotation[u]:
            for i in range(inst.k):
                for j in range(inst.k):
                    ok = bool(verify_no_certificate(inst, FaceCertificate((u, v), (i, j))))
                    assert ok == reference_accepts(inst, (u, v), (i, j))
                    if ok:
                        proven.add((min(i, j), max(i, j)))
    for i, j in proven:
        two = DppInstance(g, (inst.pairs[i], inst.pairs[j]))
        assert solve_bruteforce(two).status is Status.NO


@pytest.fixture
def crossed_grid():
    """3x3 grid, corners paired across: pairs 0 and 1 interleave on the
    outer face, and the stage says so; pair 2, (2, 6), interleaves with
    pair 1 but not pair 0."""
    g = make_grid(3, 3)
    cert = one_face_decision(DppInstance(g, ((1, 9), (3, 7))))
    assert isinstance(cert, FaceCertificate)
    assert cert.pairs == (0, 1)
    inst = DppInstance(g, ((1, 9), (3, 7), (2, 6)))
    assert verify_no_certificate(inst, cert)
    return inst, cert


class TestMutatedCertificates:
    def test_pairs_that_do_not_interleave(self, crossed_grid):
        inst, cert = crossed_grid
        check = verify_no_certificate(inst, FaceCertificate(cert.dart, (0, 2)))
        assert not check
        assert check.problems == ("pairs 0 and 2 do not interleave on the face",)
        assert verify_no_certificate(inst, FaceCertificate(cert.dart, (1, 2)))

    @pytest.mark.parametrize("pairs", [(0, 0), (0, 3), (-1, 1)])
    def test_pairs_not_of_the_instance(self, crossed_grid, pairs):
        inst, cert = crossed_grid
        check = verify_no_certificate(inst, FaceCertificate(cert.dart, pairs))
        assert check.problems == (f"pairs {pairs} are not two pairs of the instance",)

    def test_terminal_twice_on_the_walk(self):
        # two triangles sharing vertex 1: the outer walk passes 1 twice
        g = plane_graph_from_edges(5, [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)])
        inst = DppInstance(g, ((1, 4), (2, 5)))
        outer = g.faces()[g.outer_face()]
        assert [u for u, _ in outer].count(1) == 2
        check = verify_no_certificate(inst, FaceCertificate(outer[0], (0, 1)))
        assert not check
        assert "terminal 1 occurs 2 times on the face" in check.problems
        assert one_face_decision(inst) is None

    def test_dart_not_on_the_face(self, crossed_grid):
        inst, cert = crossed_grid
        g = inst.graph
        outer = set(g.faces()[g.outer_face()])
        assert cert.dart in outer
        inner = [(u, v) for u in g.vertices for v in g.rotation[u] if (u, v) not in outer]
        assert inner
        for dart in inner:
            assert not verify_no_certificate(inst, FaceCertificate(dart, cert.pairs))

    @pytest.mark.parametrize("dart", [(1, 5), (1, 1), (0, 1), (10, 9)])
    def test_dart_not_an_edge(self, crossed_grid, dart):
        inst, cert = crossed_grid
        check = verify_no_certificate(inst, FaceCertificate(dart, cert.pairs))
        assert check.problems == (f"dart {dart} is not an edge",)


def test_checker_walks_the_rotation_itself(monkeypatch, crossed_grid):
    inst, cert = crossed_grid

    def refuse(*args, **kwargs):
        raise AssertionError("the checker read the traced faces")

    for name in ("faces", "face_of_dart", "outer_face", "face_vertices", "face_edges", "faces_of_edge"):
        monkeypatch.setattr(PlaneGraph, name, refuse)
    assert verify_no_certificate(inst, cert)
    assert not verify_no_certificate(inst, FaceCertificate(cert.dart, (0, 2)))


def test_checker_shares_no_code_with_the_finders():
    tree = ast.parse(Path(certificates.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & {"oracle", "solver", "decomposition"}
    used = set(verify_no_certificate.__code__.co_names)
    assert not used & {"interleaving", "once_faces", "interleaving_face", "face_of_dart", "faces"}


# -- routing on the input graph against routing on rebuilt graphs -----------------------


def reference_terminal_face(g, terminals):
    """The least face of g on which each terminal occurs once, read through
    `PlaneGraph.faces()`."""
    common = None
    for v in terminals:
        count = Counter(g.face_of_dart((v, w)) for w in g.rotation[v])
        once = {f for f, c in count.items() if c == 1}
        common = once if common is None else common & once
        if not common:
            return None
    return g.faces()[min(common)]


def reference_one_face(inst):
    """`one_face_decision` with each routed path deleted by `delete_vertices`
    and the face found again on the rebuilt graph."""
    g = inst.graph
    left = dict(enumerate(inst.pairs))  # the pairs not yet routed, in g's ids
    to_inst = None  # g's ids -> inst's, after a deletion
    paths = {}
    walk = reference_terminal_face(g, inst.terminals())
    if walk is None:
        return None
    while len(left) > 1:
        owner = {v: i for i, pair in left.items() for v in pair}
        at = [(n, owner[u]) for n, (u, _) in enumerate(walk) if u in owner]
        crossing = interleaving([i for _, i in at])
        if crossing is not None:
            return FaceCertificate(walk[0], crossing) if to_inst is None else None
        for n in range(len(at)):
            (a, i), (b, j) = at[n - 1], at[n]
            if i != j:
                continue
            arc = walk[a : b + 1] if a < b else walk[a:] + walk[: b + 1]
            path = _shortcut([u for u, _ in arc])
            h, remap = delete_vertices(g, path)
            rest = {m: (remap[s], remap[t]) for m, (s, t) in left.items() if m != i}
            face = ()
            if len(rest) > 1:
                face = reference_terminal_face(h, [v for pair in rest.values() for v in pair])
            if face is not None:
                break
        else:
            return None
        if path[0] != left[i][0]:
            path.reverse()
        paths[i] = path if to_inst is None else [to_inst[v] for v in path]
        g, left, walk = h, rest, face
        to_inst = {new: old if to_inst is None else to_inst[old] for old, new in remap.items()}
    ((i, (s, t)),) = left.items()
    path = shortest_path(g, s, t)
    if path is None:
        return None
    paths[i] = path if to_inst is None else [to_inst[v] for v in path]
    return Solution(tuple(tuple(paths[j]) for j in range(inst.k)))


def test_routing_matches_rebuilding_reference_on_grids():
    kinds = Counter()
    for side, ks in ((9, range(3, 7)), (12, range(4, 7))):
        for k in ks:
            for seed in range(50):
                inst = gen_grid_instance(side, k, seed)
                got = one_face_decision(inst)
                assert got == reference_one_face(inst), (side, k, seed)
                kinds[type(got).__name__] += 1
    # the comparison covers routing, most of it through several deletions,
    # and certificates
    assert kinds == {"FaceCertificate": 312, "Solution": 38}


def test_finder_returns_the_stage_certificate_on_grids():
    compared = 0
    for side, ks in ((9, range(3, 7)), (12, range(4, 7))):
        for k in ks:
            for seed in range(50):
                inst = gen_grid_instance(side, k, seed)
                got = one_face_decision(inst)
                if isinstance(got, FaceCertificate):
                    assert interleaving_face(inst.graph, inst.pairs) == got, (side, k, seed)
                    compared += 1
    assert compared == 312


@settings(max_examples=300)
@given(inst=instances)
def test_routing_matches_rebuilding_reference(inst):
    assert one_face_decision(inst) == reference_one_face(inst)


def test_stuck_routing_still_falls_through():
    # no free pair leaves the other terminals once on one face; the CLI pins
    # this instance's DP answer
    inst = gen_grid_instance(12, 6, 176)
    assert one_face_decision(inst) is None
    assert reference_one_face(inst) is None


def test_routing_neither_deletes_nor_validates(monkeypatch):
    inst = gen_grid_instance(9, 4, 7)  # routed through three deletions
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(plane, "delete_vertices", counted("delete", plane.delete_vertices))
    monkeypatch.setattr(solver, "delete_vertices", counted("delete", solver.delete_vertices))
    monkeypatch.setattr(PlaneGraph, "_validate", counted("validate", PlaneGraph._validate))
    assert isinstance(one_face_decision(inst), Solution)
    assert calls == {}
    kernel = solver.exact_kernel(inst)
    assert kernel.inst is not None and kernel.inst.graph.n < inst.graph.n
    assert calls == {}
    make_grid(2, 2)  # the counter sees a validated build
    assert calls == {"validate": 1}

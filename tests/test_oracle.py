import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pdpp import oracle
from pdpp.certificates import FaceCertificate, interleaving_face, verify_no_certificate
from pdpp.gallery import ring_cycle, ring_lattice
from pdpp.instances import (
    DppInstance,
    Solution,
    gen_grid_instance,
    gen_random_planar,
    parse_instance,
)
from pdpp.oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Linkage,
    SolveOutcome,
    Status,
    best_linkage_for_pattern,
    cheapest_equivalent_linkage,
    linkage_cost,
    solve_bruteforce,
    verify_solution,
)
from pdpp.plane import (
    Cycle,
    GridMinorModel,
    delete_vertices,
    grid_ring,
    grid_vertex,
    make_grid,
    plane_graph_from_points,
)

TIGHT_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "tight_pool.txt"


def k2_instance():
    return parse_instance("p dpp 2 1 1\ne 1 2\nt 1 2\n")


def crossing_corner_pairs(n):
    """Pairs (a,c),(b,d) with a,b,c,d the grid corners in clockwise order."""
    g = make_grid(n, n)
    a = grid_vertex(n, n, 1, 1)
    b = grid_vertex(n, n, 1, n)
    c = grid_vertex(n, n, n, n)
    d = grid_vertex(n, n, n, 1)
    return DppInstance(g, ((a, c), (b, d)))


class TestBruteForce:
    def test_k2_yes(self):
        out = solve_bruteforce(k2_instance())
        assert out.status is Status.YES
        assert out.solution.paths == ((1, 2),)

    def test_2x2_crossing_pairs_no(self):
        out = solve_bruteforce(crossing_corner_pairs(2))
        assert out.status is Status.NO

    def test_crossing_pairs_no_in_any_grid(self):
        # With all four corners on the outer face, interleaved pairs cannot
        # be linked by disjoint paths in a planar graph; the anti-diagonal
        # separator forces both paths through the grid center.
        for n in (3, 4):
            out = solve_bruteforce(crossing_corner_pairs(n))
            assert out.status is Status.NO

    def test_noncrossing_corner_pairs_yes(self):
        g = make_grid(3, 3)
        inst = DppInstance(g, ((1, 3), (7, 9)))
        out = solve_bruteforce(inst)
        assert out.status is Status.YES
        assert verify_solution(inst, out.solution)

    def test_budget_exceeded_signalled(self):
        inst = gen_grid_instance(6, 2, 3)
        out = solve_bruteforce(inst, budget=10)
        assert out.status is Status.UNKNOWN

    def test_solutions_verify(self):
        for seed in range(8):
            inst = gen_grid_instance(4, 2, seed)
            out = solve_bruteforce(inst)
            if out.status is Status.YES:
                assert verify_solution(inst, out.solution)

    def test_deterministic(self):
        inst = gen_grid_instance(5, 2, 9)
        a = solve_bruteforce(inst)
        b = solve_bruteforce(inst)
        assert a.status == b.status
        assert a.solution == b.solution


class TestVerify:
    def test_valid(self):
        inst = k2_instance()
        assert verify_solution(inst, Solution(((1, 2),)))

    def test_shared_vertex_named(self):
        inst = crossing_corner_pairs(3)
        bad = Solution(((1, 2, 5, 8, 9), (3, 5, 7)))
        result = verify_solution(inst, bad)
        assert not result
        assert any("vertex 5" in p for p in result.problems)

    def test_non_edge_named(self):
        inst = k2_instance()
        g = inst.graph
        result = verify_solution(
            DppInstance(make_grid(2, 2), ((1, 4),)), Solution(((1, 4),))
        )
        assert not result
        assert any("non-edge (1,4)" in p for p in result.problems)


class TestCheapest:
    def test_already_on_cycles(self):
        g = make_grid(3, 3)
        ring = grid_ring(g, 0)
        link = Linkage(((1, 2, 3),))
        assert linkage_cost(link, [ring]) == 0
        best = cheapest_equivalent_linkage(g, link, [ring])
        assert linkage_cost(best, [ring]) == 0
        assert best.pattern == link.pattern

    def test_reroute_through_cycle(self):
        # Path 4-5-6 cuts across the 3x3 grid; going around the ring is free.
        g = make_grid(3, 3)
        ring = grid_ring(g, 0)
        link = Linkage(((4, 5, 6),))
        assert linkage_cost(link, [ring]) == 2
        best = cheapest_equivalent_linkage(g, link, [ring])
        assert best.pattern == link.pattern
        assert linkage_cost(best, [ring]) == 0

    def test_no_alternative(self):
        g = make_grid(1, 3)
        link = Linkage(((1, 2, 3),))
        best = cheapest_equivalent_linkage(g, link, [])
        assert best == link

    def test_cost_never_increases_and_pattern_kept(self):
        g = make_grid(3, 3)
        ring = grid_ring(g, 0)
        for path in ((1, 4, 7), (1, 2, 5, 8, 9), (3, 6, 5, 4, 7)):
            link = Linkage((path,))
            best = cheapest_equivalent_linkage(g, link, [ring])
            assert linkage_cost(best, [ring]) <= linkage_cost(link, [ring])
            assert best.pattern == link.pattern


# -- differential: the pruned engine against plain enumeration -------------------
#
# The reference is the engine as it was before the reachability and cost
# cuts: plain backtracking, one budget unit per search node, every system
# scored as a Linkage. The engine must give the same first solution, the
# same cheapest linkage and the same None wherever the reference decides.


class _RefBudget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded()


def _ref_iter_path_systems(g, pairs, budget):
    terminals = {v for p in pairs for v in p}
    occupied = set(terminals)
    done = []

    def route(i):
        budget.spend()
        if i == len(pairs):
            yield [list(p) for p in done]
            return
        s, t = pairs[i]
        path = [s]
        on_path = {s}

        def extend(v):
            budget.spend()
            if v == t:
                done.append(list(path))
                yield from route(i + 1)
                done.pop()
                return
            for w in sorted(g.rotation[v]):
                if w in on_path:
                    continue
                if w != t and w in occupied:
                    continue
                path.append(w)
                on_path.add(w)
                if w != t:
                    occupied.add(w)
                yield from extend(w)
                if w != t:
                    occupied.discard(w)
                on_path.discard(w)
                path.pop()

        yield from extend(s)

    yield from route(0)


def ref_solve_bruteforce(inst, budget=DEFAULT_BUDGET):
    b = _RefBudget(budget)
    try:
        for system in _ref_iter_path_systems(inst.graph, list(inst.pairs), b):
            return SolveOutcome(Status.YES, Solution(tuple(tuple(p) for p in system)))
    except BudgetExceeded:
        return SolveOutcome(Status.UNKNOWN, reason="node budget exceeded")
    return SolveOutcome(Status.NO)


def _ref_edge_key(linkage):
    return tuple(sorted(linkage.edges))


def ref_cheapest_equivalent_linkage(g, start, cycles, budget=DEFAULT_BUDGET):
    start.check_in(g)
    pairs = sorted((min(p[0], p[-1]), max(p[0], p[-1])) for p in start.paths)
    b = _RefBudget(budget)
    best = start
    best_cost = linkage_cost(start, cycles)
    best_key = _ref_edge_key(start)
    for system in _ref_iter_path_systems(g, pairs, b):
        cand = Linkage(tuple(tuple(p) for p in system))
        cost = linkage_cost(cand, cycles)
        key = _ref_edge_key(cand)
        if cost < best_cost or (cost == best_cost and key < best_key):
            best, best_cost, best_key = cand, cost, key
    return best


def ref_best_linkage_for_pattern(g, pairs, cycles, budget=DEFAULT_BUDGET):
    b = _RefBudget(budget)
    best = None
    best_cost = None
    best_key = None
    for system in _ref_iter_path_systems(g, sorted(pairs), b):
        cand = Linkage(tuple(tuple(p) for p in system))
        cost = linkage_cost(cand, cycles)
        key = _ref_edge_key(cand)
        if best is None or cost < best_cost or (cost == best_cost and key < best_key):
            best, best_cost, best_key = cand, cost, key
    return best


def _outcome(f, *args, **kwargs):
    """f's result, with giving up as the string 'budget'."""
    try:
        return f(*args, **kwargs)
    except BudgetExceeded:
        return "budget"


def _paths(result):
    return result if result in (None, "budget") else result.paths


def assert_engine_matches_reference(g, pairs, cycles):
    """Both cheapest-linkage entry points against the reference.

    When the reference gives up nothing is compared; the engine must never
    give up where the reference decides. A face certificate the
    cheapest-linkage search finds before it searches must check.
    """
    want = _outcome(ref_best_linkage_for_pattern, g, pairs, cycles)
    got = _outcome(best_linkage_for_pattern, g, pairs, cycles)
    if want != "budget":
        assert _paths(got) == _paths(want), (pairs, cycles)
    cert = interleaving_face(g, pairs)
    if cert is not None:
        assert verify_no_certificate(DppInstance(g, tuple(pairs)), cert), (pairs, cert)
        assert want in (None, "budget"), (pairs, cert)
    # a first, usually dear, linkage of the pattern as the start, paths
    # oriented as in `pairs` so both orientations occur
    b = _RefBudget(DEFAULT_BUDGET)
    first = next(_ref_iter_path_systems(g, pairs, b), None)
    if first is None:
        return want
    start = Linkage(tuple(tuple(p) for p in first))
    want2 = _outcome(ref_cheapest_equivalent_linkage, g, start, cycles)
    got2 = _outcome(cheapest_equivalent_linkage, g, start, cycles)
    if want2 != "budget":
        assert _paths(got2) == _paths(want2), (pairs, cycles, start)
        assert (got2 is start) == (want2 is start)
    return want


def assert_bruteforce_matches_reference(inst):
    want = ref_solve_bruteforce(inst)
    got = solve_bruteforce(inst)
    if want.status is not Status.UNKNOWN:
        assert (got.status, got.solution) == (want.status, want.solution), inst.pairs
    return want.status


def face_cycles(g, rng, keep):
    """A random family of the host's faces that are simple cycles."""
    out = []
    for orbit in g.faces():
        vs = tuple(u for u, _ in orbit)
        if len(vs) >= 3 and len(set(vs)) == len(vs) and rng.random() < keep:
            out.append(Cycle(vs))
    return out


def ring_host(sectors, k, seed):
    """A 3-ring lattice with sampled inner spokes, a ring-cycle family and
    k pairs on the outer ring, as the tightness corpora draw them."""
    rng = random.Random(seed)
    spokes = [rng.random() < 0.6 for _ in range(sectors)]
    g, vid = ring_lattice(3, sectors, spokes=lambda ring, s: ring >= 1 or spokes[s])
    family = rng.choice(((0, 1), (0,), (1,), ()))
    cycles = [ring_cycle(vid, r, sectors) for r in family]
    sides = rng.sample(range(sectors), 2 * k)
    pairs = [(vid(2, sides[2 * i]), vid(2, sides[2 * i + 1])) for i in range(k)]
    return g, pairs, cycles


def pool_host(spokes, family, pairs):
    """A 6-sector host shaped like the tight pool's: ring-0 spokes as a
    0/1 string, the family's rings, and pairs of sectors on ring 2."""
    g, vid = ring_lattice(3, 6, spokes=lambda ring, s: ring >= 1 or spokes[s] == "1")
    return g, [(vid(2, a), vid(2, b)) for a, b in pairs], [ring_cycle(vid, r, 6) for r in family]


def criterion_2_grids():
    """The criterion-2 instances, each with and without its certified vertex."""
    from pdpp.solver import find_irrelevant_vertex

    for n, k, seeds in ((5, 1, range(6)), (6, 2, range(6)), (6, 1, range(4))):
        for seed in seeds:
            inst = gen_grid_instance(n, k, seed)
            yield inst
            phi = {
                (r, c): frozenset({grid_vertex(n, n, r, c)})
                for r in range(1, n + 1)
                for c in range(1, n + 1)
            }
            cert = find_irrelevant_vertex(inst, GridMinorModel(n, n, phi), mode="heuristic")
            if cert is not None:
                g2, remap = delete_vertices(inst.graph, [cert.removed_vertex])
                yield DppInstance(g2, tuple((remap[s], remap[t]) for s, t in inst.pairs))


class TestPrunedEngine:
    def test_bruteforce_on_criterion_2_grids(self):
        statuses = [assert_bruteforce_matches_reference(inst) for inst in criterion_2_grids()]
        assert len(statuses) == 32
        assert Status.NO in statuses and Status.YES in statuses
        assert Status.UNKNOWN not in statuses

    def test_random_planar_instances(self):
        statuses = []
        for n in range(8, 17):
            for k in (1, 2, 3):
                for seed in range(4):
                    rng = random.Random(f"{n}/{k}/{seed}")
                    inst = gen_random_planar(n, rng.randint(n - 1, 3 * n - 6), k, seed)
                    statuses.append(assert_bruteforce_matches_reference(inst))
                    g, pairs = inst.graph, list(inst.pairs)
                    cycles = face_cycles(g, rng, 0.5)
                    assert_engine_matches_reference(g, pairs, cycles)
        assert statuses.count(Status.NO) >= 10 and statuses.count(Status.YES) >= 10

    def test_ring_hosts(self):
        found = []
        for sectors in (6, 7, 8):
            for k in (1, 2, 3):
                for seed in range(6):
                    g, pairs, cycles = ring_host(sectors, k, seed)
                    found.append(assert_engine_matches_reference(g, pairs, cycles))
        assert None in found and "budget" not in found
        assert sum(x is not None for x in found) >= 30

    def test_single_vertex_path_in_start(self):
        # a start path may be one vertex, a pair (v, v) that is joined
        # however boxed in v becomes; the path round the ring ties with
        # the start on cost and wins on its edge set
        g = make_grid(3, 3)
        ring = grid_ring(g, 0)
        start = Linkage(((1, 4), (5,)))
        want = ref_cheapest_equivalent_linkage(g, start, [ring])
        assert want.paths == ((1, 2, 3, 6, 9, 8, 7, 4), (5,))
        assert cheapest_equivalent_linkage(g, start, [ring]).paths == want.paths

    def test_budget_still_signalled(self):
        g, pairs, cycles = ring_host(8, 3, 1)
        with pytest.raises(BudgetExceeded):
            best_linkage_for_pattern(g, pairs, cycles, budget=5)
        start = best_linkage_for_pattern(g, pairs, cycles)
        with pytest.raises(BudgetExceeded):
            cheapest_equivalent_linkage(g, start, cycles, budget=5)

    @pytest.mark.parametrize(
        "host, work",
        [
            (lambda: ring_host(8, 3, 1), 1152),
            (lambda: pool_host("110111", (0, 1), ((5, 0), (2, 3))), 105),
            (lambda: pool_host("101101", (0, 1), ((2, 1), (5, 0), (4, 3))), 133),
        ],
    )
    def test_cheapest_linkage_work_pinned(self, host, work):
        # one unit per search node, per edge the reachability check scans
        # and per edge the distance bound's BFS scans
        g, pairs, cycles = host()
        assert best_linkage_for_pattern(g, pairs, cycles, budget=work) is not None
        with pytest.raises(BudgetExceeded):
            best_linkage_for_pattern(g, pairs, cycles, budget=work - 1)


def bowtie():
    """Triangles 2-3-4 and 2-5-1 sharing the cut vertex 2, which occurs
    twice on the outer face walk 1, 2, 4, 3, 2, 5."""
    points = {2: (0, 0), 3: (-2, 1), 4: (-2, -1), 5: (2, 1), 1: (2, -1)}
    return plane_graph_from_points(points, [(2, 3), (3, 4), (4, 2), (2, 5), (5, 1), (1, 2)])


def tight_pool_hosts():
    """Each tight-pool host with its pinned cheapest cost, 'none' without a linkage."""
    for line in TIGHT_POOL.read_text(encoding="utf-8").splitlines():
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        _, _, _, cost, sectors, family, spokes, pairs = fields
        assert sectors == "6"
        family = tuple(int(r) for r in family.split(","))
        pairs = tuple(tuple(int(x) for x in p.split("-")) for p in pairs.split(","))
        yield pool_host(spokes, family, pairs), cost


class TestFaceProof:
    """The cheapest-linkage search proves a pattern impossible from two
    pairs that interleave on one face, and searches otherwise."""

    def test_interleaving_on_inner_face(self):
        # ring-0 spokes at sectors 0 and 3 only: the face between rings 0
        # and 1 over sectors 0-3 holds all four terminals, the outer face none
        g, vid = ring_lattice(3, 6, spokes=lambda ring, s: ring >= 1 or s in (0, 3))
        pairs = [(vid(0, 1), vid(1, 2)), (vid(0, 2), vid(1, 1))]
        cycles = [ring_cycle(vid, 1, 6)]
        assert not {v for p in pairs for v in p} & g.face_vertices(g.outer_face())
        assert best_linkage_for_pattern(g, pairs, cycles, budget=1) is None
        assert assert_engine_matches_reference(g, pairs, cycles) is None

    def test_cut_vertex_twice_on_face_is_not_read(self):
        # read at every occurrence, terminal 2 would make pairs (2, 3) and
        # (5, 1) look interleaved on the outer face; both are edges
        g = bowtie()
        pairs = [(2, 3), (5, 1)]
        assert [u for u, _ in g.faces()[g.outer_face()]].count(2) == 2
        assert interleaving_face(g, pairs) is None
        want = assert_engine_matches_reference(g, pairs, [])
        assert want.paths == ((2, 3), (5, 1))

    def test_unchecked_certificate_ends_no_search(self, monkeypatch):
        # a finder that reads the bowtie's cut vertex at every occurrence;
        # its certificate fails the check, so the search still decides
        g = bowtie()
        pairs = [(2, 3), (5, 1)]
        wrong = FaceCertificate((1, 2), (0, 1))
        assert not verify_no_certificate(DppInstance(g, tuple(pairs)), wrong)
        monkeypatch.setattr(oracle, "interleaving_face", lambda g, pairs: wrong)
        assert best_linkage_for_pattern(g, pairs, []).paths == ((2, 3), (5, 1))

    def test_nesting_face_read_before_interleaving_face(self):
        # pairs 0 and 2 nest on ring 0's face; pairs 0 and 1 interleave on
        # the face between rings 0 and 1, which comes later in face order
        g, vid = ring_lattice(3, 6, spokes=lambda ring, s: ring >= 1 or s in (0, 3))
        pairs = [(vid(0, 1), vid(0, 3)), (vid(0, 2), vid(1, 2)), (vid(0, 4), vid(0, 5))]
        nesting = g.face_of_dart((vid(0, 0), vid(0, 1)))
        crossing = g.face_of_dart((vid(0, 0), vid(1, 0)))
        assert nesting < crossing
        assert vid(1, 2) not in g.face_vertices(nesting)
        assert best_linkage_for_pattern(g, pairs, [], budget=1) is None
        assert assert_engine_matches_reference(g, pairs, []) is None

    def test_fires_on_exactly_the_tight_pool_hosts_without_a_linkage(self):
        # a face proof needs no budget; a search needs more than one unit
        fired = 0
        for (g, pairs, cycles), cost in tight_pool_hosts():
            try:
                none = best_linkage_for_pattern(g, pairs, cycles, budget=1) is None
            except BudgetExceeded:
                none = False
            assert none == (cost == "none"), (pairs, cost)
            fired += none
        assert fired == 155

    def test_plain_engine_does_not_use_the_face_proof(self):
        # pairs 0 and 1 interleave on ring 2, the outer face: the cheapest-
        # linkage search returns None without search, while solve_bruteforce,
        # the independent cross-check, still pays for its whole search
        g, pairs, cycles = pool_host("111001", (0, 1), ((5, 1), (3, 0)))
        assert best_linkage_for_pattern(g, pairs, cycles, budget=1) is None
        inst = DppInstance(g, tuple(pairs))
        assert solve_bruteforce(inst, budget=1218).status is Status.NO
        assert solve_bruteforce(inst, budget=1217).status is Status.UNKNOWN


def _grid_edges(side, first):
    vid = lambda r, c: first + r * side + c  # noqa: E731
    out = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                out.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < side:
                out.append((vid(r, c), vid(r + 1, c)))
    return out


def _instance(n, edges, pairs):
    return parse_instance(
        f"p dpp {n} {len(edges)} {len(pairs)}\n"
        + "".join(f"e {u} {v}\n" for u, v in edges)
        + "".join(f"t {s} {t}\n" for s, t in pairs)
    )


def pocket_instance():
    """1 -> 2 through hub 19 and 20; hub 19 also leads into a 4x4 grid
    pocket (3..18) that it is the only way out of, and 3 < 20, so plain
    enumeration walks the whole pocket before trying 20."""
    edges = [(1, 19), (19, 3), (19, 20), (20, 2)] + _grid_edges(4, 3)
    return _instance(20, edges, [(1, 2)])


def cut_off_instance():
    """Corner to corner of a 5x5 grid, plus a pair whose ends hang off
    those two corners, so it can never be joined: plain enumeration tries
    every corner-to-corner path first."""
    edges = _grid_edges(5, 1) + [(1, 26), (25, 27)]
    return _instance(27, edges, [(1, 25), (26, 27)])


class TestDeadBranches:
    def test_head_walled_in_is_cut(self):
        inst = pocket_instance()
        assert ref_solve_bruteforce(inst, budget=2000).status is Status.UNKNOWN
        out = solve_bruteforce(inst, budget=200)
        assert out.solution == Solution(((1, 19, 20, 2),))

    def test_unjoinable_later_pair_is_cut(self):
        inst = cut_off_instance()
        assert ref_solve_bruteforce(inst, budget=100_000).status is Status.UNKNOWN
        assert solve_bruteforce(inst, budget=100).status is Status.NO

    @pytest.mark.parametrize("make, work", [(pocket_instance, 158), (cut_off_instance, 78)])
    def test_work_units_pinned(self, make, work):
        # one unit per search node plus one per edge the reachability DFS scans
        inst = make()
        assert solve_bruteforce(inst, budget=work).status is not Status.UNKNOWN
        out = solve_bruteforce(inst, budget=work - 1)
        assert out.status is Status.UNKNOWN
        assert out.reason == "work budget exceeded"


@settings(max_examples=60)
@given(
    n=st.integers(6, 14),
    density=st.floats(1.0, 2.6),
    k=st.integers(1, 3),
    seed=st.integers(0, 10**6),
    keep=st.floats(0.0, 1.0),
)
def test_engine_equals_reference_on_random_instances(n, density, k, seed, keep):
    inst = gen_random_planar(n, min(3 * n - 6, max(n - 1, round(density * n))), k, seed)
    rng = random.Random(seed)
    g, pairs = inst.graph, list(inst.pairs)
    assert_bruteforce_matches_reference(inst)
    assert_engine_matches_reference(g, pairs, face_cycles(g, rng, keep))


@settings(max_examples=30)
@given(
    sectors=st.integers(6, 8),
    k=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
def test_engine_equals_reference_on_ring_hosts(sectors, k, seed):
    assert_engine_matches_reference(*ring_host(sectors, k, seed))


@settings(max_examples=60)
@given(
    sectors=st.integers(4, 8),
    data=st.data(),
    family=st.sampled_from(((0,), (1,), (0, 1))),
)
def test_cheapest_linkage_equals_reference_on_random_ring_hosts(sectors, data, family):
    spokes = data.draw(st.lists(st.booleans(), min_size=sectors, max_size=sectors))
    g, vid = ring_lattice(3, sectors, spokes=lambda ring, s: ring >= 1 or spokes[s])
    k = data.draw(st.integers(1, min(3, sectors // 2)))
    sides = data.draw(st.permutations(range(sectors)))[: 2 * k]
    pairs = [(vid(2, sides[2 * i]), vid(2, sides[2 * i + 1])) for i in range(k)]
    cycles = [ring_cycle(vid, r, sectors) for r in family]
    assert_engine_matches_reference(g, pairs, cycles)

"""Print one line per case of what pdpp answers, so two checkouts can be diffed.

A refactor that must not change behaviour runs this on the checkout before
and after it and compares the two outputs:

    python3 tools/identity_digest.py OLD_CHECKOUT > old.txt
    python3 tools/identity_digest.py . > new.txt
    diff old.txt new.txt

Each checkout's `src/` and `perfbench/` are imported. It takes about a
minute. Cases:
- solve_pipeline on the 600 grid-solve seed-7 items and the 800 sparse-solve
  seed-7 items: status, reason, paths, certificates, iterations, serialized
  decomposition; for each grid item the stage that decided it (one-face or
  dp) with its face certificate; and every fourth grid item through
  dp_solve alone, on tree_decompose's decomposition at a budget of 2,000
  states, to show the DP's reach (the pipeline's one-face stage decides
  these items before any DP); and for each sparse item one kernel line:
  n and m of the parsed instance and of exact_kernel's, the indices of the
  pairs it routed, and the kernel graph's outer dart and a hash of its
  rotation (the kernel of the parsed instance, also where the one-face
  stage decides the item first);
- the same fields for solve_pipeline on gen_grid_instance grids with seeds
  0-2: heuristic 7x7 and 8x8 with k in {5, 6}, and certified 7x7 with
  k in {2, 3}, where the decomposition the DP runs on decides the verdict;
  heuristic 6x6 with k in {2, 3, 4}, which holds a grid minor of the
  side-6 target but is not wider than it, and heuristic 7x7 with k = 2,
  which is wider and reduces; and heuristic 7x7, 8x8 and 9x9 with k = 2,
  seeds 0-1, relabelled and built in-process with their embedding;
- interleaving_face, the face-proof finder, on each grid-solve and
  sparse-solve item and on each tight_pool host's pattern: the certificate
  or None;
- one_face_decision on gen_grid_instance 9x9 and 12x12 grids with k in
  {3, 4, 5, 6}, seeds 0-19: the kind of answer (Solution, FaceCertificate
  or None), the certificate, and a hash of the paths;
- verify_tight on every tight_pool host at budgets 5, 500 and 200,000:
  the verdict and problems, or the exception's type and message; a hash
  of each host's faces (orbits, outer face id, face count); and on every
  eighth host the least budget with which verify_tight decides, with its
  answer at that budget and one below;
- on every tight_pool host, the paths and cost of best_linkage_for_pattern's
  linkage and of cheapest_equivalent_linkage's from solve_bruteforce's
  solution (plain enumeration's first system), or None when none exists;
  after each None, solve_bruteforce's own verdict on the pattern, which
  never rests on a face certificate;
- tighten on every tight_pool host's family: the cycles' vertex sequences;
- on every tight tight_pool host with a cheapest linkage, and on
  nested_chord_showcase: each segment (vertices, eccentricity, chords, a
  hash of its zone), the is_convex report, touch-freeness, a hash of the
  out-structure, the segment tree, the segment_types classes and, for each
  class, the extracted tilted grid (capacity and a hash of its paths), and
  the vertical crossing and untangling of the outer disc; the same for five
  nested chords whose one class yields a capacity-3 grid, and for a path
  that bounces off the outer cycle at an apex detour; and reduce_configuration
  on each tight host's configuration: n, m, the outer dart and a hash of the
  rotation of the reduced graph, its cycles and paths, or the exception's
  type and message;
- concentric_from_grid on the identity and a 4 x 4 block model of the 7x7,
  8x8 and 9x9 grids at depths 0 and 1, avoiding no vertex, a corner or a
  centre, and tighten on families of the grid's own rings: the cycles'
  vertex sequences;
- the least work budget with which solve_bruteforce, best_linkage_for_pattern,
  dp_solve, branchwidth_decision and untangle_disk decide, with each answer
  at that budget and one below;
- on a 5x5 grid's central disc, for a snake crossing it three times and for
  two straight columns: the vertical crossing (lines, up and down ends) and
  the untangling (chords and routes), or the exception raised; and
  improve_over_tilted_grid on the snake with its capacity-3 and capacity-2
  tilted grids: the new linkage's paths, or the exception raised;
- on the central disc of a 5 x (r+2) grid, for a snake crossing it r times
  with r = 4-7: the untangling at the default budget and, for r = 4-6, the
  least budget with which untangle_disk decides, with its answer at that
  budget and one below;
  dp_solve's also on td_from_bd(g, best_heuristic_bd(g)) for each of its
  30 instances, the decomposition with the most joins;
- the embedding computed for each of the 2,000 sparse_pool.txt graphs with
  its rot/outer lines stripped (a hash of the rotation, the outer dart, and
  the pipeline's status next to the pool's verdict), and for every r x c
  grid with 2 <= r, c <= 12 under a seeded relabelling, with the grid
  shape it reads as; each also with a hash of its faces;
- delete_vertices on the 6x6 to 9x9 grids and on the first 50 sparse_pool.txt
  graphs (as generated, with their embedding), for eight seeded vertex sets
  each (see `doomed_sets`): n, m, the outer dart, a hash of the rotation and
  a hash of the old->new map;
- parse_instance on 3,000 seeded instance texts (see `parse_corpus`): the
  ParseError's line and message, or a hash of the rotation, the faces, the
  outer dart and the pairs.
"""

import hashlib
import math
import random
import sys
from pathlib import Path

if len(sys.argv) != 2:
    sys.exit(f"usage: python3 {sys.argv[0]} CHECKOUT")
root = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

import workloads  # noqa: E402
from pdpp import clconfig, concentric, decomposition, gallery, oracle, reroute, solver  # noqa: E402
from pdpp.certificates import FaceCertificate, interleaving_face  # noqa: E402
from pdpp.instances import (  # noqa: E402
    DppInstance,
    Solution,
    gen_grid_instance,
    gen_random_planar,
    parse_instance,
    write_instance,
)
from pdpp.plane import (  # noqa: E402
    centers,
    closed_interior,
    delete_vertices,
    grid_ring,
    grid_vertex,
    make_grid,
    plane_graph_from_edges,
    plane_graph_from_points,
)

if not Path(solver.__file__).resolve().is_relative_to(root):
    sys.exit(f"error: imported pdpp from {solver.__file__}, not from {root}")


def emit(*fields):
    print(" | ".join(map(str, fields)), flush=True)


def short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome(call):
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001
        return f"raise {type(exc).__name__}: {exc}"


def faces(g):
    """A hash of the face orbits in order, the outer face id and the face count."""
    return short(repr((g.faces(), g.outer_face(), g.num_faces())))


def rotation_hash(g):
    return short(repr(sorted(g.rotation.items())))


def least_budget(decides, hi):
    """Least budget b in [0, hi] with decides(b) true; decides is monotone."""
    lo = 0
    if not decides(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if decides(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def decided(call):
    try:
        call()
        return True
    except Exception as exc:  # older checkouts have no common budget base class
        if type(exc).__name__.endswith("BudgetExceeded"):
            return False
        raise


# -- solve_pipeline on the two solve corpora and on wider grids -------------------


def pipeline(res):
    out = res.outcome
    paths = None if out.solution is None else out.solution.paths
    dec = None if res.decomposition is None else short(res.decomposition.serialize())
    certs = short("\n".join(c.log_line() for c in res.certificates))
    return out.status.value, out.reason, paths, certs, res.iterations, dec


def kernel(inst):
    """n and m before -> after exact_kernel, and the routed pair indices."""
    kern = solver.exact_kernel(inst)
    g = inst.graph
    if kern.inst is None:
        return f"{g.n} {g.m} -> 0 0", sorted(kern.routed), None, None
    h = kern.inst.graph
    return f"{g.n} {g.m} -> {h.n} {h.m}", sorted(kern.routed), h.outer_dart, rotation_hash(h)


for name, workload in (("grid", workloads.GridSolve()), ("sparse", workloads.SparseSolve())):
    for i, (text, tag) in enumerate(workload.draw(7)):
        inst = parse_instance(text)
        res = solver.solve_pipeline(inst)
        emit(name, i, tag, *pipeline(res))
        emit("face-proof", name, i, interleaving_face(inst.graph, inst.pairs))
        if name == "sparse":
            emit("kernel", i, *kernel(inst))
        if name != "grid":
            continue
        # a pipeline that ran the DP keeps the decomposition it ran on
        stage = "one-face" if res.decomposition is None else "dp"
        emit("grid-stage", i, stage, res.no_certificate)
        if i % 4 == 0:
            inst = parse_instance(text)
            emit("grid-low", i, outcome(lambda: (lambda low: (low.status.value, low.reason))(
                solver.dp_solve(inst, decomposition.tree_decompose(inst.graph), state_budget=2_000))))

for mode, sides, ks in (
    ("heuristic", (7, 8), (5, 6)),
    ("certified", (7,), (2, 3)),
    ("heuristic", (6,), (2, 3, 4)),
    ("heuristic", (7,), (2,)),
):
    for side in sides:
        for k in ks:
            for seed in range(3):
                res = solver.solve_pipeline(gen_grid_instance(side, k, seed), mode=mode)
                emit("wide", mode, side, k, seed, *pipeline(res))

for side in (7, 8, 9):
    for seed in range(2):
        inst = gen_grid_instance(side, 2, seed)
        h = inst.graph
        perm = list(range(1, h.n + 1))
        random.Random(side * 100 + seed).shuffle(perm)
        new = dict(zip(h.vertices, perm))
        g = plane_graph_from_edges(
            h.n,
            [(new[u], new[v]) for u, v in h.edges],
            {new[v]: [new[w] for w in h.rotation[v]] for v in h.vertices},
            (new[h.outer_dart[0]], new[h.outer_dart[1]]),
        )
        inst = DppInstance(g, tuple((new[s], new[t]) for s, t in inst.pairs))
        emit("wide-relabelled", side, 2, seed, *pipeline(solver.solve_pipeline(inst)))

for side in (9, 12):
    for k in range(3, 7):
        for seed in range(20):
            got = solver.one_face_decision(gen_grid_instance(side, k, seed))
            cert = got if isinstance(got, FaceCertificate) else None
            paths = short(repr(got.paths)) if isinstance(got, Solution) else None
            emit("oneface", side, k, seed, type(got).__name__, cert, paths)

# -- verify_tight and cheapest linkages on the tight pool -----------------------------


def cheapest(g, pairs, cycles):
    """Paths and cost of best_linkage_for_pattern's linkage, and of
    cheapest_equivalent_linkage's from the first system plain enumeration
    finds (solve_bruteforce's solution); None when the pattern has none."""
    best = oracle.best_linkage_for_pattern(g, pairs, cycles)
    if best is None:
        return None
    first = oracle.solve_bruteforce(DppInstance(g, tuple(pairs))).solution
    again = oracle.cheapest_equivalent_linkage(g, oracle.Linkage(first.paths), cycles)
    return [(lk.paths, oracle.linkage_cost(lk, cycles)) for lk in (best, again)]


hosts = workloads.read_pool(workloads.TIGHT_POOL)
for row in hosts:
    spec = workloads.HostSpec.parse(row[4:8])
    g, vid = gallery.ring_lattice(3, spec.sectors, spokes=lambda ring, s: ring >= 1 or spec.spokes[s])
    emit("tight-faces", row[0], faces(g))
    cc = concentric.make_concentric(g, [gallery.ring_cycle(vid, r, spec.sectors) for r in spec.family])

    def tight(b):
        r = concentric.verify_tight(g, cc, b)
        return r.ok, r.problems

    for budget in (5, 500, 200_000):
        emit("tight", row[0], budget, outcome(lambda: tight(budget)))
    pairs = [(vid(2, a), vid(2, b)) for a, b in spec.pairs]
    cycles = list(cc.cycles)
    found = outcome(lambda: cheapest(g, pairs, cycles))
    emit("cheapest", row[0], found)
    emit("face-proof", "tight", row[0], interleaving_face(g, pairs))
    if found == "None":
        emit("cheapest-plain", row[0], oracle.solve_bruteforce(DppInstance(g, tuple(pairs))).status.value)
    if int(row[0]) % 8 == 0:
        s = least_budget(lambda b: decided(lambda: tight(b)), 10_000_000)
        emit("tight-least", row[0], s, outcome(lambda: tight(s)), outcome(lambda: tight(s - 1)))

        def best(b):
            return oracle.best_linkage_for_pattern(g, pairs, cycles, budget=b)

        s = least_budget(lambda b: decided(lambda: best(b)), 10_000_000)
        emit("linkage", row[0], s, outcome(lambda: best(s)), outcome(lambda: best(s - 1)))

# -- configuration structure on tight hosts, and concentric extraction -------------


def cycles_of(cc):
    return [c.vertices for c in cc.cycles]


def crossing(g, link, disk):
    c = reroute.vertical_crossing(g, link, disk)
    return c.lines, c.up, c.down


def untangled(g, link, disk):
    u = reroute.untangle_disk(g, link, disk, len(link.paths))
    return None if u is None else (u.chords, u.routes)


def config_lines(tag, q):
    """Segments, convexity, out-structure, segment tree, classes and tilted grids of q."""
    segs = clconfig.segments(q)
    for s in segs:
        zone = None if s.zone_faces is None else short(repr(sorted(s.zone_faces)))
        emit("seg", tag, s.index, s.path_index, s.vertices, s.eccentricity, s.extremal, s.chords, zone)
    emit("convex", tag, clconfig.is_convex(q, segs), clconfig.is_touch_free(q))
    out = clconfig.out_structure(q, segs)
    caves = tuple(sorted(c) for c in out.caves)
    terminals = [sorted(t) for t in (out.flying_terminals, out.invading_terminals, out.bouncing_terminals)]
    emit("out", tag, short(repr((out.flying_hairs, out.hairs, out.out_segments, caves, terminals))))
    emit("crossing", tag, outcome(lambda: crossing(q.graph, q.linkage, q.outer_disc())))
    emit("untangled", tag, outcome(lambda: untangled(q.graph, q.linkage, q.outer_disc())))

    def tree():
        t = clconfig.segment_tree(q, segs)
        regions = tuple(None if r is None else tuple(sorted(r)) for r in t.regions)
        return (t.parent, t.kinds, short(repr(regions)), t.segment_of_edge,
                t.height, t.real_height, t.dilation, t.leaves)

    emit("tree", tag, outcome(tree))
    try:
        classes = clconfig.segment_types(q, segs)
    except clconfig.ConfigError as exc:
        emit("types", tag, f"raise {type(exc).__name__}: {exc}")
        return
    emit("types", tag, [[s.index for s in c] for c in classes])
    for c in classes:
        u = outcome(lambda: (lambda u: (u.capacity, short(repr((u.x_paths, u.z_paths)))))(
            clconfig.extract_tilted_grid(q, c)))
        emit("tilted", tag, [s.index for s in c], u)


def reduced(q):
    """n, m, outer dart and rotation of the reduced pair's graph, its cycles and paths."""
    r = clconfig.reduce_configuration(q)
    h = r.graph
    return h.n, h.m, h.outer_dart, rotation_hash(h), cycles_of(r.cycles), r.linkage.paths


for row in hosts:
    spec = workloads.HostSpec.parse(row[4:8])
    g, vid = gallery.ring_lattice(3, spec.sectors, spokes=lambda ring, s: ring >= 1 or spec.spokes[s])
    cc = concentric.make_concentric(g, [gallery.ring_cycle(vid, r, spec.sectors) for r in spec.family])
    emit("tighten", row[0], outcome(lambda: cycles_of(concentric.tighten(g, cc))))
    if row[2] != "tight":
        continue
    pairs = [(vid(2, a), vid(2, b)) for a, b in spec.pairs]
    try:
        best = oracle.best_linkage_for_pattern(g, pairs, list(cc.cycles))
    except oracle.BudgetExceeded:
        best = None
    if best is not None:
        q = clconfig.CLConfiguration(g, cc, best)
        config_lines(row[0], q)
        emit("reduced", row[0], outcome(lambda: reduced(q)))

config_lines("showcase", gallery.nested_chord_showcase())
# five nested chords of eccentricities 0..4 on seven rings: one class of capacity 3
g, vid = gallery.ring_lattice(7, 16)
chain = []
for ecc in range(5):
    a, b = ecc, 15 - ecc
    chain.append(tuple([vid(r, a) for r in range(6, ecc - 1, -1)] + [vid(ecc, s) for s in range(a + 1, b + 1)]
                       + [vid(r, b) for r in range(ecc + 1, 7)]))
family = concentric.make_concentric(g, [gallery.ring_cycle(vid, r, 16) for r in range(6)])
config_lines("chain", clconfig.CLConfiguration(g, family, oracle.Linkage(tuple(chain))))


def polar(radius, s):
    return radius * math.cos(math.pi * s / 3), radius * math.sin(math.pi * s / 3)


# two rings of six inside a platform ring, with an apex outside ring 1 between
# sectors 0 and 1; the path bounces off the outer cycle at vid(1, 0) and vid(1, 1)
vid = lambda ring, s: ring * 6 + s % 6 + 1  # noqa: E731
points = {vid(ring, s): polar(1 + ring, s) for ring in range(3) for s in range(6)}
points[19] = polar(2.6, 0.5)
edges = [(vid(ring, s), vid(ring, s + 1)) for ring in range(3) for s in range(6)]
edges += [(vid(ring, s), vid(ring + 1, s)) for ring in range(2) for s in range(6)]
edges += [(vid(1, 0), 19), (19, vid(1, 1))]
g = plane_graph_from_points(points, edges)
family = concentric.make_concentric(g, [gallery.ring_cycle(vid, r, 6) for r in range(2)])
bounce = oracle.Linkage(((vid(2, 0), vid(1, 0), 19, vid(1, 1), vid(2, 1)),))
config_lines("bounce", clconfig.CLConfiguration(g, family, bounce))

for side in (7, 8, 9):
    g = make_grid(side, side)
    for q in (4, side):
        model = decomposition.find_grid_minor(g, q)
        for depth in (0, 1):
            for avoid in (frozenset(), frozenset({1}), frozenset({min(centers(g))})):
                emit("concentric", side, q, depth, sorted(avoid), outcome(
                    lambda: cycles_of(concentric.concentric_from_grid(g, model, avoid, depth))))
    for offsets in ((1,), (2,), (2, 1), (3, 1), (3, 2, 1)):
        if max(offsets) <= (side - 2) // 2:
            family = concentric.make_concentric(g, [grid_ring(g, o) for o in offsets])
            emit("tighten-grid", side, offsets, outcome(lambda: cycles_of(concentric.tighten(g, family))))

# -- least deciding budgets ------------------------------------------------------
for seed in range(40):
    n = 8 + seed % 7
    inst = gen_random_planar(n, min(3 * n - 6, n + 2 + seed % 6), 1 + seed % 3, seed)
    s = least_budget(
        lambda b: oracle.solve_bruteforce(inst, budget=b).status is not oracle.Status.UNKNOWN,
        10_000_000,
    )
    emit("oracle", seed, s, oracle.solve_bruteforce(inst, budget=s), oracle.solve_bruteforce(inst, budget=s - 1))

for seed in range(30):
    inst = gen_grid_instance(4 + seed % 2, 2 + seed % 2, seed) if seed % 3 else gen_random_planar(
        14, 24, 2, seed
    )
    s = least_budget(lambda b: decided(lambda: solver.dp_solve(inst, state_budget=b)), 400_000)
    emit("dp", seed, s, outcome(lambda: solver.dp_solve(inst, state_budget=s)),
         outcome(lambda: solver.dp_solve(inst, state_budget=s - 1)))
    # the branch-decomposition-derived decomposition has the most joins
    td = decomposition.td_from_bd(inst.graph, decomposition.best_heuristic_bd(inst.graph))
    s = least_budget(lambda b: decided(lambda: solver.dp_solve(inst, td, state_budget=b)), 400_000)
    emit("dp-bd", seed, s, outcome(lambda: solver.dp_solve(inst, td, state_budget=s)),
         outcome(lambda: solver.dp_solve(inst, td, state_budget=s - 1)))

for rows, cols in ((2, 2), (2, 3), (3, 3), (2, 5), (3, 4)):
    g = make_grid(rows, cols)
    for b in range(1, min(rows, cols) + 1):
        s = least_budget(lambda x: decided(lambda: decomposition.branchwidth_decision(g, b, x)), 150_000)
        emit("bw", rows, cols, b, s, outcome(lambda: decomposition.branchwidth_decision(g, b, s)),
             outcome(lambda: decomposition.branchwidth_decision(g, b, s - 1)))

g = make_grid(5, 5)
link = oracle.Linkage(((2, 7, 12, 17, 22, 23, 18, 13, 8, 3, 4, 9, 14, 19, 24),))
disk = closed_interior(g, grid_ring(g, 1))
s = least_budget(lambda b: decided(lambda: reroute.untangle_disk(g, link, disk, 1, budget=b)), 200_000)
emit("untangle", s, outcome(lambda: reroute.untangle_disk(g, link, disk, 1, budget=s)),
     outcome(lambda: reroute.untangle_disk(g, link, disk, 1, budget=s - 1)))
straight = oracle.Linkage(((2, 7, 12, 17, 22), (4, 9, 14, 19, 24)))
for tag, lk in (("snake", link), ("straight", straight)):
    emit("crossing", tag, outcome(lambda: crossing(g, lk, disk)))
    emit("untangled", tag, outcome(lambda: untangled(g, lk, disk)))
tidy = clconfig.TiltedGrid(((7, 8, 9), (12, 13, 14), (17, 18, 19)),
                           ((7, 12, 17), (8, 13, 18), (9, 14, 19)))
for u in (tidy, clconfig.TiltedGrid(tidy.x_paths[:2], tidy.z_paths[:2])):
    emit("improve", u.capacity, outcome(
        lambda: (lambda lk: lk and lk.paths)(reroute.improve_over_tilted_grid(g, link, u))))

for r in range(4, 8):
    # down column 2, up column 3, ...: r lines across rows 2-4
    g = make_grid(5, r + 2)
    link = oracle.Linkage((tuple(
        grid_vertex(5, r + 2, row, col)
        for col in range(2, r + 2)
        for row in (range(1, 6) if col % 2 == 0 else range(5, 0, -1))),))
    disk = closed_interior(g, grid_ring(g, 1))
    emit("snake-untangled", r, outcome(lambda: untangled(g, link, disk)))
    if r <= 6:  # one call at r = 7 takes seconds on checkouts that sort every matching
        s = least_budget(lambda b: decided(lambda: reroute.untangle_disk(g, link, disk, 1, budget=b)), 200_000)
        emit("snake-least", r, s, outcome(lambda: reroute.untangle_disk(g, link, disk, 1, budget=s)),
             outcome(lambda: reroute.untangle_disk(g, link, disk, 1, budget=s - 1)))

# -- embeddings computed without a rotation system ----------------------------------


def embedding(g):
    return rotation_hash(g), g.outer_dart


for row in workloads.read_pool(workloads.SPARSE_POOL):
    pool_id, n, m, k, gen_seed = row[0], *map(int, row[1:5])
    text = workloads.strip_embedding(write_instance(gen_random_planar(n, m, k, gen_seed)))
    inst = parse_instance(text)
    status = solver.solve_pipeline(inst).outcome.status.value
    emit("embed", pool_id, *embedding(inst.graph), status, row[5])
    emit("embed-faces", pool_id, faces(inst.graph))

for rows in range(2, 13):
    for cols in range(2, 13):
        h = make_grid(rows, cols)
        perm = list(range(1, h.n + 1))
        random.Random(rows * 100 + cols).shuffle(perm)
        g = plane_graph_from_edges(h.n, [(perm[a - 1], perm[b - 1]) for a, b in h.edges])
        emit("embed-grid", rows, cols, *embedding(g), g.grid_shape)
        emit("embed-grid-faces", rows, cols, faces(g))


# -- graphs derived by vertex deletion ------------------------------------------------


def doomed_sets(tag, g):
    """Six seeded random vertex sets of up to a third of g, every vertex of
    the outer face, and the outer face's vertices but the ends of one of its
    darts."""
    rng = random.Random(f"derive-{tag}")
    for _ in range(6):
        yield rng.sample(g.vertices, rng.randint(1, max(1, g.n // 3)))
    orbit = g.faces()[g.outer_face()] if g.m else ()
    ring = {u for u, _ in orbit}
    yield sorted(ring)
    spared = set(rng.choice(orbit)) if orbit else set()
    yield sorted(ring - spared)


derive_graphs = [(f"grid{side}", make_grid(side, side)) for side in range(6, 10)]
for row in workloads.read_pool(workloads.SPARSE_POOL)[:50]:
    n, m, k, gen_seed = map(int, row[1:5])
    derive_graphs.append((f"sparse{row[0]}", gen_random_planar(n, m, k, gen_seed).graph))
for tag, g in derive_graphs:
    for j, doomed in enumerate(doomed_sets(tag, g)):
        h, remap = delete_vertices(g, doomed)
        emit("derive", tag, j, h.n, h.m, h.outer_dart, rotation_hash(h), short(repr(sorted(remap.items()))))


# -- the loader on mutated instance texts --------------------------------------------


def parse_corpus(count):
    """Grid (side 2-6) and random planar (n 3-30) instance texts, with and
    without their rot and outer lines, from a fixed seed: every fourth as
    written, the others after one to three edits (a line dropped, duplicated,
    swapped or cut short, a field garbled, two neighbours of a rotation
    swapped, a neighbour or the outer dart replaced). Two edgeless texts
    with and without an outer record come first."""
    yield "p dpp 3 0 1\nouter 1 2\nt 1 2\n"
    yield "p dpp 3 0 1\nt 1 2\n"
    rng = random.Random("parse-corpus")
    garble = ["x", "1.5", "p", "e", "rot", "outer", "t", "#", ""]
    for i in range(count - 2):
        if i % 2:
            side = rng.randint(2, 6)
            inst = gen_grid_instance(side, rng.randint(1, 2 if side == 2 else 4), rng.randrange(2**16))
        else:
            n = rng.randint(3, 30)
            inst = gen_random_planar(n, rng.randint(n - 1, 3 * n - 6), rng.randint(1, n // 2), rng.randrange(2**32))
        n = inst.graph.n
        keep_rot, keep_outer = rng.random() < 0.5, rng.random() < 0.5
        lines = [
            line for line in write_instance(inst).splitlines()
            if (keep_rot or not line.startswith("rot")) and (keep_outer or not line.startswith("outer"))
        ]
        for _ in range(0 if i % 4 == 0 else rng.randint(1, 3)):
            edit = rng.choice(["drop", "duplicate", "swap", "cut", "garble", "reorder", "neighbour", "outer"])
            rot_lines = [j for j, line in enumerate(lines) if line.startswith("rot") and len(line.split()) > 3]
            if edit in ("reorder", "neighbour") and rot_lines:
                j = rng.choice(rot_lines)
                fields = lines[j].split()
                a, b = rng.randrange(3, len(fields)), rng.randrange(3, len(fields))
                if edit == "reorder":
                    fields[a], fields[b] = fields[b], fields[a]
                else:
                    fields[a] = str(rng.randint(1, n))
                lines[j] = " ".join(fields)
            elif edit == "outer":
                lines = [line for line in lines if not line.startswith("outer")]
                lines.insert(1, f"outer {rng.randint(1, n)} {rng.randint(1, n)}")
            elif len(lines) > 1:
                j = rng.randrange(len(lines))
                fields = lines[j].split()
                f = rng.randrange(len(fields))
                if edit == "drop":
                    del lines[j]
                elif edit == "duplicate":
                    lines.insert(j, lines[j])
                elif edit == "swap":
                    k = rng.randrange(len(lines))
                    lines[j], lines[k] = lines[k], lines[j]
                elif edit == "cut":
                    lines[j] = " ".join(fields[:f] + fields[f + 1:])
                else:
                    fields[f] = rng.choice(garble) if rng.random() < 0.5 else str(rng.randint(-1, n + 1))
                    lines[j] = " ".join(fields)
        yield "\n".join(lines) + "\n"


def loaded(text):
    inst = parse_instance(text)
    g = inst.graph
    return short(repr((sorted(g.rotation.items()), g.faces(), g.outer_dart, inst.pairs)))


for i, text in enumerate(parse_corpus(3000)):
    emit("parse", i, outcome(lambda: loaded(text)))

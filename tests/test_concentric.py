"""Differential test: tightness verification restricted to the outer disc.

`verify_tight` enumerates only the cycles of the outer closed disc's
subgraph. The reference below is the unrestricted verifier it replaced: it
enumerates every simple cycle of the host and applies the same two checks.
"""

import random

from conftest import corpus_host

from pdpp.concentric import (
    _disc_adjacency,
    _iter_cycles,
    make_concentric,
    verify_tight,
)
from pdpp.gallery import ring_cycle, shortcut_annulus_host
from pdpp.plane import CheckResult, Cycle, closed_interior, grid_ring, make_grid

BUDGET = 2_000_000


def _reference_cycles(g, budget):
    """Every simple cycle of the whole host (DFS with minimum-root canonicity)."""
    spent = [0]
    adj = {v: sorted(g.rotation[v]) for v in g.vertices}
    for root in sorted(g.vertices):
        path = [root]
        on_path = {root}

        def walk():
            spent[0] += 1
            assert spent[0] <= budget, "reference enumeration over budget"
            v = path[-1]
            for w in adj[v]:
                if w < root:
                    continue
                if w == root and len(path) >= 3 and path[1] < path[-1]:
                    yield Cycle(tuple(path))
                if w not in on_path and w != root:
                    path.append(w)
                    on_path.add(w)
                    yield from walk()
                    on_path.discard(w)
                    path.pop()

        yield from walk()


def _reference_problem(g, cc, cyc):
    """The problem one cycle raises in the unrestricted verifier, or None."""
    discs = cc.discs
    region = closed_interior(g, cyc)
    if region.is_proper_subset_of(discs[0]):
        return f"disc 0 is not surface minimal: cycle {cyc.vertices} fits inside"
    for i in range(len(discs) - 1):
        inner, outer = discs[i], discs[i + 1]
        if cyc.vertex_set & inner.vertices:
            continue
        if not (cyc.vertex_set <= outer.vertices and cyc.edges <= outer.edges):
            continue
        if cyc.normalized() == cc.cycles[i + 1].normalized():
            continue
        if inner.faces <= region.faces and region.faces < outer.faces:
            return f"cycle {cyc.vertices} slips between discs {i} and {i + 1}"
    return None


def _reference_verify_tight(g, cc, cycles):
    for cyc in cycles:
        problem = _reference_problem(g, cc, cyc)
        if problem is not None:
            return CheckResult(False, (problem,))
    return CheckResult(True, ())


def _hosts():
    """(label, host, family) triples: seeded ring lattices and small grids."""
    rng = random.Random(20131)
    for sectors in (5, 6, 7):
        for _ in range(3):
            seed = rng.randrange(10_000)
            g, vid, _ = corpus_host(sectors, 2, seed, spoke_prob=0.5)
            for rings in ((0, 1), (1,), (0,)):
                family = make_concentric(
                    g, [ring_cycle(vid, r, sectors) for r in rings]
                )
                yield f"lattice s={sectors} seed={seed} rings={rings}", g, family
    g, vid, _ = shortcut_annulus_host()
    for rings in ((0, 1, 2), (1, 2), (0, 1)):
        family = make_concentric(g, [ring_cycle(vid, r, 6) for r in rings])
        yield f"shortcut annulus rings={rings}", g, family
    for side in (4, 5):
        g = make_grid(side, side)
        for offsets in ((1, 0), (1,), (0,)):
            family = make_concentric(g, [grid_ring(g, o) for o in offsets])
            yield f"grid {side}x{side} offsets={offsets}", g, family


def test_restriction_matches_unrestricted_verifier():
    kinds = set()
    for label, g, cc in _hosts():
        outer = cc.discs[-1]
        full = list(_reference_cycles(g, BUDGET))
        restricted = list(_iter_cycles(_disc_adjacency(outer), BUDGET))
        in_disc = [
            c for c in full if c.vertex_set <= outer.vertices and c.edges <= outer.edges
        ]
        assert restricted == in_disc, label
        kept = set(restricted)
        for cyc in full:
            if cyc not in kept:
                assert _reference_problem(g, cc, cyc) is None, (label, cyc)
        got = verify_tight(g, cc, budget=BUDGET)
        want = _reference_verify_tight(g, cc, full)
        assert (got.ok, got.problems) == (want.ok, want.problems), label
        if got.ok:
            kinds.add("tight")
        else:
            kinds.add("slip" if "slips between" in got.problems[0] else "not minimal")
    # the corpus has tight families and families failing either check
    assert kinds == {"tight", "not minimal", "slip"}


def test_cycle_identity_survives_cached_properties():
    a = Cycle((3, 1, 2, 5))
    b = Cycle((3, 1, 2, 5))
    before = hash(a)
    assert a.edges == frozenset({(1, 3), (1, 2), (2, 5), (3, 5)})
    assert a.vertex_set == frozenset({1, 2, 3, 5})
    assert a == b and hash(a) == before == hash(b)
    assert {a: "x"}[b] == "x"
    assert a != Cycle((1, 2, 5, 3))
    assert repr(a) == "Cycle(vertices=(3, 1, 2, 5))"

"""Differential tests: tightness verification restricted to disc 0 and the annuli.

`verify_tight` enumerates only the cycles of disc 0's subgraph and of each
annulus between consecutive discs, merged in lexicographic order, and
derives a cycle's closed interior only when a check reads it. The
reference below is the unrestricted, eager verifier it replaced: it
enumerates every simple cycle of the host and applies the same two checks,
deriving every cycle's closed interior. The last tests pin two paths of
the extraction that make families for it: tightening disc 0, and
`concentric_from_grid`'s retry with a block's rings in reversed order.
"""

import random

import pytest
from conftest import corpus_host
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

import pdpp.concentric
from pdpp.concentric import (
    CycleBudgetExceeded,
    _layer_cycles,
    concentric_from_grid,
    make_concentric,
    tighten,
    verify_tight,
)
from pdpp.gallery import ring_cycle, shortcut_annulus_host
from pdpp.plane import (
    Budget,
    CheckResult,
    Cycle,
    GridMinorModel,
    PlaneGraph,
    PlaneGraphError,
    closed_interior,
    grid_ring,
    grid_vertex,
    make_grid,
)

BUDGET = 2_000_000
# The property test compares against the unrestricted reference, whose
# eager regions cost about 0.2 ms per host cycle; a 7-sector host with three
# cycle rings and every spoke has about 300,000 cycles. Examples whose host
# needs more reference steps than this are discarded.
REFERENCE_STEPS = 100_000


class ReferenceOverBudget(AssertionError):
    """The reference enumeration took more steps than it was given."""


def _reference_cycles(g, budget):
    """Every simple cycle of the whole host (DFS with minimum-root canonicity)."""
    spent = [0]
    adj = {v: sorted(g.rotation[v]) for v in g.vertices}
    for root in sorted(g.vertices):
        path = [root]
        on_path = {root}

        def walk():
            spent[0] += 1
            if spent[0] > budget:
                raise ReferenceOverBudget("reference enumeration over budget")
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


def _reference_layer(cc, cyc):
    """0 if the cycle lies in disc 0, i + 1 if it lies in annulus i, else None."""
    discs = cc.discs
    if cyc.vertex_set <= discs[0].vertices and cyc.edges <= discs[0].edges:
        return 0
    for i in range(len(discs) - 1):
        inner, outer = discs[i], discs[i + 1]
        if cyc.vertex_set & inner.vertices:
            continue
        if cyc.vertex_set <= outer.vertices and cyc.edges <= outer.edges:
            return i + 1
    return None


def test_restriction_matches_unrestricted_verifier():
    kinds = set()
    for label, g, cc in _hosts():
        full = list(_reference_cycles(g, BUDGET))
        merged = list(_layer_cycles(cc.discs, Budget(BUDGET).spend))
        in_layers = [
            (k, c) for c in full if (k := _reference_layer(cc, c)) is not None
        ]
        assert merged == in_layers, label
        kept = {c for _, c in merged}
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


@settings(max_examples=100)
@given(
    sectors=st.integers(4, 7),
    cycle_rings=st.integers(2, 3),
    spoke_prob=st.floats(0.3, 0.9),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_lazy_verifier_matches_eager_reference(sectors, cycle_rings, spoke_prob, seed, data):
    g, vid, _ = corpus_host(sectors, cycle_rings, seed, spoke_prob=spoke_prob)
    rings = data.draw(
        st.lists(st.integers(0, cycle_rings - 1), min_size=1, unique=True).map(sorted)
    )
    cc = make_concentric(g, [ring_cycle(vid, r, sectors) for r in rings])
    try:
        full = list(_reference_cycles(g, REFERENCE_STEPS))
    except ReferenceOverBudget:
        reject()
    got = verify_tight(g, cc, budget=BUDGET)
    want = _reference_verify_tight(g, cc, full)
    assert (got.ok, got.problems) == (want.ok, want.problems)
    event("tight" if got.ok else "slip" if "slips between" in got.problems[0] else "not minimal")


def _pinned_hosts():
    """(id, host, family, steps to decide, regions derived, problems)."""
    g = make_grid(5, 5)
    yield (
        "grid5x5-offsets10",
        g,
        make_concentric(g, [grid_ring(g, o) for o in (1, 0)]),
        157,
        1,
        ("disc 0 is not surface minimal: cycle (7, 8, 9, 14, 13, 12) fits inside",),
    )
    g, vid, _ = shortcut_annulus_host()
    yield (
        "annulus-rings012",
        g,
        make_concentric(g, [ring_cycle(vid, r, 6) for r in (0, 1, 2)]),
        65,
        3,
        ("cycle (13, 18, 17, 16, 15, 14, 19) slips between discs 1 and 2",),
    )
    yield (
        "annulus-rings01",
        g,
        make_concentric(g, [ring_cycle(vid, r, 6) for r in (0, 1)]),
        52,
        1,
        (),
    )


PINNED = list(_pinned_hosts())
PINNED_IDS = [p[0] for p in PINNED]


@pytest.mark.parametrize("label,g,cc,steps,regions,problems", PINNED, ids=PINNED_IDS)
def test_budget_counts_one_step_per_vertex_pushed(label, g, cc, steps, regions, problems):
    # One step per vertex pushed onto the DFS path, each root included: the
    # verifier decides with exactly `steps` and gives up with one fewer.
    assert verify_tight(g, cc, budget=steps).problems == problems
    with pytest.raises(CycleBudgetExceeded):
        verify_tight(g, cc, budget=steps - 1)


@pytest.mark.parametrize("label,g,cc,steps,regions,problems", PINNED, ids=PINNED_IDS)
def test_region_derived_only_when_a_check_reads_it(
    label, g, cc, steps, regions, problems, monkeypatch
):
    calls = []
    derive = pdpp.concentric.closed_interior

    def counted(host, cyc):
        calls.append(cyc)
        return derive(host, cyc)

    monkeypatch.setattr(pdpp.concentric, "closed_interior", counted)
    got = verify_tight(g, cc, budget=BUDGET)
    assert (got.ok, got.problems) == (not problems, problems)
    assert len(calls) == regions


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


# -- extraction paths ---------------------------------------------------------------


def test_tighten_shrinks_disc_0_to_one_face():
    g = make_grid(9, 9)
    cc = make_concentric(g, [grid_ring(g, 3), grid_ring(g, 1)])
    assert len(cc.discs[0].faces) == 4
    t = tighten(g, cc)
    assert len(t.discs[0].faces) == 1
    assert t.cycles[0].normalized() == Cycle((31, 40, 41, 32)).normalized()
    assert verify_tight(g, t)


def test_extraction_retries_a_block_with_its_rings_reversed(monkeypatch):
    # face (10, 11, 19, 18) is outside, and it is ring 0 of the first block,
    # so ring 0's disc holds ring 1 and only the reversed order is concentric
    grid = make_grid(8, 8)
    g = PlaneGraph(grid.n, grid.edges, grid.rotation, (11, 10))
    phi = {
        (r, c): frozenset({grid_vertex(8, 8, r, c)})
        for r in range(1, 9)
        for c in range(1, 9)
    }
    model = GridMinorModel(8, 8, phi)
    tries = []

    def recording(host, cycles):
        cycles = tuple(cycles)
        try:
            cc = make_concentric(host, cycles)
        except PlaneGraphError:
            tries.append((cycles, None))
            raise
        tries.append((cycles, cc))
        return cc

    monkeypatch.setattr(pdpp.concentric, "make_concentric", recording)
    got = concentric_from_grid(g, model, frozenset(), 1)
    (first, failed), (second, family) = tries
    assert failed is None and family is not None
    assert second == first[::-1]
    assert [c.normalized() for c in got.cycles] == [
        grid_ring(g, 0).normalized(),
        grid_ring(g, 1).normalized(),
    ]
    assert verify_tight(g, got)

"""Shared corpus builders: ring hosts with tight cycles and cheapest linkages."""

import random

import pytest
from hypothesis import settings

from pdpp.clconfig import CLConfiguration
from pdpp.concentric import make_concentric
from pdpp.gallery import ring_cycle, ring_lattice
from pdpp.oracle import BudgetExceeded, best_linkage_for_pattern

# Every property test draws the same examples on every run and keeps no
# example database; each test sets only its own max_examples.
settings.register_profile("pdpp", derandomize=True, deadline=None, database=None)
settings.load_profile("pdpp")


def corpus_host(sectors: int, cycle_rings: int, seed: int, spoke_prob: float = 0.7):
    """Ring lattice with `cycle_rings` concentric cycles plus a terminal platform.

    Spokes between cycle rings are sampled (at least one per annulus, at
    sector 0); every platform spoke is kept so terminals stay reachable.
    """
    rng = random.Random(seed)
    kept = {
        (ring, s): (s == 0 or rng.random() < spoke_prob)
        for ring in range(cycle_rings - 1)
        for s in range(sectors)
    }

    def spokes(ring: int, s: int) -> bool:
        if ring >= cycle_rings - 1:
            return True
        return kept[(ring, s)]

    g, vid = ring_lattice(cycle_rings + 1, sectors, spokes=spokes)
    cc = make_concentric(
        g, [ring_cycle(vid, r, sectors) for r in range(cycle_rings)]
    )
    return g, vid, cc


def cheap_configuration(
    sectors: int,
    cycle_rings: int,
    k: int,
    seed: int,
    budget: int = 4_000_000,
):
    """A configuration with oracle-cheapest linkage on a tight ring host, or None."""
    g, vid, cc = corpus_host(sectors, cycle_rings, seed)
    rng = random.Random(seed * 7919 + 13)
    platform = [vid(cycle_rings, s) for s in range(sectors)]
    if 2 * k > len(platform):
        return None
    terminals = rng.sample(platform, 2 * k)
    pairs = [(terminals[2 * i], terminals[2 * i + 1]) for i in range(k)]
    try:
        best = best_linkage_for_pattern(g, pairs, list(cc.cycles), budget=budget)
    except BudgetExceeded:
        return None
    if best is None:
        return None
    return CLConfiguration(g, cc, best)


@pytest.fixture(scope="session")
def showcase():
    from pdpp.gallery import nested_chord_showcase

    return nested_chord_showcase()

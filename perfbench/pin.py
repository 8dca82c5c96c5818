"""Regenerate the pinned pools in `data/` and their reference verdicts.

    python3 perfbench/pin.py sparse    # data/sparse_pool.txt
    python3 perfbench/pin.py tight     # data/tight_pool.txt

The verdicts come from the exhaustive oracles with budgets well above the
defaults, once, at the commit that pins them; the benchmark then checks
every later commit against these files. An entry the oracles cannot decide
is left out and reported. Re-pinning changes the benchmark: do it only in
a change that redefines the benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import random
import sys

from run import use_checkout
from workloads import SPARSE_POOL, TIGHT_POOL, TIGHT_SECTORS, random_host
import reference

SPARSE_POOL_SIZE = 2000
TIGHT_POOL_SIZES = {"two-ring": 420, "one-ring": 60}
ORACLE_BUDGET = 40_000_000
TIGHT_BUDGET = 4_000_000


def pin_sparse() -> None:
    from pdpp.instances import gen_random_planar
    from pdpp.oracle import Status, solve_bruteforce
    from pdpp.plane import PlaneGraphError

    rng = random.Random("sparse-pool")
    rows, skipped = [], 0
    for gen_seed in range(SPARSE_POOL_SIZE):
        n = rng.randint(25, 35)
        m = rng.randint(-(-3 * n // 2), 11 * n // 5)
        k = rng.choice((2, 3))
        try:
            inst = gen_random_planar(n, m, k, gen_seed)
        except PlaneGraphError:  # the thinning could not stay connected
            skipped += 1
            continue
        out = solve_bruteforce(inst, ORACLE_BUDGET)
        if out.status is Status.UNKNOWN:
            skipped += 1
            continue
        rows.append(f"{len(rows)} {n} {m} {k} {gen_seed} {out.status.value}\n")
    header = (
        "# sparse-solve pool: gen_random_planar(n, m, k, gen_seed) and its\n"
        f"# solve_bruteforce verdict (budget {ORACLE_BUDGET}), pinned by pin.py.\n"
        "# id n m k gen_seed verdict\n"
    )
    SPARSE_POOL.write_text(header + "".join(rows), encoding="utf-8")
    print(f"{len(rows)} sparse instances pinned, {skipped} undecided or not generated, left out")


def pin_tight() -> None:
    from pdpp.concentric import make_concentric, verify_tight
    from pdpp.gallery import ring_cycle, ring_lattice
    from pdpp.oracle import best_linkage_for_pattern

    rng = random.Random("tight-pool")
    rows = []
    for stratum, size in TIGHT_POOL_SIZES.items():
        for i in range(size):
            k = 1 + i % 3 if stratum == "two-ring" else 2
            family = (0, 1) if stratum == "two-ring" else (1,)
            spec = random_host(rng, TIGHT_SECTORS, k, family)
            g, vid = ring_lattice(3, spec.sectors, spokes=lambda r, s: r >= 1 or spec.spokes[s])
            cc = make_concentric(g, [ring_cycle(vid, r, spec.sectors) for r in family])
            pairs = [(vid(2, a), vid(2, b)) for a, b in spec.pairs]
            best = best_linkage_for_pattern(g, pairs, list(cc.cycles), budget=ORACLE_BUDGET)
            tight = bool(verify_tight(g, cc, budget=TIGHT_BUDGET))
            if best is None:
                cost = "none"
            else:
                cycle_edges = set().union(*(spec.ring_edges(r) for r in family))
                cost = str(reference.linkage_cost([list(p) for p in best.paths], cycle_edges))
            verdict = "tight" if tight else "not-tight"
            rows.append(f"{len(rows)} {stratum} {verdict} {cost} {spec.line()}\n")
    header = (
        "# tight-verify pool: 3-ring lattice hosts, pinned by pin.py with\n"
        f"# verify_tight (budget {TIGHT_BUDGET}) and the cheapest linkage cost from\n"
        f"# best_linkage_for_pattern (budget {ORACLE_BUDGET}).\n"
        "# id stratum verdict cost sectors family spokes pairs\n"
    )
    TIGHT_POOL.write_text(header + "".join(rows), encoding="utf-8")
    print(f"{len(rows)} tight-verify configurations pinned")


if __name__ == "__main__":
    use_checkout()
    {"sparse": pin_sparse, "tight": pin_tight}[sys.argv[1]]()

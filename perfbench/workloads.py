"""The three workloads: how each builds its corpus, runs one item, and checks it.

A workload's `build` is the set-up a run pays before its first item: it
imports `pdpp`, draws the corpus from the seed and writes the program's
inputs to disk. `load` reads them back together with the reference each
answer is checked against, `call` is the timed program call for one item,
and `check` compares its result with the reference.

Program functions are looked up as module attributes at call time, so the
timers the traced run installs on those attributes see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import reference

DATA = Path(__file__).resolve().parent / "data"
SPARSE_POOL = DATA / "sparse_pool.txt"
TIGHT_POOL = DATA / "tight_pool.txt"
MANIFEST = "manifest.txt"

GRID_SIDE = 5
GRID_PAIRS = 2
GRID_ITEMS = 600
SPARSE_ITEMS = 800
TIGHT_SECTORS = 6
# Every seventh tight-verify item gives only the ring-1 cycle as its family;
# ring 0 then fits inside it, so the verdict is "not tight".
ONE_RING_EVERY = 7

EXIT_YES, EXIT_NO, EXIT_UNDECIDED = 0, 1, 2


@dataclass
class Item:
    key: str
    path: str  # instance file for the solve workloads, "" for tight-verify
    text: str  # instance text, or the host description line
    expect: object  # the reference answer


@dataclass
class Checked:
    decided: bool
    problems: list


def read_pool(path: Path) -> list[list[str]]:
    rows = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    return rows


def even_order(rows: list, key, rng: random.Random) -> list:
    """The rows in a seeded order whose every run of consecutive rows is an
    even cross-section of `key`.

    Rows are sorted by `key` (ties in seeded order) and visited with a
    golden-ratio stride from a seeded start. However many items a run gets
    through, its mix of cheap and costly rows then barely depends on the
    seed, which keeps medians steady from seed to seed.
    """
    rows = sorted(rows, key=lambda r: (key(r), rng.random()))
    n = len(rows)
    step = max(1, round(n * 0.6180339887))
    while math.gcd(step, n) != 1:
        step += 1
    start = rng.randrange(n)
    return [rows[(start + i * step) % n] for i in range(n)]


def strip_embedding(text: str) -> str:
    """Drop the rotation system, so parsing has to compute an embedding."""
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith(("rot ", "outer "))
    )


# -- the two solve workloads -----------------------------------------------------


class SolveWorkload:
    """`pdpp solve --json FILE`, called in-process, one file per item."""

    def build(self, seed: int, out: Path) -> None:
        from pdpp import cli  # noqa: F401  (importing pdpp is part of set-up)

        out.mkdir(parents=True, exist_ok=True)
        lines = []
        for i, (text, tag) in enumerate(self.draw(seed)):
            name = f"{i:04d}.dpp"
            (out / name).write_text(text, encoding="utf-8")
            lines.append(f"{name} {tag}\n")
        (out / MANIFEST).write_text("".join(lines), encoding="utf-8")

    def load(self, out: Path) -> list[Item]:
        items = []
        for line in (out / MANIFEST).read_text(encoding="utf-8").splitlines():
            name, tag = line.split()
            path = out / name
            text = path.read_text(encoding="utf-8")
            items.append(Item(f"{name}:{tag}", str(path), text, self.expected(text, tag)))
        return items

    def call(self, item: Item):
        from pdpp import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["solve", "--json", item.path])
        return code, out.getvalue()

    def check(self, item: Item, raw) -> Checked:
        code, stdout = raw
        if code not in (EXIT_YES, EXIT_NO, EXIT_UNDECIDED):
            return Checked(False, [f"exit code {code}"])
        try:
            payload = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return Checked(False, [f"no JSON answer on stdout: {stdout[:200]!r}"])
        answer = payload.get("answer")
        want = {"yes": EXIT_YES, "no": EXIT_NO}.get(answer, EXIT_UNDECIDED)
        if want != code:
            return Checked(False, [f"answer {answer!r} with exit code {code}"])
        if code == EXIT_UNDECIDED:
            return Checked(False, [])
        problems = []
        if answer != item.expect:
            problems.append(f"answered {answer}, reference says {item.expect}")
        if answer == "yes":
            edges, pairs = reference.read_dpp(item.text)
            problems += reference.linkage_problems(edges, pairs, payload.get("paths") or [])
        return Checked(True, problems)


class GridSolve(SolveWorkload):
    """5x5 grids, two pairs on the outer cycle; the reference is the boundary rule."""

    tail_percentile = 90  # 120-180 items a run at the baseline

    def draw(self, seed: int):
        from pdpp.instances import gen_grid_instance, write_instance

        rng = random.Random(f"grid-solve:{seed}")
        for _ in range(GRID_ITEMS):
            gen_seed = rng.randrange(1 << 30)
            yield write_instance(gen_grid_instance(GRID_SIDE, GRID_PAIRS, gen_seed)), str(gen_seed)

    def expected(self, text: str, tag: str) -> str:
        edges, pairs = reference.read_dpp(text)
        return "yes" if reference.boundary_rule(edges, pairs) else "no"


class SparseSolve(SolveWorkload):
    """Random sparse planar graphs from the pinned pool; half without a rotation system."""

    tail_percentile = 95  # 400-600 items a run at the baseline

    def draw(self, seed: int):
        from pdpp.instances import gen_random_planar, write_instance

        pool = read_pool(SPARSE_POOL)
        rng = random.Random(f"sparse-solve:{seed}")
        for i, row in enumerate(rng.sample(pool, min(SPARSE_ITEMS, len(pool)))):
            pool_id, n, m, k, gen_seed = row[0], *map(int, row[1:5])
            text = write_instance(gen_random_planar(n, m, k, gen_seed))
            yield (strip_embedding(text) if i % 2 else text), pool_id

    def expected(self, text: str, tag: str) -> str:
        if not hasattr(self, "_verdicts"):
            self._verdicts = {row[0]: row[5] for row in read_pool(SPARSE_POOL)}
        return self._verdicts[tag]


# -- the tightness research loop ---------------------------------------------------


@dataclass(frozen=True)
class HostSpec:
    """A 3-ring lattice: rings 0 and 1 carry the cycles, ring 2 the terminals."""

    sectors: int
    family: tuple[int, ...]  # rings whose cycles form the concentric family
    spokes: tuple[bool, ...]  # which ring-0/ring-1 spokes exist
    pairs: tuple[tuple[int, int], ...]  # terminal sectors on ring 2

    def line(self) -> str:
        return " ".join(
            (
                str(self.sectors),
                ",".join(map(str, self.family)),
                "".join("1" if s else "0" for s in self.spokes),
                ",".join(f"{a}-{b}" for a, b in self.pairs),
            )
        )

    @classmethod
    def parse(cls, fields: list[str]) -> "HostSpec":
        sectors, family, spokes, pairs = fields
        return cls(
            int(sectors),
            tuple(int(r) for r in family.split(",")),
            tuple(c == "1" for c in spokes),
            tuple(tuple(int(x) for x in p.split("-")) for p in pairs.split(",")),
        )

    def vid(self, ring: int, sector: int) -> int:
        return ring * self.sectors + sector % self.sectors + 1

    def ring_edges(self, ring: int) -> set[frozenset[int]]:
        return {frozenset((self.vid(ring, s), self.vid(ring, s + 1))) for s in range(self.sectors)}

    def edges(self) -> set[frozenset[int]]:
        out = self.ring_edges(0) | self.ring_edges(1) | self.ring_edges(2)
        for s in range(self.sectors):
            if self.spokes[s]:
                out.add(frozenset((self.vid(0, s), self.vid(1, s))))
            out.add(frozenset((self.vid(1, s), self.vid(2, s))))
        return out


def random_host(rng: random.Random, sectors: int, k: int, family: tuple[int, ...]) -> HostSpec:
    """Ring-0/ring-1 spokes kept with probability 0.8 (sector 0 always), k platform pairs."""
    spokes = tuple(s == 0 or rng.random() < 0.8 for s in range(sectors))
    ends = rng.sample(range(sectors), 2 * k)
    pairs = tuple((ends[2 * i], ends[2 * i + 1]) for i in range(k))
    return HostSpec(sectors, family, spokes, pairs)


BUDGET_OUT = "budget exceeded"


class TightVerify:
    """Ring host -> cheapest linkage -> tightness -> convexity and segment tree."""

    tail_percentile = 85  # 85-110 items a run at the baseline

    def build(self, seed: int, out: Path) -> None:
        from pdpp import clconfig, concentric, gallery, oracle  # noqa: F401

        pool = read_pool(TIGHT_POOL)
        rng = random.Random(f"tight-verify:{seed}")
        # verify_tight's cost roughly doubles with each ring-0/ring-1 spoke
        spokes = lambda row: row[6].count("1")  # noqa: E731
        nested = even_order([r for r in pool if r[1] == "two-ring"], spokes, rng)
        single = iter(even_order([r for r in pool if r[1] == "one-ring"], spokes, rng))
        lines = []
        for row in nested:
            lines.append(row)
            if len(lines) % ONE_RING_EVERY == ONE_RING_EVERY - 1:
                extra = next(single, None)
                if extra is not None:
                    lines.append(extra)
        out.mkdir(parents=True, exist_ok=True)
        (out / MANIFEST).write_text("".join(" ".join(r) + "\n" for r in lines), encoding="utf-8")

    def load(self, out: Path) -> list[Item]:
        items = []
        for line in (out / MANIFEST).read_text(encoding="utf-8").splitlines():
            row = line.split()
            pool_id, verdict, cost = row[0], row[2], row[3]
            expect = (verdict == "tight", None if cost == "none" else int(cost))
            items.append(Item(pool_id, "", " ".join(row[4:]), expect))
        return items

    def call(self, item: Item) -> dict:
        from pdpp import clconfig, concentric, gallery, oracle

        spec = HostSpec.parse(item.text.split())
        g, vid = gallery.ring_lattice(
            3, spec.sectors, spokes=lambda ring, s: ring >= 1 or spec.spokes[s]
        )
        cc = concentric.make_concentric(
            g, [gallery.ring_cycle(vid, r, spec.sectors) for r in spec.family]
        )
        pairs = [(vid(2, a), vid(2, b)) for a, b in spec.pairs]
        res: dict = {}
        try:
            best = oracle.best_linkage_for_pattern(g, pairs, list(cc.cycles))
            res["paths"] = None if best is None else [list(p) for p in best.paths]
        except oracle.BudgetExceeded:
            best = None
            res["paths"] = BUDGET_OUT
        try:
            res["tight"] = bool(concentric.verify_tight(g, cc))
        except concentric.CycleBudgetExceeded:
            res["tight"] = BUDGET_OUT
        if res["tight"] is True and best is not None:
            q = clconfig.CLConfiguration(g, cc, best)
            res["convex"] = bool(clconfig.is_convex(q))
            if len(pairs) >= 2 and clconfig.is_touch_free(q):
                segs = clconfig.segments(q)
                tree = clconfig.segment_tree(q, segs)
                res["extremal"] = clconfig.count_extremal(q, segs)
                res["tree"] = (tree.height, tree.real_height, tree.dilation)
        return res

    def check(self, item: Item, res: dict) -> Checked:
        want_tight, want_cost = item.expect
        spec = HostSpec.parse(item.text.split())
        if res["tight"] == BUDGET_OUT or res["paths"] == BUDGET_OUT:
            return Checked(False, [])
        problems = []
        if res["tight"] != want_tight:
            problems.append(f"verify_tight says {res['tight']}, pinned verdict {want_tight}")
        paths = res["paths"]
        if (paths is None) != (want_cost is None):
            problems.append(f"linkage {'missing' if paths is None else 'found'}, pinned cost {want_cost}")
        elif paths is not None:
            pairs = [(spec.vid(2, a), spec.vid(2, b)) for a, b in spec.pairs]
            problems += reference.linkage_problems(spec.edges(), pairs, paths, ordered=False)
            cycle_edges = set().union(*(spec.ring_edges(r) for r in spec.family))
            cost = reference.linkage_cost(paths, cycle_edges)
            if cost != want_cost:
                problems.append(f"linkage cost {cost}, pinned cheapest cost {want_cost}")
        if want_tight and paths is not None:
            # the paper's criteria 3 and 4 for tight cycles with a cheapest linkage
            k = len(spec.pairs)
            if res.get("convex") is not True:
                problems.append("tight cheapest configuration is not convex")
            if "tree" in res:
                height, real_height, dilation = res["tree"]
                if res["extremal"] > 2 * k - 2:
                    problems.append(f"{res['extremal']} extremal segments > 2k-2 = {2 * k - 2}")
                if real_height > 2 * k - 3:
                    problems.append(f"real height {real_height} > 2k-3 = {2 * k - 3}")
                if height and height > dilation * real_height:
                    problems.append(f"height {height} > dilation {dilation} * real height")
        return Checked(True, problems)


WORKLOADS = {
    "grid-solve": GridSolve,
    "sparse-solve": SparseSolve,
    "tight-verify": TightVerify,
}

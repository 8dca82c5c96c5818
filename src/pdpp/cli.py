"""Command-line front end: solve, reduce, analyze, route, gen, verify.

Exit codes: 0 = YES/valid, 1 = NO/invalid, 2 = indeterminate, 64 = usage
error, 65 = parse error. All commands are deterministic given argv.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .clconfig import (
    CLConfiguration,
    ConfigError,
    TypeRelationError,
    count_extremal,
    extract_tilted_grid,
    is_convex,
    is_touch_free,
    segment_tree,
    segment_types,
    segments,
)
from .concentric import make_concentric
from .decomposition import find_grid_minor, tree_decompose
from .instances import (
    DppInstance,
    ParseError,
    _records,
    gen_grid_instance,
    gen_random_planar,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from .oracle import Linkage, SolveOutcome, Status, solve_bruteforce, verify_solution
from .plane import Cycle, PlaneGraphError, grid_ring
from .reroute import BoundaryPattern, PatternError, route_pattern
from .solver import DpBudgetExceeded, dp_solve, find_irrelevant_vertex, solve_pipeline

EXIT_YES = 0
EXIT_NO = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_PARSE = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _budget(text: str) -> int:
    if (n := int(text)) >= 0:
        return n
    raise argparse.ArgumentTypeError(f"budget must be an integer >= 0, got {text!r}")


def _positive(text: str) -> int:
    if (n := int(text)) >= 1:
        return n
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _load_instance(path: str) -> DppInstance:
    try:
        return parse_instance(_read(path))
    except (ParseError, PlaneGraphError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


# -- solve -------------------------------------------------------------------------


def _solve_one(path: str, args) -> tuple[str, int, dict]:
    inst = _load_instance(path)
    certificates: list[str] = []
    no_certificate = None
    used = None  # the decomposition a DP ran on
    if args.engine == "oracle":
        out = solve_bruteforce(inst, budget=args.budget)
    elif args.engine == "dp":
        used = tree_decompose(inst.graph)
        try:
            out = dp_solve(inst, used, state_budget=args.budget)
        except DpBudgetExceeded as exc:
            out = SolveOutcome(Status.UNKNOWN, reason=str(exc))
    else:
        res = solve_pipeline(inst, mode=args.mode, dp_state_budget=args.budget)
        certificates = [c.log_line() for c in res.certificates]
        if res.no_certificate is not None:
            no_certificate = dataclasses.asdict(res.no_certificate)
        out = res.outcome
        used = res.decomposition
    if args.emit_decomposition:
        if used is None:
            print("# no decomposition written: no DP ran", file=sys.stderr)
        else:
            try:
                with open(args.emit_decomposition, "w", encoding="utf-8") as fh:
                    fh.write(used.serialize())
            except OSError as exc:
                print(f"error: cannot write {args.emit_decomposition}: {exc}", file=sys.stderr)
                raise SystemExit(EXIT_USAGE)
    if out.status is Status.YES:
        text = write_solution(out.solution)
        code = EXIT_YES
    elif out.status is Status.NO:
        text = write_solution(None)
        code = EXIT_NO
    else:
        text = f"# indeterminate: {out.reason}\n"
        code = EXIT_INDETERMINATE
    payload = {
        "file": path,
        "answer": out.status.value,
        "paths": [list(p) for p in out.solution.paths] if out.solution else None,
        "certificates": certificates,
        "no_certificate": no_certificate,
    }
    return text, code, payload


def cmd_solve(args) -> int:
    worst = EXIT_YES
    results = []
    workers = min(args.jobs, len(args.instance))
    if workers > 1:
        # the pool forks all its workers at the first submit, so ask for no
        # more than there are files
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_one_star, [(p, args) for p in args.instance]))
    else:
        results = [_solve_one(p, args) for p in args.instance]
    for (text, code, payload) in results:
        for line in payload["certificates"]:
            print(line, file=sys.stderr)
        if args.json:
            print(json.dumps(payload))
        else:
            sys.stdout.write(text)
        worst = max(worst, code)
    return worst


def _solve_one_star(pair):
    return _solve_one(*pair)


# -- reduce ------------------------------------------------------------------------


def cmd_reduce(args) -> int:
    inst = _load_instance(args.instance)
    shape = inst.graph.grid_shape
    if shape is None:
        print("# no usable grid minor found", file=sys.stderr)
        return EXIT_INDETERMINATE
    cert = find_irrelevant_vertex(inst, find_grid_minor(inst.graph, min(shape)), mode=args.mode)
    if cert is None:
        print("# no certificate at this grid size", file=sys.stderr)
        return EXIT_INDETERMINATE
    if args.json:
        print(
            json.dumps(
                {
                    "irrelevant": cert.removed_vertex,
                    "grid": cert.grid_side,
                    "cycles": len(cert.cycles.cycles),
                    "mode": cert.mode,
                    "oracle_checked": cert.oracle_checked,
                }
            )
        )
    else:
        print(cert.log_line())
    return EXIT_YES


# -- analyze -----------------------------------------------------------------------


def _parse_cycles(text: str) -> list[Cycle]:
    cycles = []
    for lineno, fields in _records(text):
        if fields[0] != "cycle":
            raise ParseError(lineno, f"expected 'cycle v1 v2 ...', got {fields[0]!r}")
        try:
            cycles.append(Cycle(tuple(int(x) for x in fields[1:])))
        except (ValueError, PlaneGraphError) as exc:
            raise ParseError(lineno, str(exc))
    if not cycles:
        raise ParseError(1, "no cycle records")
    return cycles


def _default_grid_cycles(inst: DppInstance) -> list[Cycle]:
    shape = inst.graph.grid_shape
    if shape is None:
        raise ParseError(1, "--cycles is required for non-grid instances")
    side = min(shape)
    max_offset = (side - 2) // 2  # the innermost ring spans two rows or more
    if max_offset < 1:
        raise ParseError(1, "grid too small for an inner cycle family")
    return [grid_ring(inst.graph, off) for off in range(max_offset, 0, -1)]


def cmd_analyze(args) -> int:
    inst = _load_instance(args.instance)
    try:
        if args.cycles:
            cycles = _parse_cycles(_read(args.cycles))
        else:
            cycles = _default_grid_cycles(inst)
        cc = make_concentric(inst.graph, cycles)
        if args.linkage:
            sol = parse_solution(_read(args.linkage))
            linkage = (
                Linkage(tuple(tuple(p) for p in sol.paths)) if sol else Linkage(())
            )
        elif args.from_solution:
            out = dp_solve(inst)
            linkage = (
                Linkage(tuple(tuple(p) for p in out.solution.paths))
                if out.status is Status.YES
                else Linkage(())
            )
        else:
            linkage = Linkage(())
        q = CLConfiguration(inst.graph, cc, linkage)
    except (ParseError, PlaneGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DpBudgetExceeded as exc:
        print(f"# indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    segs = segments(q)
    conv = is_convex(q, segs)
    report: dict = {
        "segments": len(segs),
        "extremal": count_extremal(q, segs),
        "touch_free": is_touch_free(q),
        "convex": bool(conv),
    }
    if not conv:
        report["violated_clause"] = conv.clause
        report["violating_segment"] = conv.segment_index
        report["level"] = conv.level
    lines = [
        f"segments: {report['segments']}",
        f"extremal: {report['extremal']}",
        f"touch-free: {str(report['touch_free']).lower()}",
        f"convex: {str(report['convex']).lower()}"
        + ("" if conv else f" (segment {conv.segment_index} violates {conv.clause})"),
    ]
    for s in segs:
        chord_counts = {}
        for ch in s.chords:
            chord_counts[ch.level] = chord_counts.get(ch.level, 0) + 1
        chords_txt = " ".join(f"{lvl}:{n}" for lvl, n in sorted(chord_counts.items()))
        lines.append(
            f"segment {s.index} path {s.path_index + 1} ecc {s.eccentricity}"
            f"{' extremal' if s.extremal else ''}"
            + (f" chords {chords_txt}" if chords_txt else "")
        )
    if conv:
        tree = segment_tree(q, segs)
        report.update(
            leaves=tree.leaves,
            height=tree.height,
            real_height=tree.real_height,
            dilation=tree.dilation,
        )
        lines.append(
            f"tree: leaves {tree.leaves} height {tree.height} "
            f"real-height {tree.real_height} dilation {tree.dilation}"
        )
        try:
            classes = segment_types(q, segs)
            report["classes"] = len(classes)
            lines.append(f"classes: {len(classes)}")
            caps = []
            for cls in classes:
                try:
                    caps.append(extract_tilted_grid(q, cls).capacity)
                except ConfigError:
                    caps.append(None)
            report["tilted_capacities"] = caps
            lines.append(
                "tilted capacities: "
                + " ".join("-" if c is None else str(c) for c in caps)
            )
        except TypeRelationError as exc:
            report["classes"] = None
            lines.append(f"classes: transitivity failed ({exc})")
    if args.json:
        print(json.dumps(report))
    else:
        print("\n".join(lines))
    return EXIT_YES


# -- route -------------------------------------------------------------------------


def _parse_pattern(text: str, k: int) -> BoundaryPattern:
    edges = []
    for lineno, fields in _records(text):
        if len(fields) != 4 or fields[0] not in ("up", "down") or fields[2] not in (
            "up",
            "down",
        ):
            raise ParseError(lineno, "expected 'up|down <i> up|down <j>'")
        try:
            a = (fields[0], int(fields[1]))
            b = (fields[2], int(fields[3]))
        except ValueError:
            raise ParseError(lineno, "non-integer column")
        edges.append(frozenset({a, b}))
    return BoundaryPattern(k, frozenset(edges))


def cmd_route(args) -> int:
    try:
        pattern = _parse_pattern(_read(args.pattern), args.size)
        model = route_pattern(args.size, pattern)
    except (ParseError, PatternError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    ordered = sorted(model.phi1.items(), key=lambda kv: sorted(kv[0]))
    if args.json:
        print(
            json.dumps(
                {
                    "size": args.size,
                    "paths": [
                        {"edge": sorted(map(list, e)), "path": list(p)}
                        for e, p in ordered
                    ],
                }
            )
        )
    else:
        print("s dpp yes")
        for i, (e, p) in enumerate(ordered, start=1):
            print(f"path {i} " + " ".join(map(str, p)))
    return EXIT_YES


# -- gen ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    try:
        if args.kind == "grid":
            inst = gen_grid_instance(args.size, args.pairs, args.seed)
        else:
            inst = gen_random_planar(args.vertices, args.edges, args.pairs, args.seed)
    except PlaneGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(write_instance(inst))
    return EXIT_YES


# -- verify ------------------------------------------------------------------------


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    try:
        sol = parse_solution(_read(args.solution))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if sol is None:
        print("solution file answers NO; nothing to verify")
        return EXIT_YES
    result = verify_solution(inst, sol)
    if result:
        print("valid")
        return EXIT_YES
    for p in result.problems:
        print(f"invalid: {p}")
    return EXIT_NO


# -- entry point ---------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="pdpp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve instances")
    sp.add_argument("instance", nargs="+")
    sp.add_argument("--engine", choices=("pipeline", "dp", "oracle"), default="pipeline")
    sp.add_argument("--mode", choices=("heuristic", "certified"), default="heuristic")
    sp.add_argument(
        "--budget",
        type=_budget,
        default=400_000,
        help="work limit: DP states for the pipeline and dp engines; for the "
        "oracle, search nodes plus edges scanned by its reachability checks "
        "(default %(default)s)",
    )
    sp.add_argument("--jobs", type=_positive, default=1)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--emit-decomposition", metavar="FILE")
    sp.set_defaults(func=cmd_solve)

    rp = sub.add_parser("reduce", help="print one irrelevant-vertex certificate")
    rp.add_argument("instance")
    rp.add_argument("--mode", choices=("heuristic", "certified"), default="heuristic")
    rp.add_argument("--json", action="store_true")
    rp.set_defaults(func=cmd_reduce)

    ap = sub.add_parser("analyze", help="structural report for a configuration")
    ap.add_argument("instance")
    ap.add_argument("--cycles", metavar="FILE")
    ap.add_argument("--linkage", metavar="FILE")
    ap.add_argument("--from-solution", action="store_true")
    ap.add_argument("--json", action="store_true")
    ap.set_defaults(func=cmd_analyze)

    tp = sub.add_parser("route", help="route a boundary pattern in a square grid")
    tp.add_argument("pattern")
    tp.add_argument("--size", type=_positive, required=True)
    tp.add_argument("--json", action="store_true")
    tp.set_defaults(func=cmd_route)

    gp = sub.add_parser("gen", help="generate instances")
    gsub = gp.add_subparsers(dest="kind", required=True)
    gg = gsub.add_parser("grid")
    gg.add_argument("--size", type=int, required=True)
    gg.add_argument("--pairs", type=int, required=True)
    gg.add_argument("--seed", type=int, default=0)
    gg.set_defaults(func=cmd_gen, kind="grid")
    gr = gsub.add_parser("planar")
    gr.add_argument("--vertices", type=int, required=True)
    gr.add_argument("--edges", type=int, required=True)
    gr.add_argument("--pairs", type=int, required=True)
    gr.add_argument("--seed", type=int, default=0)
    gr.set_defaults(func=cmd_gen, kind="planar")

    vp = sub.add_parser("verify", help="check a solution file against an instance")
    vp.add_argument("instance")
    vp.add_argument("solution")
    vp.set_defaults(func=cmd_verify)
    return p


@functools.cache
def _shared_parser() -> _Parser:
    """The parser, built on the first call so that importing pdpp stays cheap."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

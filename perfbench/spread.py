"""Run one workload over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload grid-solve --seeds 1-10 --seconds 30 [--trace 1] [--json out.json]

For every metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)`, and the spread: the distance between
the quartiles as a share of the median. The bounds in BENCHMARK.json are
judged against this spread. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    p.add_argument("--json", metavar="FILE", help="append the summary as one JSON line")
    args = p.parse_args()
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr[-3000:], file=sys.stderr)
            return 1
        print(lines[-2] if len(lines) > 1 else "", flush=True)
        for name, m in json.loads(lines[-1])["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{args.workload:13s} {name:42s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}")
    if args.json:
        record = {"workload": args.workload, "seeds": args.seeds, "seconds": float(args.seconds),
                  "trace": int(args.trace), "metrics": summary}
        with open(args.json, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

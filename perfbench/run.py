"""Benchmark entry point: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload grid-solve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`. Set-up
(import, corpus draw, writing the inputs) runs in fresh interpreters
SETUP_REPEATS times and is reported as the median; the first of those
corpora is then solved item after item until `--seconds` have passed. Every
answer is checked against a reference that does not come from `pdpp`. The
last line of standard output is one JSON object; with `--trace 0` it holds
the end-to-end metrics, with `--trace 1` the per-layer ones. The exit code
is 0 only when every answer was right.

Times are reported in reference seconds: wall seconds scaled by the speed
the machine showed during this run, as measured by a fixed probe that runs
between items (see `SpeedProbe`). The line before the JSON gives the raw
wall-clock figures as well.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# Two, so that on sparse-solve one file with and one without a rotation
# system have run: the first embedding imports networkx.
WARM_UP_ITEMS = 2
PROBE_REF_S = 0.05  # what one probe takes on the reference machine
PROBE_EVERY_S = 0.35  # item time between two probes (~11% of a run)


def probe_work() -> int:
    """Fixed pure-Python work shaped like the bag-state DP: a table of ~1300
    tuple states and frozensets, joined pairwise into a new dict. The table
    is large enough to feel cache contention the way the program does."""
    codes = (("u",), ("c",), ("p", 1), ("h", 2), ("p", 3), ("h", 4))
    table = {
        (a, b, c, d): frozenset({len(a) + i, len(b)})
        for i, a in enumerate(codes) for b in codes for c in codes for d in codes
    }
    keys = list(table)
    out = {}
    for i, left in enumerate(keys):
        for j in range(0, len(keys), 61):
            right = keys[(7 * i + j) % len(keys)]
            if table[left] & table[right] and left[0] != right[1]:
                out[tuple(x if x != ("u",) else y for x, y in zip(left, right))] = table[left] | table[right]
    return len(out)


class SpeedProbe:
    """Tracks how fast the machine runs Python right now.

    On a shared machine the CPU speed a process gets drifts by tens of
    percent over minutes, and CPU time drifts with it, so raw times from two
    runs are not comparable. Between items the run times `probe_work`,
    which is fixed code of the benchmark, with the collector off so the
    program's heap cannot slow it. `scale` turns this run's wall seconds into
    reference seconds: those of a machine on which the probe takes
    PROBE_REF_S.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._busy = 0.0

    def run(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        probe_work()
        self.samples.append(perf_counter() - t0)
        if enabled:
            gc.enable()
        self._busy = 0.0

    def after(self, busy_s: float) -> None:
        """Account `busy_s` seconds of item time; probe when enough has passed."""
        self._busy += busy_s
        if self._busy >= PROBE_EVERY_S:
            self.run()

    @property
    def scale(self) -> float:
        return PROBE_REF_S / statistics.fmean(self.samples)


def stay_on_one_cpu() -> None:
    """Pin this process, and so the set-up interpreters it starts, to the CPU it is on.

    A probe only describes the CPU it ran on, and on a shared machine two
    CPUs can run at different speeds at the same moment.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass  # no /proc or no affinity control: run unpinned


def use_checkout() -> None:
    """Import `pdpp` from this checkout's `src/`, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "pdpp" / "__init__.py").is_file():
        sys.exit(f"error: no pdpp sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import pdpp

    if Path(pdpp.__file__).resolve().parent != (src / "pdpp").resolve():
        sys.exit(f"error: imported pdpp from {pdpp.__file__}, not from {src}")


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setups(args, speed: SpeedProbe, dirs: list[Path]) -> tuple[list[float], list[float]]:
    """Run the set-up in fresh interpreters, each between two probes.

    Appends each corpus directory to `dirs` before it is written. Returns
    the wall times, and the same in reference seconds: each is scaled by the
    two probes around it, as set-up takes seconds and the machine's speed
    changes that fast.
    """
    wall = []
    first = len(speed.samples)
    speed.run()
    for i in range(SETUP_REPEATS):
        out = WORK / f"{args.workload}-{args.seed}-{os.getpid()}-{i}"
        shutil.rmtree(out, ignore_errors=True)
        dirs.append(out)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(out)]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd)
        # A blocking wait: with a timeout, Popen.wait polls in steps of up
        # to 50 ms, which would round every set-up time up to that grain.
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        wall.append(perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        speed.run()
    probes = speed.samples[first:]
    around = zip(probes, probes[1:])
    ref = [t * PROBE_REF_S * 2 / (a + b) for t, (a, b) in zip(wall, around)]
    return wall, ref


def tail(times: list[float], pct: int) -> tuple[float, int]:
    """Time at percentile `pct` of the item times, and how many items lie beyond it."""
    if len(times) < 2:
        return max(times), 0
    cut = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return cut, sum(t > cut for t in times)


class Tally:
    """Attempts, decided answers and wrong answers of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.decided = self.failed = 0

    def call_and_check(self, item, call):
        """Run one item through `call`; returns its wall time."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            raw = call(item)
        except Exception:  # a crash is a wrong answer, and the run goes on
            dt = perf_counter() - t0
            self.failed += 1
            print(f"item {item.key}: raised\n{traceback.format_exc()}", file=sys.stderr)
            return dt
        dt = perf_counter() - t0
        verdict = self.workload.check(item, raw)
        self.decided += verdict.decided
        if verdict.problems:
            self.failed += 1
            print(f"item {item.key}: {'; '.join(verdict.problems)}", file=sys.stderr)
        return dt


def measure(args, workload, items, speed: SpeedProbe, setup_wall: list[float], setup_ref: list[float]):
    tally = Tally(workload)
    for item in items[:WARM_UP_ITEMS]:  # checked, not timed
        tally.call_and_check(item, workload.call)
    warm_decided = tally.decided
    times = []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or not times:
        dt = tally.call_and_check(items[len(times) % len(items)], workload.call)
        times.append(dt)
        speed.after(dt)
    busy = sum(times)
    scale = speed.scale
    decided = tally.decided - warm_decided
    pct = workload.tail_percentile
    tail_s, beyond = tail(times, pct)
    print(
        f"{args.workload} seed {args.seed}: {len(times)} items, {busy:.2f} s in the program, "
        f"{decided / busy:.4f} items/s wall; probe {statistics.fmean(speed.samples) * 1e3:.2f} ms "
        f"x{len(speed.samples)}, scale {scale:.4f}; set-up {' '.join(f'{t:.3f}' for t in setup_wall)} s wall; "
        f"tail_s is p{pct} of {len(times)} items "
        f"({beyond} beyond it{'' if beyond >= 10 else ', fewer than 10: a short run'}); error_ratio {tally.failed}/{tally.attempted}; "
        f"decided {decided}/{len(times)}"
    )
    metrics = {
        "items_per_s": (decided / (busy * scale), "1/s"),
        "p50_s": (statistics.median(times) * scale, "s"),
        "tail_s": (tail_s * scale, "s"),
        "decided_ratio": (decided / len(times), "ratio"),
        "correct_ratio": (1 - tally.failed / tally.attempted, "ratio"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, tally


def measure_traced(args, workload, items, speed: SpeedProbe):
    """Each item untraced and traced, alternating which goes first."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tally = Tally(workload)
    for item in items[:WARM_UP_ITEMS]:
        tally.call_and_check(item, workload.call)
    plain_s = traced_s = 0.0
    j = 0
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or j == 0:
        item = items[j % len(items)]
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    dt = tally.call_and_check(
                        item, lambda it: tracer.run_item(it.key, workload.call, it)
                    )
                traced_s += dt
            else:
                dt = tally.call_and_check(item, workload.call)
                plain_s += dt
            speed.after(dt)
        j += 1
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.dump(spans)
    print(f"{args.workload} seed {args.seed}: {j} items traced, spans in {spans}; "
          f"scale {speed.scale:.4f}; error_ratio {tally.failed}/{tally.attempted}")
    return layer_metrics(tracer, traced_s, plain_s, speed.scale), tally


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        workload.build(args.seed, Path(args.setup_only))
        return 0
    stay_on_one_cpu()
    speed = SpeedProbe()
    dirs: list[Path] = []
    try:
        setup_wall, setup_ref = timed_setups(args, speed, dirs)
        items = workload.load(dirs[0])
        if args.trace:
            metrics, tally = measure_traced(args, workload, items, speed)
        else:
            metrics, tally = measure(args, workload, items, speed, setup_wall, setup_ref)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

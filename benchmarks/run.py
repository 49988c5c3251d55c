"""qvilab benchmark: solve time per algorithm, sweep throughput, instance I/O.

Run from the repository root:

    python3 benchmarks/run.py --workload solve --seed 1 --seconds 55 --trace 0

The program is imported from ``src/`` of the same checkout.  A run warms up
with one round of the workload's operations, then repeats whole rounds until
``--seconds`` would be exceeded, checks every output against the benchmark's
own references, and prints one JSON object as its last line.  ``--trace 0``
reports the end-to-end metrics (medians over the run); ``--trace 1`` reports
the per-layer metrics of a traced run and writes its spans to
``benchmarks/out/trace-<workload>.npz``.  ``--smoke`` shrinks every input to
tiny sizes for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "out"
WORKLOADS = ("solve", "sweep-io")
MIN_ROUND_S = 0.25  # an op shorter than this is called repeatedly in each round
MAX_REPS = 200


def _unit(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric == "sweep_rows_per_s":
        return "rows/s"
    if metric.endswith((".calls", ".charges")):
        return "count"
    if metric.endswith("calls_per_size"):
        return "calls/size"
    if metric.endswith("parallel_efficiency"):
        return "ratio"
    if metric.endswith("_pct"):
        return "%"
    return "s"


class Tally:
    """Operations attempted and failed; one operation is one op of one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op, errors) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"{op.name}: " + "; ".join(sorted(set(errors))), file=sys.stderr)


def _call(op, fn, reps=1):
    """Time ``reps`` calls of ``fn`` one by one and check every output.

    Returns the time of each call (empty when the program raised), the last
    output, and the errors found.  Checks run between calls, untimed.
    """
    times, errors, out = [], [], None
    for _ in range(reps):
        try:
            started = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - started)
        except Exception:  # the program failed this operation; the run goes on
            return [], None, [traceback.format_exc()]
        try:
            errors += op.check(out)
        except Exception:  # a check that crashes fails the operation, not the run
            errors.append(traceback.format_exc())
    return times, out, errors


def _setup_seconds(args) -> float:
    """Wall time of a fresh process that imports qvilab and builds the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    started = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, timeout=120)
    return time.perf_counter() - started


def _rounds(started, seconds, one_round) -> None:
    """Run whole rounds until the next one would end ``seconds`` after ``started``."""
    while True:
        round_started = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now - started + (now - round_started) > seconds:
            return


def measure_end_to_end(workload, args, tally):
    """End-to-end metrics (medians over the run) and their sample counts."""
    started = time.perf_counter()
    reps = {}
    for op in workload.ops:  # warm-up round, which also sizes each op's calls per round
        times, _, errors = _call(op, op.run)
        tally.record(op, errors)
        reps[op.name] = max(1, min(MAX_REPS, round(MIN_ROUND_S / times[0]))) if times else 1
    samples = defaultdict(list)

    def one_round():
        for op in workload.ops:
            times, out, errors = _call(op, op.run, reps[op.name])
            tally.record(op, errors)
            for elapsed in times:
                for name, value in op.measure(elapsed, out).items():
                    samples[name].append(value)
        # One set-up per round, so that its median spans the run like the others.
        samples["setup_s"].append(_setup_seconds(args))

    _rounds(started, args.seconds, one_round)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = {name: len(values) for name, values in samples.items()}
    return metrics, counts


def measure_layers(workload, args, tally):
    """Per-layer metrics (medians over traced rounds) and their round counts."""
    import tracing
    from workloads import JOBS

    started = time.perf_counter()
    for op in workload.ops:  # warm-up round
        tally.record(op, _call(op, op.run)[2])
    tracer = tracing.Tracer()
    rounds = []

    def one_round():
        # Each op runs untraced, then (for a fan-out op) untraced in its
        # serial form, then traced in its serial form; the last two times
        # give the tracing overhead.
        layers = defaultdict(float)
        untraced = traced_total = 0.0
        for op in workload.ops:
            plain, _, errors = _call(op, op.run)
            base = plain
            if op.serial is not None:
                base, _, more = _call(op, op.serial)
                errors += more
            first = len(tracer)
            with tracing.traced(tracer):
                traced_time, _, more = _call(op, op.serial or op.run)
            tally.record(op, errors + more)
            if not (plain and base and traced_time):
                continue
            plain, base, traced_time = plain[0], base[0], traced_time[0]
            for name, value in tracing.layer_metrics(tracer, first, op.sizes).items():
                layers[name] += value
            if op.serial is not None:
                layers["harness.parallel_efficiency"] += base / (JOBS * plain)
            untraced += base
            traced_total += traced_time
        if untraced:
            layers["trace.overhead_pct"] = 100.0 * (traced_total / untraced - 1.0)
        rounds.append(layers)

    _rounds(started, args.seconds, one_round)
    tracer.save(OUT / f"trace-{args.workload}.npz")
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    return metrics, {name: len(rounds) for name in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for every group")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qvilab" / "__init__.py").is_file():
        print(f"benchmark: no qvilab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.smoke, OUT)
    if args.setup_only:
        return 0

    tally = Tally()
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, counts = measure(workload, args, tally)
    final_errors = [e for check in workload.final_checks for e in check()]
    for error in final_errors:
        print(error, file=sys.stderr)

    for name in sorted(metrics):
        print(f"{name:42s} {metrics[name]:14.6g} {_unit(name):10s} n={counts.get(name, 1)}")
    print(json.dumps({
        "correct": tally.failed == 0 and not final_errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

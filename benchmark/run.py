"""Benchmark of the amaldup package: one workload, one seed, one line of JSON.

    python3 benchmark/run.py --workload audit --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout.  Timed passes run, each on inputs
made from ``(seed, pass)``, until they have taken ``--seconds`` and at
least the counted passes are done: attempts and failures are counted
over those passes only, so every run is judged on the same inputs
whatever its speed.  Before each pass the set-up (a fresh import of the
package, the inputs of the first pass and a warm-up) is repeated for at
least half a second, and the median of all set-ups is reported.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics.  With ``--trace 1`` the run alternates untraced and
traced passes over the first pass's inputs, checks that both give the
same outputs, and reports the per-layer metrics instead; the spans are
written to ``.bench_build/amaldup-bench``.  See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_build" / "amaldup-bench"
# The speed of a shared machine drifts over tens of seconds; set-ups
# spread between the passes sample the same stretch of time as the passes.
SETUP_GAP_SECONDS = 0.5
# Passes 0 .. k-1 make up the counted pass set of a workload; at 25 s
# every run makes them, and a run too slow to do so runs on until it has.
COUNTED_PASSES = {"audit": 3, "ladder": 2, "query": 6}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# audit and query solve systems of at most 216x36, where a second BLAS
# thread only adds synchronisation and ties their timing to the load on
# the other CPU; the ladder's SVDs are large enough to use every CPU.
SERIAL_BLAS = ("audit", "query")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_p95_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB"}


@dataclass
class Op:
    label: str
    seconds: float
    output: object
    outcome: object


def limit_blas_threads(workload: str) -> int:
    """Set the BLAS thread count of the workload; call before numpy loads."""
    threads = 1 if workload in SERIAL_BLAS else len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def comparable(raw):
    """What two runs of one op must agree on; exceptions by type and text."""
    if isinstance(raw, BaseException):
        return ("exception", type(raw).__name__, str(raw))
    return raw


def run_pass(workload, inputs, tracer=None) -> tuple[float, list]:
    """Time every op of one pass; judge the results after the clock stops."""
    clock = time.perf_counter
    timed = []
    start = clock()
    for label, thunk, check in workload.ops(inputs):
        t0 = clock()
        with tracer.span(f"op:{label}") if tracer else contextlib.nullcontext():
            try:
                raw = thunk()
            except Exception as exc:  # noqa: BLE001 - an escaped error is a result
                raw = exc
        timed.append((label, clock() - t0, raw, check))
    wall = clock() - start
    return wall, [Op(label, sec, comparable(raw), check(raw))
                  for label, sec, raw, check in timed]


def nearest_rank(values: list, share: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def summarize(counted: list, ops: list) -> tuple[int, list, list]:
    """Attempts and failures of the counted ops; wrong outputs of all ops."""
    attempted = sum(op.outcome.units for op in counted)
    failures = [f"{op.label}: {f}" for op in counted for f in op.outcome.failures]
    wrong = [f"{op.label}: {w}" for op in ops for w in op.outcome.wrong]
    return attempted, failures, wrong


def environment(blas_threads: int) -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
            "numpy": numpy.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


def set_up(workload_cls, seed: int):
    """Import, first inputs and warm-up; returns them and their times by part."""
    from bench_workloads import import_amaldup
    clock = time.perf_counter
    t0 = clock()
    am = import_amaldup()
    t1 = clock()
    workload = workload_cls(am, ROOT, WORKDIR)
    inputs = workload.inputs(seed, 0)
    t2 = clock()
    workload.warm_up()
    t3 = clock()
    return workload, inputs, {"setup_s": t3 - t0, "import_s": t1 - t0,
                              "inputs_s": t2 - t1, "warm_up_s": t3 - t2}


def measure(workload_cls, seed: int, seconds: float, min_passes: int) -> tuple[list, list, list]:
    """Set-ups and passes in turn, fresh inputs every pass.

    Returns the pass times, each pass's ops and the times of every set-up.
    """
    clock = time.perf_counter
    walls, passes, setups = [], [], []
    busy = 0.0
    while len(passes) < min_passes or busy < seconds:
        gap = clock()
        while True:
            workload, inputs, times = set_up(workload_cls, seed)
            setups.append(times)
            if clock() - gap >= SETUP_GAP_SECONDS:
                break
        t0 = clock()
        if passes:
            inputs = workload.inputs(seed, len(passes))
        wall, pass_ops = run_pass(workload, inputs)
        busy += clock() - t0
        walls.append(wall)
        passes.append(pass_ops)
    return walls, passes, setups


def measure_traced(workload, inputs, seconds: float):
    """Untraced and traced passes in turn, all on the same inputs."""
    from bench_trace import Tracer, layer_metrics
    tracer = Tracer()
    plain_walls, traced_walls, per_pass, span_passes, passes, mismatches = [], [], [], [], [], []
    start = time.perf_counter()
    while True:
        wall, plain_ops = run_pass(workload, inputs)
        plain_walls.append(wall)
        tracer.install()
        try:
            wall, traced_ops = run_pass(workload, inputs, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        spans = tracer.take()
        span_passes.append(spans)
        per_pass.append(layer_metrics(spans))
        mismatches += [f"{a.label}: traced output differs from untraced"
                       for a, b in zip(plain_ops, traced_ops) if a.output != b.output]
        if len(plain_ops) != len(traced_ops):
            mismatches.append("traced pass ran a different number of ops")
        passes += [plain_ops, traced_ops]
        if time.perf_counter() - start >= seconds:
            break
    return plain_walls, traced_walls, per_pass, span_passes, passes, mismatches


def layer_result(per_pass: list, plain_walls: list, traced_walls: list) -> dict:
    """Counts from the first traced pass, times as medians over traced passes."""
    from bench_trace import metric_units
    metrics = {}
    for name, unit in metric_units().items():
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(plain_walls)
        elif unit in ("s", "ms"):
            value = statistics.median(m[name] for m in per_pass)
        else:
            value = per_pass[0][name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def end_to_end(setup_s: float, walls: list, ops: list, attempted: int, failed: int) -> dict:
    latencies = [op.seconds for op in ops]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p95_ms": nearest_rank(latencies, 0.95) * 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("audit", "ladder", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "amaldup" / "__init__.py").is_file():
        print(f"no amaldup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    blas_threads = limit_blas_threads(args.workload)
    sys.path.insert(0, str(ROOT / "src"))
    from bench_trace import write_spans
    from bench_workloads import WORKLOADS

    WORKDIR.mkdir(parents=True, exist_ok=True)
    env = environment(blas_threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        # Every pass repeats the first pass's inputs; the first is counted.
        workload, inputs, times = set_up(WORKLOADS[args.workload], args.seed)
        setup_times = [times]
        plain_walls, traced_walls, per_pass, span_passes, passes, mismatches = \
            measure_traced(workload, inputs, args.seconds)
        walls = plain_walls + traced_walls
        counted = passes[:1]
        metrics = layer_result(per_pass, plain_walls, traced_walls)
        write_spans(WORKDIR / f"spans-{tag}.jsonl", span_passes)
    else:
        walls, passes, setup_times = measure(WORKLOADS[args.workload], args.seed,
                                             args.seconds, COUNTED_PASSES[args.workload])
        counted = passes[:COUNTED_PASSES[args.workload]]
        mismatches = []
    setup = {part: statistics.median(t[part] for t in setup_times) for part in setup_times[0]}
    shutil.rmtree(WORKDIR / "bundles", ignore_errors=True)
    ops = [op for pass_ops in passes for op in pass_ops]
    attempted, failures, wrong = summarize([op for c in counted for op in c], ops)
    failed = len(failures)
    wrong += mismatches
    if not args.trace:
        metrics = end_to_end(setup["setup_s"], walls, ops, attempted, failed)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": env, "passes": len(walls), "counted_passes": len(counted),
               "walls_s": walls, "op_samples": len(ops), "setup_repeats": len(setup_times),
               "setup_medians_s": setup,
               "failures": failures, "wrong": wrong}
    (WORKDIR / f"result-{tag}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(f"# env {json.dumps(env)}")
    print(f"# {len(walls)} passes, {len(ops)} op samples; "
          f"{failed} of {attempted} failed in the {len(counted)} counted passes")
    for line in failures:
        print(f"# failed {line}")
    for line in wrong:
        print(f"# WRONG {line}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Offline benchmark of polypack: one workload, one seed, one run.

    python3 bench/run.py --workload solve-converge --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports polypack from its `src`.  The
run sets up its inputs SETUP_REPS times (each time with a fresh import),
then repeats whole rounds of the workload until --seconds have passed,
checks every output of every round, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over rounds.
With --trace 1 the first round runs untraced (it gives the phase times and
the base for the tracing overhead) and the later rounds run with the tracer
installed; the metrics are the per-layer ones.  --out FILE also appends the
result, with the per-round figures, to FILE as one JSON line.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

# numpy (used by selection) stays on one thread: one process, no pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import program  # noqa: E402

SETUP_REPS = 7
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "parse_s": "s",
}
PHASES = {  # per-layer metric -> phase of the untraced round
    "solve_s": "solve",
    "verify_s": "verify",
    "generate_s": "generate",
    "metrics_s": "metrics",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result as one JSON line to this file")
    return ap.parse_args(argv)


def timed_round(workload, pp, inputs):
    gc.collect()
    phases = {}
    c0 = time.process_time()
    t0 = time.perf_counter()
    outputs = workload.run(pp, inputs, phases)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return outputs, dict(phases, wall=wall, cpu=cpu)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not program.available():
        print(f"no polypack source under {program.SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUP_REPS):
        program.purge()
        gc.collect()
        t0 = time.perf_counter()
        pp = program.load()
        inputs = workload.setup(pp, args.seed)
        setup_times.append(time.perf_counter() - t0)
    expected = workload.expect(pp, inputs)

    cache = {}
    attempted = failed = 0
    rounds = []        # timings of the rounds measured for the result
    layer_rounds = []  # per-layer figures of the traced rounds
    tracer = None

    def record(outputs):
        nonlocal attempted, failed
        verdicts = workload.check(pp, inputs, expected, outputs, cache)
        attempted += len(verdicts)
        for v in verdicts:
            if v is not None:
                failed += 1
                if failed <= 5:
                    print(f"FAILED: {v}", file=sys.stderr)

    start = time.perf_counter()
    if args.trace:
        import tracing
        outputs, base = timed_round(workload, pp, inputs)
        record(outputs)
        extra = {name: base.get(phase, 0.0) for name, phase in PHASES.items()}
        extra["bound_ratio"] = workload.bound_ratio(expected, outputs)
        tracer = tracing.Tracer(pp)
        tracer.install()
    try:
        while True:
            if tracer is not None:
                tracer.reset()
            outputs, timing = timed_round(workload, pp, inputs)
            if tracer is not None:
                layer_rounds.append(tracer.snapshot(workload.items_placed(outputs)))
            rounds.append(timing)
            record(outputs)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    med = statistics.median
    if args.trace:
        metrics = {name: {"value": med(r[name] for r in layer_rounds), "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
        metrics["trace.overhead_ratio"] = {
            "value": med(r["wall"] for r in rounds) / base["wall"],
            "unit": "ratio"}
        for name, value in extra.items():
            metrics[name] = {"value": value,
                             "unit": "ratio" if name == "bound_ratio" else "s"}
    else:
        values = {
            "setup_s": med(setup_times),
            "wall_s": med(r["wall"] for r in rounds),
            "cpu_s": med(r["cpu"] for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "parse_s": med(r.get("parse", 0.0) for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        line = dict(result, workload=args.workload, seed=args.seed,
                    trace=args.trace, setup_times=setup_times, rounds=rounds)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(line) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

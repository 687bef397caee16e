"""Compare sets of benchmark runs.

    python3 bench/compare.py OLD.jsonl [NEW.jsonl]

Each file holds the lines that `run.py --out FILE` appended, one per run.
For every workload and metric the script prints the median of the runs,
the distance between the first and third quartiles as a share of the
median (the spread), and with two files the change of the median as a share
of the old median.  End-to-end metrics are judged against their bound in
BENCHMARK.json: the spread of each set (setup_s excepted) and the change of
the median must stay within it.  Per-layer metrics have no bound and are
listed for reading only.
"""
from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(runs):
    """{(workload, metric): (median, spread, values)} plus failed shares."""
    values = {}
    failed = {}
    for run in runs:
        failed.setdefault(run["workload"], set()).add(
            (run["failed"], run["attempted"]))
        for name, m in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(m["value"])
    out = {}
    for key, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        out[key] = (med, (q3 - q1) / med if med else 0.0, vals)
    return out, failed


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    sets = [summary(load_runs(p)) for p in argv]
    ok = True
    old, old_failed = sets[0]
    new, new_failed = sets[-1]
    for key in sorted(old):
        workload, name = key
        med, spread, vals = old[key]
        line = f"{workload:20} {name:36} n={len(vals):<3} median={med:<12.6g} spread={spread:6.3f}"
        bound = bounds.get(name)
        if bound is not None and name != "setup_s" and spread > bound[0]:
            line += "  SPREAD > BOUND"
            ok = False
        if len(sets) == 2 and key in new:
            nmed, nspread, _ = new[key]
            change = (nmed - med) / med if med else 0.0
            line += f"  new={nmed:<12.6g} spread={nspread:6.3f} change={change:+.3f}"
            if bound is not None:
                worse = change if bound[1] == "lower" else -change
                if worse > bound[0] or (name != "setup_s" and nspread > bound[0]):
                    line += "  WORSE THAN BOUND"
                    ok = False
        print(line)
    for workload in sorted(old_failed):
        shares = {f / a for f, a in old_failed[workload] | new_failed.get(workload, set())}
        print(f"{workload:20} failed share(s): {sorted(shares)}")
        if len(shares) > 1:
            ok = False
    print("within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

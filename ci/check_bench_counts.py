#!/usr/bin/env python3
"""Compare the count metrics of a `benchmark/run.sh -quick -json FILE` run
against the committed baseline ci/bench-counts.json.

Round trips, wire KiB and simulated seconds per action are functions of
the seeded op lists, not of the machine: on the three single-client
workloads they must repeat exactly; replica-write interleaves two clients
and may move by its tolerance. Allocations per action are a function of
the op lists and the Go toolchain: they are compared, within ALLOCS'
tolerance, when the run's toolchain is the one the baseline was recorded
with, and printed otherwise. Wall-clock metrics, allocated KiB (which
swings 10 % with the collector's timing) and the live heap are only
printed.

usage: check_bench_counts.py RUN.json            compare (exit 1 on a difference)
       check_bench_counts.py RUN.json --update   rewrite the baseline from RUN.json
"""
import json
import pathlib
import sys

BASELINE = pathlib.Path(__file__).with_name("bench-counts.json")
COUNTS = ["round_trips_per_action", "wire_kib_per_action", "sim_s_per_action"]
ALLOCS = "allocs_per_action"
PRINTED = ["actions_per_s", "mle_p50_ms", "expand_p50_ms", "alloc_kib_per_action", "heap_live_mib"]
TOLERANCE = {"replica-write": 0.005}  # its two clients interleave; observed 0.03 %
ALLOCS_TOLERANCE = {"replica-write": 0.04}  # six runs of one commit spread 1.9 % there, under 0.3 % elsewhere


def main():
    run = json.load(open(sys.argv[1]))
    workloads = run["workloads"]
    if "--update" in sys.argv[2:]:
        counts = {w: {m: workloads[w]["metrics"][m]["median"] for m in COUNTS + [ALLOCS]} for w in sorted(workloads)}
        BASELINE.write_text(json.dumps({"go": run["go"], "workloads": counts}, indent=2) + "\n")
        return 0
    baseline = json.loads(BASELINE.read_text())
    same_go = run["go"] == baseline["go"]
    if not same_go:
        print(f"     {ALLOCS} not compared: run built with {run['go']}, baseline recorded with {baseline['go']}")
    failed = False
    for name, want in baseline["workloads"].items():
        metrics = workloads[name]["metrics"]
        for m in COUNTS + [ALLOCS] * same_go:
            got = metrics[m]["median"]
            tol = ALLOCS_TOLERANCE.get(name, 0.02) if m == ALLOCS else TOLERANCE.get(name, 0)
            ok = got == want[m] or abs(got - want[m]) <= tol * abs(want[m])
            failed |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name:17s} {m:24s} {got!r} (baseline {want[m]!r}, tolerance {tol:.1%})")
        print(f"     {name:17s} not compared: " + ", ".join(f"{m}={metrics[m]['median']:.4g}" for m in PRINTED + [ALLOCS] * (not same_go)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

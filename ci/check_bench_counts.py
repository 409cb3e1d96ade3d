#!/usr/bin/env python3
"""Compare the count metrics of a `benchmark/run.sh -quick -json FILE` run
against the committed baseline ci/bench-counts.json.

Round trips, wire KiB and simulated seconds per action are functions of
the seeded op lists, not of the machine: on the three single-client
workloads they must repeat exactly; replica-write interleaves two clients
and may move by its tolerance. Wall-clock metrics are only printed.

usage: check_bench_counts.py RUN.json            compare (exit 1 on a difference)
       check_bench_counts.py RUN.json --update   rewrite the baseline from RUN.json
"""
import json
import pathlib
import sys

BASELINE = pathlib.Path(__file__).with_name("bench-counts.json")
COUNTS = ["round_trips_per_action", "wire_kib_per_action", "sim_s_per_action"]
WALL = ["actions_per_s", "mle_p50_ms", "expand_p50_ms"]
TOLERANCE = {"replica-write": 0.005}  # its two clients interleave; observed 0.03 %


def main():
    run = json.load(open(sys.argv[1]))["workloads"]
    if "--update" in sys.argv[2:]:
        counts = {w: {m: run[w]["metrics"][m]["median"] for m in COUNTS} for w in sorted(run)}
        BASELINE.write_text(json.dumps(counts, indent=2) + "\n")
        return 0
    failed = False
    for name, want in json.loads(BASELINE.read_text()).items():
        metrics = run[name]["metrics"]
        for m in COUNTS:
            got, tol = metrics[m]["median"], TOLERANCE.get(name, 0)
            ok = got == want[m] or abs(got - want[m]) <= tol * abs(want[m])
            failed |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name:17s} {m:24s} {got!r} (baseline {want[m]!r}, tolerance {tol:.1%})")
        print(f"     {name:17s} wall, not compared: " + ", ".join(f"{m}={metrics[m]['median']:.4g}" for m in WALL))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

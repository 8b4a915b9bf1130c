"""Steadiness of the benchmark: run every workload several times,
interleaved, one seed per round, and print each metric's spread.

    python3 perfbench/steady.py --runs 10 --seconds 20
    python3 perfbench/steady.py --runs 5 --workload engine-cold --trace 1

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread
as a share of the median, and the max/min ratio, so the bounds in
``BENCHMARK.json`` can be set from measured spread.  Runs go one at a
time; the JSON of each run is appended to ``--log`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

WORKLOADS = ("engine-cold", "served-hot", "cluster-mixed")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = wall
    return doc


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    lo = min(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / statistics.median(values)
        if statistics.median(values) else float("nan"),
        "max_min": max(values) / lo if lo else float("nan"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="repeatable; default: all three",
    )
    parser.add_argument("--log", help="append each run's JSON here")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    docs = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            doc = run_once(w, seed, args.seconds, args.trace)
            docs[w].append(doc)
            if args.log:
                with open(args.log, "a") as fh:
                    fh.write(json.dumps({"workload": w, "seed": seed, **doc}) + "\n")
            print(
                f"{w} seed {seed}: correct={doc['correct']} "
                f"attempted={doc['attempted']} failed={doc['failed']} "
                f"wall={doc['wall_s']:.1f}s",
                flush=True,
            )
    for w in workloads:
        print(f"\n{w}: {len(docs[w])} runs")
        shares = {d["failed"] / d["attempted"] for d in docs[w]}
        print(f"  failed share: {sorted(shares)}")
        if len(docs[w]) < 2:
            continue
        for name in docs[w][0]["metrics"]:
            values = [d["metrics"][name]["value"] for d in docs[w]]
            if len(values) < 2:
                continue
            s = spread(values)
            print(
                f"  {name:32s} median {s['median']:12.6g}  "
                f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
                f"iqr/median {s['iqr_share']:7.4f}  max/min {s['max_min']:7.4f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: run each workload in fresh processes and report spreads.

    python3 bench/steady.py [--workloads a,b] [--seeds 1,2,...] [--seconds S]

Run from the repository root.  For each workload, runs bench/run.py once per
seed (a fresh interpreter each time) and prints, for every end-to-end metric
in BENCHMARK.json: the median, the quartiles (statistics.quantiles, n=4), the
quartile spread as a share of the median, the worst deviation from the
median, and the metric's bound.  A spread above a third of its bound is
flagged, as is a run that is not correct or whose share of failed
operations differs from the others.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    command = [sys.executable if spec["command"][0] == "python3" else spec["command"][0]]
    command += spec["command"][1:]
    flagged = 0
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            results.append(run_once(command, workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={m['value']:.4g}" for k, m in results[-1]["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        bad = [s for s, r in zip(seeds, results) if not r["correct"]]
        if bad or len(shares) > 1:
            flagged += 1
            print(f"  FLAG {workload}: incorrect seeds {bad}, failed shares {sorted(shares)}")
        print(f"  {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} "
              f"{'worst':>7s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            worst = max(abs(v - med) for v in vals) / med
            flag = m["name"] != "setup_s" and spread > m["bound"] / 3
            flagged += flag
            print(f"  {m['name']:14s} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.3f} "
                  f"{worst:7.3f} {m['bound']:6.2f}{'  FLAG spread > bound/3' if flag else ''}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

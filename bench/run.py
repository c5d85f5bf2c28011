"""Benchmark command for linpole.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  Each run
is a closed loop with one client and one thread in this fresh interpreter:
the items of the workload run one after the other, each followed by a timed
reference loop (bench/refloop.py) that scales every time of the run.  The
amount of work is fixed by the workload and --seconds (a whole number of
rounds), not by a clock.  After each round, outside the timed region, every
output of the round is checked against bench/oracles.py.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the program's layer
functions (bench/tracing.py), prints the per-layer metrics, writes the spans
under bench/out/, and reports tracing overhead against an untraced run of the
same items in a child process.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import refloop  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = os.path.join(HERE, "out")


def load_program(root):
    """Import linpole from the checkout's src/, and from nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "linpole", "__init__.py")):
        sys.exit(f"bench: no program at {src}/linpole; run from the repository root")
    sys.path.insert(0, src)
    import linpole

    if os.path.dirname(os.path.dirname(os.path.abspath(linpole.__file__))) != src:
        sys.exit(f"bench: linpole was imported from {linpole.__file__}, not {src}")
    return linpole


def measure_setup(root, workload, seed, rounds):
    """Median of SETUP_REPEATS fresh interpreters that import linpole and
    parse every input.  This process has already imported linpole, so its
    bytecode cache is warm.  Returns (raw seconds, scaled seconds), each the
    median."""
    raws, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t_spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), workload, str(seed),
             str(rounds)], cwd=root, capture_output=True, text=True, timeout=150)
        if proc.returncode:
            sys.exit(f"bench: set-up child failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = rec["t_start"] - t_spawn + rec["import_s"] + rec["parse_s"]
        raws.append(raw)
        scaled.append(raw * rec["scale"])
    return median(raws), median(scaled)


def median(xs):
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it."""
    return min(99, math.floor(100 - 1000 / n))


def nearest_rank(sorted_xs, p):
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def timed_pass(rounds, tracer=None):
    """Run every item once, round by round, popping the rounds off the list.
    The reference loop runs once before the first item and after each item.
    After each round, outside the timed region, its outputs are checked and
    dropped, so memory holds the program's state and inputs rather than
    every result of the run (the checks call no traced function).  Returns
    (latencies, reference durations, per-item ok flags, failure lines,
    check problems)."""
    for _ in range(20):
        refloop.timed_reference()
    lat, refs, ok, failures, problems = [], [refloop.timed_reference()], [], [], []
    perf = time.perf_counter
    rounds.reverse()
    while rounds:
        items = rounds.pop()
        outputs = []
        for item in items:
            if tracer is not None:
                tracer.item = item.index
            t0 = perf()
            try:
                out = item.call()
            except Exception as exc:  # an operation that fails is counted, not fatal
                out = exc
                failures.append(f"item {item.index} {item.kind}: {exc!r}")
            lat.append(perf() - t0)
            outputs.append(out)
            ok.append(not isinstance(out, Exception))
            refs.append(refloop.timed_reference())
        if tracer is not None:
            tracer.item = -1
        problems += check_outputs(items, outputs)
    return lat, refs, ok, failures, problems


def check_outputs(items, outputs):
    """Problems found in the outputs that were produced; items that raised
    are counted as failed instead."""
    problems = []
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            continue
        try:
            item.check(out)
        except oracles.CheckFailed as exc:
            problems.append(f"item {item.index} {item.kind}: {exc}")
        except Exception as exc:
            problems.append(f"item {item.index} {item.kind}: check crashed: {exc!r}")
    return problems


def untraced_rate(args):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode:
        sys.exit(f"bench: untraced reference run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["items_per_s"]["value"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    lp = load_program(root)
    n_rounds = workloads.rounds_for(args.workload, args.seconds)
    inputs = workloads.generate(args.workload, args.seed, n_rounds)

    if args.trace:
        import tracing

        base_rate = untraced_rate(args)
        tracer = tracing.Tracer()
        tracer.install(lp)
    else:
        setup_raw, setup_scaled = measure_setup(root, args.workload, args.seed, n_rounds)
        tracer = None

    t0 = time.perf_counter()
    parsed = workloads.parse(args.workload, inputs, lp)
    parse_raw = time.perf_counter() - t0
    rounds = workloads.plan(args.workload, args.seed, inputs, parsed, lp)
    n = sum(len(items) for items in rounds)
    lat, refs, ok, failures, problems = timed_pass(rounds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.item = -2
        tracing.layer_probe(lp)
        tracer.uninstall()

    # Throughput and the tail use the run's mean loop; the median item, short,
    # uses the loops just before and after it (README, "Timing").
    scale = refloop.scale_factor(refs)
    local = [t * k for t, k in zip(lat, refloop.item_scales(refs))]
    ok_raw = sorted(t for t, good in zip(lat, ok) if good)
    ok_local = sorted(t for t, good in zip(local, ok) if good)
    p = tail_percentile(n)
    raw = {"items_per_s": n / sum(lat), "item_p50_ms": median(ok_raw) * 1e3,
           "item_tail_ms": nearest_rank(ok_raw, p) * 1e3}
    print(f"workload {args.workload}  seed {args.seed}  rounds {n_rounds}  items {n}  "
          f"failed {len(failures)}  scale {scale:.4f} (reference loop mean "
          f"{refloop.NOMINAL_S / scale * 1e3:.3f} ms, nominal {refloop.NOMINAL_S * 1e3:g} ms)")
    print(f"item_tail_ms is p{p} of {len(ok_raw)} item latencies")
    for line in failures[:20]:
        print("FAILED:", line)
    for line in problems[:20]:
        print("CHECK FAILED:", line)

    if args.trace:
        metrics = tracer.metrics(scale)
        traced_rate = n / (sum(lat) * scale)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path)
        print(f"traced items_per_s {traced_rate:.4f}  untraced {base_rate:.4f}  "
              f"overhead x{base_rate / traced_rate:.3f}  spans {len(tracer.start)} -> "
              f"{os.path.relpath(path, root)}")
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    else:
        metrics = {
            "setup_s": {"value": setup_scaled, "unit": "s"},
            "items_per_s": {"value": raw["items_per_s"] / scale, "unit": "items/s"},
            "item_p50_ms": {"value": median(ok_local) * 1e3, "unit": "ms"},
            "item_tail_ms": {"value": raw["item_tail_ms"] * scale, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        raw_all = dict(raw, setup_s=setup_raw, peak_rss_mb=peak_rss_mb)
        print(f"in-process parse {parse_raw:.3f} s raw")
        for name, m in metrics.items():
            print(f"  {name:14s} {m['value']:12.4f} {m['unit']:8s} (raw {raw_all[name]:.4f})")
    print(json.dumps({"correct": not problems, "attempted": n, "failed": len(failures),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

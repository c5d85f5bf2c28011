"""One set-up measurement in a fresh interpreter.

Usage: python3 bench/setup_child.py WORKLOAD SEED ROUNDS   (from the repo root)

Prints one JSON line: perf_counter at the first statement (the parent
subtracts its spawn time to get interpreter start-up), the time of
`import linpole`, the time to parse every input of the workload, and the
scale factor from reference loops run just before and after parsing.  Input
generation is not timed: it is the client's work, not the program's.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

t0 = time.perf_counter()
import linpole  # noqa: E402
import_s = time.perf_counter() - t0

sys.path.insert(0, HERE)
import refloop  # noqa: E402
import workloads  # noqa: E402


def main():
    workload, seed, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    inputs = workloads.generate(workload, seed, rounds)
    refs = [refloop.timed_reference() for _ in range(20)]
    t0 = time.perf_counter()
    workloads.parse(workload, inputs, linpole)
    parse_s = time.perf_counter() - t0
    refs += [refloop.timed_reference() for _ in range(20)]
    print(json.dumps({"t_start": T_START, "import_s": import_s, "parse_s": parse_s,
                      "scale": refloop.scale_factor(refs)}))


if __name__ == "__main__":
    main()

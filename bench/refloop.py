"""The fixed reference loop that every time in a run is scaled by.

The machine's speed drifts between processes and within one (it flips
between a fast and a slow state, up to twice apart, for seconds at a time),
and CPU time tracks wall time, so neither clock alone gives steady figures.
The loop below does a fixed amount of pure-Python Fraction, tuple and dict
work, imports nothing from linpole, and runs with the cyclic garbage
collector paused so that a large program heap cannot slow it.

A run times the loop before its first item and after every item, and
scales its times by NOMINAL_S over the mean of all those loops.  The median
item latency is the exception: each item's time is scaled by NOMINAL_S over
the mean of the two loops around it, which describe the machine's state
while a short item ran.  For throughput and the tail, made of long items
that outlast a state, the run's mean was steadier (README).
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Typical duration of reference_loop() on the machine the benchmark was
# calibrated on (see README); fixed, never re-measured.
NOMINAL_S = 0.001


def reference_loop():
    # Mostly tuple and dict work with some Fraction arithmetic: across the
    # machine's fast and slow states this mix changes speed in step with
    # linpole's own code, where a Fraction-only loop over-reacts (README).
    table = {}
    acc = Fraction(0)
    for i in range(1, 841):
        key = (i % 7, i % 5, i % 3)
        table[key] = table.get(key, 0) + i
        if i % 10 == 0:
            acc += Fraction(i, i % 7 + 1)
    return sorted(table.items()), acc


def timed_reference():
    """Duration of one reference loop, in seconds, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_factor(durations):
    """NOMINAL_S over the mean of the measured loop durations."""
    return NOMINAL_S * len(durations) / sum(durations)


def item_scales(durations):
    """Per-item factors; durations[0] precedes the first item and
    durations[i] follows item i."""
    return [2 * NOMINAL_S / (a + b) for a, b in zip(durations, durations[1:])]

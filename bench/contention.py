"""Host contention: how fast the CPUs run while the benchmark measures.

    python3 bench/contention.py SAMPLES.json    # samples until stdin closes

The benchmark host is a shared virtual machine. Other tenants on the same
physical cores slow every instruction stream by up to 2x, in phases that
last from milliseconds to minutes; a whole 30 s run can fall into one. Wall
and CPU times alone then measure the neighbours as much as the program.

A fixed pure-Python kernel (exact rational elimination, bit twiddling and
dict stores, about 0.4 ms) gauges the speed of a core. Its CPU time is
sampled in two places:
- `calibrate()`, called by the process that measures, just before and just
  after each measured interval, on the core the measured work starts on;
- this script, run as a separate process for the whole run, every
  SAMPLE_INTERVAL_S, so that long intervals are covered too. The caller
  leaves these samples out for intervals in which the program itself keeps
  every CPU busy (pool work): they would then gauge the program's own load.
Only CPU time is counted, so being scheduled out in favour of the
benchmark's own processes does not read as contention. The kernel lives
here, not in the program, so no change to the program can speed it up.

`Speed.factor` turns the samples of an interval into the factor that
converts a time measured in it to uncontended-core units: a time t measured
while the kernel took k seconds (median of the samples) is reported as
t * (REFERENCE_KERNEL_S / k) ** SENSITIVITY.
"""

from __future__ import annotations

import bisect
import json
import select
import statistics
import sys
import time
from fractions import Fraction

# CPU time of one kernel() call on an uncontended core of the machine the
# bounds were set on (2-CPU KVM guest, Python 3.11): the unit that contended
# times are converted to.
REFERENCE_KERNEL_S = 0.00042
# How strongly the program's times follow the kernel's: the least-squares
# slope of log op time on log kernel time over the repetitions of each op,
# pooled over several runs of each workload, was 0.7 to 0.9.
SENSITIVITY = 0.85
SAMPLE_INTERVAL_S = 0.01
CALIBRATION_RUNS = 5

_HILBERT = [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)]


def kernel():
    """A fixed slice of the interpreter work the program does."""
    m = [row[:] for row in _HILBERT]
    for c in range(6):
        for r in range(c + 1, 6):
            f = m[r][c] / m[c][c]
            for k in range(c, 6):
                m[r][k] -= f * m[c][k]
    acc = 0
    for mask in range(1 << 10):
        acc += bin(mask & (mask >> 1)).count("1")
    seen = {}
    for i in range(1000):
        seen[(i * 7919) & 1023] = i
    return acc + len(seen)


def _kernel_cpu_s():
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def calibrate():
    """CPU times of CALIBRATION_RUNS kernel calls in this process."""
    return [_kernel_cpu_s() for _ in range(CALIBRATION_RUNS)]


def monitor(out_path):
    samples = []
    while not select.select([sys.stdin], [], [], SAMPLE_INTERVAL_S)[0]:
        samples.append((time.monotonic(), _kernel_cpu_s()))
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(samples, f)


class Speed:
    """The monitor's samples, looked up by time."""

    def __init__(self, samples):
        self.stamps = [s[0] for s in samples]
        self.cpu = [s[1] for s in samples]

    def factor(self, start, end, calibration, monitor=True):
        """(REFERENCE_KERNEL_S / k) ** SENSITIVITY, k the median of the
        calibration samples and, with `monitor`, of the monitor's samples
        in [start, end]."""
        samples = list(calibration)
        if monitor:
            lo = bisect.bisect_left(self.stamps, start)
            hi = bisect.bisect_right(self.stamps, end)
            samples += self.cpu[lo:hi]
        k = statistics.median(samples)
        return (REFERENCE_KERNEL_S / k) ** SENSITIVITY

    def slowdown(self):
        """Median kernel time over the whole run / REFERENCE_KERNEL_S."""
        return statistics.median(self.cpu) / REFERENCE_KERNEL_S


if __name__ == "__main__":
    monitor(sys.argv[1])

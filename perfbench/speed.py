"""Machine-speed calibration for the benchmark's timed metrics.

The benchmark times operations in CPU seconds, so the time a shared virtual
machine hands the CPU to someone else (steal) stays out.  CPU time itself
still varies: a fixed ``decide`` call takes 160 ms of CPU in one minute and
330 ms in the next, because the physical core is shared.  The machine flips
between a fast and a slow state several times a second, and the share of
time it spends slow drifts over minutes.  Every timing in a run scales with
that share, so runs made minutes apart disagree by far more than any change
worth detecting.

The benchmark therefore times a fixed calibration kernel, which never calls
jointmeas, in CPU seconds at intervals throughout each run, and reports its
timed metrics at the reference speed: the measured time multiplied by
``REFERENCE_KERNEL_S / mean(kernel time in this run)``.  The mean, like the
time of an operation that spans many flips, grows in step with the share of
time spent slow; the median would jump from one state to the other.  A
change to jointmeas moves the measured times and leaves the kernel alone, so
it shows in full; a change of machine speed moves both and cancels.  The raw
times and the speed factor are kept in the run's record.
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter, process_time

import numpy as np

# A round figure near the kernel's mean CPU time on the reference machine
# (2-vCPU Xeon VM, Python 3.11, numpy 2.4, OpenBLAS on one thread).  It only
# sets the scale of the reported figures.
REFERENCE_KERNEL_S = 2.5e-3
# kernel timings per calibration, and the least time between calibrations
BURST = 4
INTERVAL_S = 0.2

_H = np.array([[2.0, 0.3, -0.1, 0.4], [0.3, 1.0, 0.2, 0.0],
               [-0.1, 0.2, 0.5, 0.1], [0.4, 0.0, 0.1, -0.7]])


def kernel() -> float:
    """A fixed mix of small-matrix numpy calls and interpreter work, the two
    things jointmeas spends its time on."""
    acc, items = 0.0, {}
    for i in range(300):
        w = np.linalg.eigvalsh(_H + i * 1e-3)
        acc += float(w[0]) * 0.5 + math.sqrt(abs(acc) + 1.0)
        items[i % 17] = (acc, i)
    return acc + len(items)


class Speed:
    """Calibration samples taken through a run."""

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def sample(self, force: bool = False):
        """Time the kernel ``BURST`` times, unless one was timed within
        ``INTERVAL_S`` and ``force`` is false."""
        if not force and perf_counter() - self._last < INTERVAL_S:
            return
        for _ in range(BURST):
            t0 = process_time()
            kernel()
            self.samples.append(process_time() - t0)
        self._last = perf_counter()

    def factor(self) -> float:
        """Multiplier from this run's times to the reference speed."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples)

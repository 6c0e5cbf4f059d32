"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts: the same
iteration can take 1.4 to 1.7 times as long for stretches that last from
seconds to minutes, on every workload at once, with no steal time
reported. A median over
a 60 s run cannot average that out, because a whole run can fall inside one
slow stretch.

So every iteration is bracketed by a fixed calibration kernel, which the
harness times just before it spawns the workload process and again just
after that process has ended. It never runs in the measured process, so
it adds nothing to that process's time, CPU or RSS peak. The kernel
imports nothing from fairrerank, so no change to the program moves it.
The end-to-end times are reported scaled to a host on which the kernel
takes REFERENCE_S seconds:

    reported = measured * REFERENCE_S / host kernel seconds at that iteration

where the host's kernel seconds at an iteration are the median of the
kernel times around it and around the WINDOW iterations on either side
(ten kernel runs, a few seconds to either side). Most slow stretches last
longer than that window, while one kernel run alone varies by 15-20%
from the next.

A change to the program moves the measured time and not the kernel, so it
shows in the reported time in full; a slow stretch of the host moves both,
and mostly cancels. The unscaled medians and the kernel's own median are
printed with the per-layer metrics (run_raw_s, setup_raw_s, cpu_raw_s,
host.calibration_s). `python3 perfbench/hostspeed.py` prints the kernel's
time on the current host.

The kernel mixes the kinds of work the workloads do: interpreted Python,
many small numpy calls, float formatting in the shape of a score export,
a row-wise top-k over a 600 x 500 matrix and small dense solves like
those of an ALS sweep.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel seconds of the reference host (a quiet stretch of a 2-vCPU Xeon VM).
REFERENCE_S = 0.1
# Iterations on either side whose kernel times also estimate an iteration's host speed.
WINDOW = 2


def kernel_seconds() -> float:
    """Wall seconds of one run of the calibration kernel."""
    small = (np.arange(64) * 7919 % 101) / 101.0
    floats = ((np.arange(4000) * 7919 % 10007) / 10007.0).tolist()
    rows = ((np.arange(60 * 500) * 7919 % 10007) / 10007.0).reshape(60, 500)
    matrix = ((np.arange(600 * 500) * 7919 % 10007) / 10007.0).reshape(600, 500)
    gram = np.eye(32) * 2.0 + np.outer(small[:32], small[:32])
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(120_000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
    acc = 0.0
    for _ in range(5000):
        order = np.argsort(small)
        acc += float(small[order[0]]) + float(small.sum())
    text = 0
    for _ in range(10):
        text += len("\n".join(f"{value:.6f}" for value in floats))
    for user, row in enumerate(rows):
        text += len("\n".join(f"{user}\t{item}\t{value:.6f}" for item, value in enumerate(row)))
    for _ in range(6):
        top = np.argpartition(-matrix, 10, axis=1)[:, :10]
        acc += float(np.take_along_axis(matrix, top, axis=1).sum())
    for row in matrix[:400]:
        acc += float(np.linalg.solve(gram, row[:32])[0])
    elapsed = time.perf_counter() - start
    if not (acc > 0 and text > 0 and len(counts) == 1009):  # keeps every part's result used
        raise RuntimeError("calibration kernel produced an unexpected result")
    return elapsed


def host_kernel_s(kernels: list[float]) -> list[float]:
    """Host kernel seconds at each iteration of a run, from the kernel
    times around each iteration, in the order the iterations ran."""
    return [statistics.median(kernels[max(0, i - WINDOW) : i + WINDOW + 1]) for i in range(len(kernels))]


def scaled(measured: float, kernel_s: float) -> float:
    """A measured time expressed at the reference host's speed."""
    return measured * REFERENCE_S / kernel_s


if __name__ == "__main__":
    samples = sorted(kernel_seconds() for _ in range(20))
    print(f"calibration kernel: min {samples[0]:.4f} s, median {samples[10]:.4f} s, max {samples[-1]:.4f} s")

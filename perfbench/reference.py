"""A fixed reference kernel that tracks how fast the machine is right now.

On a shared host the speed of a core drifts by tens of percent over minutes,
and wall times of the same code drift with it.  The benchmark therefore runs
this kernel before the first set-up and after every set-up and op, and scales
the wall time of each to the reference speed: wall time x ``NOMINAL_SECONDS``
/ (mean of the two reference times around it).  Both slow down together, so
the scaled time stays put while the raw time moves.

The kernel is plain numpy written here, never the library, so a change to
``robustcenter`` cannot change it.  It mixes the three access patterns the
workloads have: long passes over 50k x 8 coordinates, short passes over 10k x
2 coordinates driven from a Python loop, and a broadcast pairwise block.  Its
data is fixed (seed 0) and made once, untimed.

It runs in a helper process, and only while the benchmark's process waits for
it, so its memory does not count towards the workload's peak and its
allocations leave the workload's heap as it was.  Before each run the helper
is pinned to the core the benchmark's process is on, so it measures the core
the ops run on.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from time import perf_counter

import numpy as np

SIZES = (50_000, 10_000, 400)  # long pass, short pass and pairwise block sizes
# The kernel's wall time at the reference speed, about its median on the 2-core
# Xeon the benchmark was written on.  A fixed scale: it only sets the units.
NOMINAL_SECONDS = 0.25


def _farthest_first(x: np.ndarray, passes: int) -> int:
    nearest = np.full(x.shape[0], np.inf)
    i = 0
    for _ in range(passes):
        diff = x - x[i]
        np.minimum(nearest, np.sqrt((diff * diff).sum(-1)), out=nearest)
        i = int(nearest.argmax())
    return i


def _pairwise(block: np.ndarray) -> float:
    diff = block[:, None, :] - block[None, :, :]
    return float(np.sqrt((diff * diff).sum(-1)).max())


def kernel(sizes: tuple[int, int, int]):
    """The reference kernel over fixed data; call the result to time one run."""
    rng = np.random.default_rng(0)
    long_n, short_n, block_n = sizes
    long, short = rng.standard_normal((long_n, 8)), rng.standard_normal((short_n, 2))
    block = rng.standard_normal((block_n, 2))

    def run() -> float:
        t0 = perf_counter()
        _farthest_first(long, 24)
        _farthest_first(short, 300)
        for _ in range(8):
            _pairwise(block)
        return perf_counter() - t0

    return run


def _current_cpu() -> int:
    """The core this thread is on, or -1 where the C library cannot say."""
    try:
        return int(ctypes.CDLL(None).sched_getcpu())
    except (OSError, AttributeError):
        return -1


class Reference:
    """The kernel in a helper process, timed around successive timed calls."""

    def __init__(self, sizes: tuple[int, int, int] = SIZES) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__, *map(str, sizes)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self._last = self.run()
        except BaseException:
            self.close()
            raise

    def run(self) -> float:
        """Time one run of the kernel on the core this process is on."""
        cpu = _current_cpu()
        if cpu >= 0:
            os.sched_setaffinity(self._proc.pid, {cpu})
        self._proc.stdin.write("run\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited with status {self._proc.wait()}")
        return float(line)

    def around(self) -> float:
        """Run the kernel and return the mean of this run and the one before:
        the reference time around whatever was timed in between."""
        after = self.run()
        mean = (self._last + after) / 2
        self._last = after
        return mean

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    timed = kernel(tuple(int(arg) for arg in sys.argv[1:4]))
    for _ in sys.stdin:
        print(repr(timed()), flush=True)

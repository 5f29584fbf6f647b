"""How fast the host runs right now, sampled by a fixed reference kernel.

The benchmark runs on a shared host, where identical work runs 10-30%
slower for tens of seconds at a time while neighbours are busy; no
statistic over a 30-second run averages that away.  So after every timed
call the benchmark runs a fixed kernel for a set share of the call's time,
and divides the call's time by the kernel's slowdown over the same stretch.
The kernels use numpy alone, never `dre`, so no change to the package moves
them: a normalised time still moves with every change in the package's own
cost, but much less with the host's load.

Contention slows small, call-bound numpy work and large, memory-bound work
differently, so each workload names the kernel that imitates its own
dominant work:

* `grid`: bit operations on a packed 401 x 448 grid, one small numpy call
  after another (as `PackedGrid.reach` does), then a multiply-xorshift hash
  over a 256 KiB array (as `rng.hash_parts` does), the two in about the
  5:1 time ratio of reach to hashing in `reach-generic` and `shape-census`;
* `stream`: the same hash over a freshly allocated 32 MiB array (the size
  of one 100-trial batch of an R=200 window), then boolean row operations
  on a 100 x 201 batch (as the row sweep does), in about the 3:1 ratio of
  hashing and mask lookup to row sweep in `sweep-bisect`.

The slowdown is the kernel's mean time over its REF_S, the kernel's time on
an uncontended core of the 2-vCPU 2.1 GHz Xeon host the benchmark was
written on; there, normalised and wall seconds agree when the host is idle.
The kernels allocate memory, so the benchmark reads peak memory before the
first one runs.
"""

from __future__ import annotations

import time

import numpy as np

SHARE = 0.05  # kernel time per second of timed work
_MUL = np.uint64(0x9E3779B97F4A7C15)
_ONE, _SHIFT = np.uint64(1), np.uint64(29)


def _hash(values: np.ndarray) -> np.ndarray:
    h = values * _MUL
    h ^= h >> _SHIFT
    h *= _MUL
    return h


def _grid_kernel():
    grid = np.arange(401 * 7, dtype=np.uint64).reshape(401, 7)
    values = np.arange(1 << 15, dtype=np.uint64)

    def kernel():
        x = grid
        for _ in range(100):
            x = ((x << _ONE) | (x >> _ONE)) & grid ^ x
        return x, _hash(values)
    return kernel


def _stream_kernel():
    values = np.arange(1 << 22, dtype=np.uint64)
    gate = np.zeros((100, 201), dtype=bool)
    gate[:, ::3] = True

    def kernel():
        row = gate
        for _ in range(600):
            row = (row | np.roll(row, 1, axis=1)) & gate
        return row, _hash(values)
    return kernel


# kernel name -> (factory, REF_S)
KERNELS = {"grid": (_grid_kernel, 1.0e-3), "stream": (_stream_kernel, 36e-3)}


class HostSpeed:
    """Samples a kernel's time; `take` returns the slowdown and resets."""

    def __init__(self, kernel: str):
        factory, self._ref_s = KERNELS[kernel]
        self.kernel = factory()
        self.kernel()
        t0 = time.perf_counter()
        for _ in range(3):
            self.kernel()
        self._nominal = (time.perf_counter() - t0) / 3
        self._seconds = 0.0
        self._runs = 0

    def sample(self, work_seconds: float, share: float = SHARE) -> None:
        """Run the kernel for about share of work_seconds, at least once."""
        runs = max(1, round(work_seconds * share / self._nominal))
        t0 = time.perf_counter()
        for _ in range(runs):
            self.kernel()
        self._seconds += time.perf_counter() - t0
        self._runs += runs

    def take(self) -> float:
        """The kernel's mean time since the last take, over its REF_S."""
        mean = self._seconds / self._runs
        self._seconds, self._runs = 0.0, 0
        return mean / self._ref_s

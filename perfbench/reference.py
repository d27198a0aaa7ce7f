"""Fixed reference loops that measure how fast the core runs right now.

The benchmark runs on shared hosts where other tenants slow a core by up
to a factor of two for seconds or minutes at a time, and that slowdown
moves wall clock as much as any change to the program would.  A child
process therefore samples a reference loop while it works:
`Sampler.arm` makes SIGALRM run one unit every `INTERVAL_S` of wall
clock, on the same core and between the same bytecodes as the workload,
and records how long each unit took.  The parent subtracts the sampled
time from the invocation's wall clock and rescales the rest by the
unit's unloaded time over its mean time in that invocation.

Contention slows interpreted code and memory-bound array code by
different amounts, so there are two loops, and each workload is measured
against the one that resembles the layer it spends its time in:

- `python_unit`: small-int arithmetic, nested tuple indexing and dict
  lookups, the mix of the table search and the code constructions;
- `numpy_unit`: the row gathers of the axiom-1 scan, on a 512 x 512
  table whose 2 MB arrays, like the scan's 8 MB ones, do not fit in L2.

Neither calls bckcodes.  A change to the program can still move the
yardstick through the state it leaves in the caches the loop shares with
it: inside family-6 and verify-1024 the array loop runs about twice as
slow as alone, partly because its arrays have been evicted.  So `work_s`
compares commits on one host; it is not the wall clock a user would
read on an idle machine, and a claimed gain should show in the raw wall
clock as well.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Mean time of one unit on an unloaded core of the host the bounds were
# tuned on (Intel Xeon, 2-vCPU KVM guest, CPython 3.11, numpy 2.4).
UNIT_S = {"python": 0.003, "numpy": 0.003}
INTERVAL_S = 0.1
START_UNITS = 5

_N = 7
_TABLE = tuple(tuple((x - y) % _N if x >= y else 0 for y in range(_N)) for x in range(_N))
_INDEX = {x * _N + y: (x * y) % _N for x in range(_N) for y in range(_N)}
_REPS = 100


def python_unit() -> int:
    """One fixed unit of interpreted work; returns a checksum so nothing is skipped.

    It creates no container, so the collector never runs inside it and
    its time does not grow with the size of the workload's heap.
    """
    t = _TABLE
    index = _INDEX
    acc = 0
    for _ in range(_REPS):
        for x in range(_N):
            row = t[x]
            for y in range(_N):
                xy = row[y]
                for z in range(_N):
                    acc += t[xy][z] == t[row[z]][y]
                acc += index.get(xy * _N + y, -1)
    return acc


_M = 512
_ROWS = 1
_arrays = None


def _numpy_arrays():
    """The fixed table and two buffers, 2 MB each; a multiplicative hash scatters the entries."""
    global _arrays
    if _arrays is None:
        table = np.arange(_M * _M, dtype=np.intp)
        table *= 2654435761
        table >>= 13
        table %= _M
        table = table.reshape(_M, _M)
        _arrays = (table, np.empty_like(table), np.empty_like(table))
    return _arrays


def numpy_unit() -> int:
    """One fixed unit of array gathers: `_ROWS` rows of x * (y * z) on a fixed table."""
    table, index, inner = _numpy_arrays()
    flat = table.ravel()
    acc = 0
    for x in range(_ROWS):
        row = table[x]
        np.multiply(row[:, None], _M, out=index)
        np.add(index, row[None, :], out=index)
        np.take(flat, index, out=inner)
        np.multiply(inner, _M, out=index)
        np.add(index, table.T, out=index)
        np.take(flat, index, out=inner)
        acc += int(np.count_nonzero(inner))
    return acc


UNITS = {"python": python_unit, "numpy": numpy_unit}


class Sampler:
    """Times reference units, on demand and from a wall-clock timer."""

    def __init__(self, kind: str):
        self.kind = kind
        self.count = 0
        self.total_s = 0.0
        self.start_s = 0.0
        self._busy = False

    def _time(self, unit) -> float:
        start = time.perf_counter()
        unit()
        return time.perf_counter() - start

    def _tick(self, *_signal_args) -> None:
        # A tick that falls due while one runs (after a long C call) is
        # dropped: a nested unit would overwrite the buffers in use.
        if self._busy:
            return
        self._busy = True
        try:
            self.total_s += self._time(UNITS[self.kind])
            self.count += 1
        finally:
            self._busy = False

    def arm(self) -> None:
        """Time START_UNITS python units now, for set-up, then one `kind` unit every INTERVAL_S."""
        self.start_s = sum(self._time(python_unit) for _ in range(START_UNITS))
        if self.kind == "numpy":
            _numpy_arrays()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return {
            "ref_kind": self.kind,
            "ref_units": self.count,
            "ref_s": self.total_s,
            "ref_start_s": self.start_s,
        }


def rescale(seconds: float, kind: str, units: int, units_s: float) -> float:
    """`seconds` measured while `units` units of `kind` took `units_s`, at the loop's unloaded speed."""
    return seconds * UNIT_S[kind] * units / units_s

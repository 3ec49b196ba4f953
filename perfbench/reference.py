"""A fixed reference computation that reads the machine's current speed.

On a shared host the same work can run up to 1.5x slower for seconds to
minutes at a time, while another tenant loads the machine.  The benchmark
runs this unit (no cemnet code: a dict-and-sort loop in the interpreter, a
few numpy calls on cache-sized arrays and two passes over an array larger
than the per-core cache, like cemnet's own mix) a few times right before
and right after every timed step, off the clock, and turns the step's
seconds into nominal seconds with ``nominal``.  A slower machine slows both,
so the nominal time tracks the program, not the host.  cemnet never runs
inside the unit, so a change to cemnet cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# seconds of one unit at the nominal speed: the unit's median on the
# 2-vCPU Xeon host the benchmark was tuned on.  Only its ratio to the
# in-run median matters when two runs are compared.
REF_S = 0.004
UNITS_PER_TICK = 3

_rng = np.random.default_rng(0)
_ARRAY = _rng.random(50_000)
_MATRIX = _rng.random((120, 120))
# 4 MB, twice the per-core cache of the host the benchmark was tuned on, so
# reading it feels other tenants' load on the shared cache; it adds a
# constant 5 MB to the benchmark process's peak RSS
_LARGE = _rng.random(512 * 1024)
_GATHER = _rng.integers(0, _LARGE.size, 100_000)


def reference_unit() -> float:
    """Seconds taken by one fixed unit of work, with the collector paused.

    The pause keeps the size of cemnet's heap from reaching the unit's
    timing through garbage-collection passes.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(6000):
            key = (i * 7919) % 997
            counts[key] = counts.get(key, 0) + i
        sorted(counts.items(), key=lambda kv: kv[1])
        np.sort(_ARRAY)
        np.bincount((_ARRAY * 100).astype(np.int64))
        _MATRIX @ _MATRIX
        _LARGE.sum()
        _LARGE[_GATHER].sum()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def tick() -> list[float]:
    """``UNITS_PER_TICK`` unit timings, taken now."""
    return [reference_unit() for _ in range(UNITS_PER_TICK)]


def nominal(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured next to the unit ``samples``, at the nominal speed."""
    return seconds * REF_S / statistics.median(samples)

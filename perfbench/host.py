"""How fast the shared host runs right now, measured with code of its own.

On a shared host a CPU can be slowed for seconds at a time by other
tenants: the same code then takes up to ~1.7x as long.  Two remedies
live here:

- :func:`pin_fastest` runs each pass, and every process it forks, on
  the CPU that is fast when the pass starts;
- :class:`Speed` times a small fixed computation (:func:`tick`) between
  the client's calls, so :func:`typical` can keep the calls made while
  the host was near its fastest and rescale them to what they would
  have taken with the tick at its reference time.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

CPUS = frozenset(os.sched_getaffinity(0))

# 4 MiB: larger than a core's private caches, so the gather below pays
# for the shared cache and memory traffic other tenants add.
_TABLE = np.random.default_rng(0).random(1 << 19)
_ROWS = np.random.default_rng(1).integers(0, _TABLE.size, 4096)


def tick() -> float:
    """Seconds of a fixed random gather from a 4 MiB table.

    The slow mode of the host is other tenants contending for caches
    and memory, so the probe has to touch more than a core's own
    caches.  Measured over 16 to 20 identical passes of each workload,
    rescaling call times by this gather left the two halves of a run
    within 0.07 to 0.7% of each other; rescaling by a mix of interpreter
    and in-cache NumPy work (about 120 us) left them 1 to 7% apart.
    """
    t0 = perf_counter()
    for _ in range(4):
        np.take(_TABLE, _ROWS).sum()
    return perf_counter() - t0


def pin_fastest() -> float:
    """Pin this process to the CPU where :func:`tick` runs fastest now.

    Each pass runs on the CPU that is fast when it starts, so fewer
    passes are slowed throughout.  Processes forked while pinned (the
    fleet's workers) inherit the CPU, so a tick on it speaks for all of
    them.  Returns a tick on the chosen CPU, the fastest of three as in
    :class:`Speed`.
    """
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = float(np.median([tick() for _ in range(15)]))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})
    return min(tick(), tick(), tick())


def unpin() -> None:
    os.sched_setaffinity(0, CPUS)


#: Seconds :func:`tick` takes on an uncontended CPU of the reference
#: host (a 2.1 GHz Xeon, 2 CPUs); rescaled times are in that host's
#: seconds.
TICK_REF = 28e-6


#: Seconds between two probes of :class:`Speed`.
GAP = 0.005


class Speed:
    """The host's current speed, re-probed at most every :data:`GAP`.

    ``now()`` is called before each timed call and returns the latest
    tick seconds (the fastest of three back to back).  ``spent`` is the
    wall time the ticks took, for the caller to take out of whatever it
    timed around them.
    """

    def __init__(self):
        self._at = -1.0
        self._tick = TICK_REF
        self.spent = 0.0

    def now(self) -> float:
        start = perf_counter()
        if start - self._at > GAP:
            self._tick = min(tick(), tick(), tick())
            self._at = perf_counter()
            self.spent += self._at - start
        return self._tick


def typical(times, ticks, cut: float):
    """Each call's typical time, rescaled to the reference host speed.

    ``times`` and ``ticks`` are (passes, calls): the wall time of call
    ``k`` in each pass and the tick measured just before it.  A call's
    figure is the median over passes of ``time * TICK_REF / tick``,
    taken over the passes where its tick was at most ``cut`` (the host
    near its fastest, where rescaling changes little), or over all
    passes when there is none.  Rescaling alone is not exact: how much
    contention slows the program compared with the tick depends on what
    the other tenants run.  Returns the figures and the share of
    samples taken from fast passes.
    """
    times = np.asarray(times, dtype=float)
    ticks = np.asarray(ticks, dtype=float)
    scaled = times * (TICK_REF / ticks)
    fast = ticks <= cut
    out = np.median(scaled, axis=0)
    for k in np.flatnonzero(fast.any(axis=0)):
        out[k] = np.median(scaled[fast[:, k], k])
    return out, float(fast.mean()) if fast.size else 1.0

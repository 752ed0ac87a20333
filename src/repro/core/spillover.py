"""Spillover-TCIO: the storage-layer utilization signal (Section 4.3).

SSD capacity varies across clusters and is hard to observe directly, so
the paper unifies utilization measurement through job behaviour: the
**spillover TCIO percentage** is the share of intended-SSD TCIO that
ended up on HDD because the SSD was full::

    P(X, t) = sum_i SPILLOVER_TCIO(x_i, t)
              ------------------------------------
              sum_i x_i.DEV * x_i.TCIO_HDD(t)

where ``SPILLOVER_TCIO(x, t) = frac_spilled * (t - ts)/(t - ta) *
TCIO_HDD(t)`` once spillover started at ``ts``.  A large value means
many jobs failed to land on SSD, i.e. the SSDs are nearly full.

:func:`spillover_percentage` evaluates the formula over a list of
:class:`ObservedJob`; :class:`SpilloverWindow` is the adaptive policy's
look-back window, which holds only the SSD-scheduled jobs the formula
reads and equals :func:`spillover_percentage` over them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

__all__ = [
    "ObservedJob",
    "SpilloverWindow",
    "spillover_tcio",
    "spillover_percentage",
]


@dataclass(frozen=True)
class ObservedJob:
    """One entry of the adaptive algorithm's observation history ``Xh``.

    Attributes
    ----------
    arrival, end:
        Job interval endpoints.
    tcio_rate:
        The job's HDD TCIO rate (HDD-equivalents).
    scheduled_ssd:
        ``x.DEV``: whether the placement algorithm sent the job to SSD.
    spill_time:
        When spillover began, or ``None`` if fully placed.
    spilled_fraction:
        Fraction of the job's footprint that did not fit (0..1).
    """

    arrival: float
    end: float
    tcio_rate: float
    scheduled_ssd: bool
    spill_time: float | None
    spilled_fraction: float


def _tcio_hdd(job: ObservedJob, t: float) -> float:
    """Cumulative TCIO the job would have exerted on HDD by time ``t``."""
    elapsed = max(min(t, job.end) - job.arrival, 0.0)
    return job.tcio_rate * elapsed


def spillover_tcio(job: ObservedJob, t: float) -> float:
    """``SPILLOVER_TCIO(x, t)``: unrealized intended-SSD TCIO at ``t``."""
    if job.spill_time is None or not job.scheduled_ssd:
        return 0.0
    ts = job.spill_time
    if not (job.arrival <= ts <= t):
        return 0.0
    span = t - job.arrival
    if span <= 0:
        return 0.0
    weight = (t - ts) / span
    return job.spilled_fraction * weight * _tcio_hdd(job, t)


class SpilloverWindow:
    """The look-back window of SSD-scheduled jobs, in Python floats.

    Both sums of the paper's formula read only jobs the placement
    algorithm sent to SSD (``x.DEV``), so the window keeps only those:
    :meth:`append` drops a job that was not scheduled, and
    :meth:`extend` takes scheduled jobs only.  Each kept job is one row
    ``(arrival, end, tcio_rate, spill_time, spilled_fraction)`` of
    Python floats, ``spill_time`` NaN when nothing spilled.

    - *append* / *extend* add rows at the tail (arrivals must be
      non-decreasing);
    - *evict* bisects the arrival order and deletes the prefix;
    - *percentage* walks the rows with sequential float sums, in the
      same order and with the same operations as
      :func:`spillover_percentage`, so it equals
      ``spillover_percentage(window.to_jobs(), t)`` bit for bit.

    A window holds a few scheduled jobs per decision interval, so one
    pass over Python floats costs less than a vectorized evaluation's
    fixed per-call overhead.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: list[tuple[float, float, float, float, float]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def __setstate__(self, state) -> None:
        """Restore a pickled window, including the structure-of-arrays
        layout older checkpoints hold (``_arrival`` ... ``_spilled_fraction``
        buffers live between ``_head`` and ``_tail``, every observed job
        with its ``_scheduled`` flag): its scheduled rows are kept."""
        _, slots = state
        if "_rows" in slots:
            self._rows = slots["_rows"]
            return
        live = slice(slots["_head"], slots["_tail"])
        sched = slots["_scheduled"][live]
        cols = (
            slots[name][live][sched].tolist()
            for name in ("_arrival", "_end", "_tcio_rate", "_spill_time",
                         "_spilled_fraction")
        )
        self._rows = list(zip(*cols))

    def append(
        self,
        arrival: float,
        end: float,
        tcio_rate: float,
        scheduled_ssd: bool,
        spill_time: float | None,
        spilled_fraction: float,
    ) -> None:
        """Record one observed job; a job not scheduled to SSD is dropped."""
        if scheduled_ssd:
            self._rows.append((
                arrival, end, tcio_rate,
                math.nan if spill_time is None else spill_time,
                spilled_fraction,
            ))

    def extend(
        self,
        arrival: list[float],
        end: list[float],
        tcio_rate: list[float],
        spill_time: list[float],
        spilled_fraction: list[float],
    ) -> None:
        """Bulk append of SSD-scheduled jobs, one float list per column
        (``spill_time`` NaN-encoded, arrivals sorted)."""
        self._rows.extend(zip(arrival, end, tcio_rate, spill_time, spilled_fraction))

    def evict_older(self, window_start: float) -> None:
        """Drop rows with ``arrival <= window_start``."""
        k = bisect_right(self._rows, window_start, key=itemgetter(0))
        if k:
            del self._rows[:k]

    def percentage(self, t: float) -> float:
        """``P_SPILLOVER_TCIO`` over the window at time ``t``.

        Equals :func:`spillover_percentage` over :meth:`to_jobs`:
        ``_tcio_hdd`` and ``spillover_tcio`` inlined, ``None`` spill
        times read as NaN (which fails ``arrival <= ts``), and the
        ``num += 0.0`` of a row that did not spill skipped (``num``
        never holds -0.0, so adding +0.0 leaves it unchanged).
        """
        t = float(t)
        num = 0.0
        den = 0.0
        for arrival, end, rate, ts, frac in self._rows:
            elapsed = (end if end < t else t) - arrival
            tcio = rate * (0.0 if 0.0 > elapsed else elapsed)
            den += tcio
            if arrival <= ts <= t:
                span = t - arrival
                if not span <= 0:
                    num += frac * ((t - ts) / span) * tcio
        if den <= 0.0:
            return 0.0
        return num / den

    def to_jobs(self) -> list[ObservedJob]:
        """The window's scheduled jobs as ``ObservedJob`` objects."""
        return [
            ObservedJob(
                arrival=arrival, end=end, tcio_rate=rate, scheduled_ssd=True,
                spill_time=None if math.isnan(ts) else ts,
                spilled_fraction=frac,
            )
            for arrival, end, rate, ts, frac in self._rows
        ]


def spillover_percentage(history: list[ObservedJob], t: float) -> float:
    """``P_SPILLOVER_TCIO(X, t)`` over an observation history.

    Returns 0 when no TCIO was scheduled onto SSD (an empty or all-HDD
    window is indistinguishable from an idle SSD, so the algorithm reads
    it as "room available").
    """
    num = 0.0
    den = 0.0
    for job in history:
        if job.scheduled_ssd:
            den += _tcio_hdd(job, t)
            num += spillover_tcio(job, t)
    if den <= 0.0:
        return 0.0
    return num / den

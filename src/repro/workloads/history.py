"""Historical system metrics (Table 2, feature group A).

For every job the paper includes "properties of previously completed
jobs from the same user's pipelines, including the past TCIO, job
lifetime, and size" (Section 4.1).  This module computes, per job, the
running averages over *strictly earlier* completed jobs of the same
pipeline — a job never sees its own outcome, nor the outcome of a job
that has not finished by its arrival.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..cost import CostRates, DEFAULT_RATES
from .job import Trace

__all__ = ["HISTORY_FEATURES", "HistoricalMetrics", "compute_history"]

#: Order of the group-A feature columns.
HISTORY_FEATURES = (
    "average_tcio",
    "average_size",
    "average_lifetime",
    "average_io_density",
)


@dataclass(frozen=True)
class HistoricalMetrics:
    """Per-job historical averages, aligned with the trace's job order.

    ``observed`` marks jobs whose pipeline had at least one completed
    prior execution; for unobserved jobs the averages fall back to 0 (a
    distinguishable sentinel for the trees, as the smallest possible
    value of each metric).
    """

    average_tcio: np.ndarray
    average_size: np.ndarray
    average_lifetime: np.ndarray
    average_io_density: np.ndarray
    observed: np.ndarray

    def as_matrix(self) -> np.ndarray:
        """(n_jobs, 4) matrix in :data:`HISTORY_FEATURES` order."""
        return np.column_stack(
            [self.average_tcio, self.average_size, self.average_lifetime, self.average_io_density]
        )


def compute_history(
    trace: Trace, rates: CostRates = DEFAULT_RATES
) -> HistoricalMetrics:
    """Running per-pipeline averages over previously *completed* jobs.

    The computation is causally correct: job ``i``'s history includes
    job ``j`` of the same pipeline iff ``j`` is listed before ``i``
    and ``j.end <= i.arrival``.  A zero-duration job therefore never
    folds into its own row or into same-instant rows listed before it,
    exactly as the online extractor (which only sees jobs pushed
    earlier) behaves.
    """
    n = len(trace)
    tcio = trace.tcio(rates)
    density = trace.io_density(rates)
    sizes = trace.sizes
    durations = trace.durations
    arrivals = trace.arrivals
    ends = trace.ends

    out_tcio = np.zeros(n)
    out_size = np.zeros(n)
    out_life = np.zeros(n)
    out_density = np.zeros(n)
    observed = np.zeros(n, dtype=bool)

    # Per pipeline: pending completions sorted by end time, folded into
    # running sums as arrivals pass them.  Trace is arrival-sorted.
    pending: dict[str, list[tuple[float, int]]] = defaultdict(list)
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = defaultdict(int)

    pipelines = trace.pipelines
    for pipeline in set(pipelines):
        sums[pipeline] = np.zeros(4)

    # Pre-sort each pipeline's jobs by end time once.
    by_pipeline: dict[str, list[int]] = defaultdict(list)
    for i, p in enumerate(pipelines):
        by_pipeline[p].append(i)
    cursor: dict[str, int] = defaultdict(int)
    ends_sorted: dict[str, list[int]] = {
        p: sorted(idxs, key=lambda i: ends[i]) for p, idxs in by_pipeline.items()
    }

    for i in range(n):
        p = pipelines[i]
        t = arrivals[i]
        order = ends_sorted[p]
        c = cursor[p]
        # Ends tie-break by index, so the entries this row may not see
        # (listed at or after ``i``, hence ending exactly at ``t``) sit
        # last among those with ``end <= t``: stop at the first one.
        while c < len(order) and ends[order[c]] <= t and order[c] < i:
            j = order[c]
            sums[p] += np.array([tcio[j], sizes[j], durations[j], density[j]])
            counts[p] += 1
            c += 1
        cursor[p] = c
        if counts[p] > 0:
            avg = sums[p] / counts[p]
            out_tcio[i], out_size[i], out_life[i], out_density[i] = avg
            observed[i] = True

    return HistoricalMetrics(
        average_tcio=out_tcio,
        average_size=out_size,
        average_lifetime=out_life,
        average_io_density=out_density,
        observed=observed,
    )

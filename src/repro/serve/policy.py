"""Serve-native policies: Algorithm 1 without a precomputed trace.

The offline :class:`~repro.core.adaptive.AdaptiveCategoryPolicy` takes
its per-job categories as one aligned array and checks it against the
trace length up front — fine for replay, impossible for a live service
where jobs (and their model predictions) stream in.
:class:`OnlineAdaptivePolicy` is the same Algorithm-1 machinery —
spillover window, tolerance band, decision interval, optional
per-shard thresholds — re-anchored on the service's live
:class:`~repro.serve.log.JobLog`: categories are appended as the
categorizer produces them, and every per-job lookup (arrival, end,
TCIO rate, lane) resolves against the submitted prefix.
"""

from __future__ import annotations

import numpy as np

from ..config import AdaptiveParams
from ..core.adaptive import AdaptiveCategoryPolicy
from ..cost import CostRates
from ..core.spillover import SpilloverWindow
from .log import GrowArray, JobLog

__all__ = ["OnlineAdaptivePolicy"]


class OnlineAdaptivePolicy(AdaptiveCategoryPolicy):
    """Adaptive Category Selection over streaming categories.

    Construct with the category count only; bind to a service log with
    :meth:`bind_log` (the :class:`~repro.serve.PlacementService` does
    this in online mode) and stream categories in with
    :meth:`extend_categories` — the service calls it with the
    categorizer's output on every submission.  ``decide`` /
    ``decide_batch`` / ``observe`` / ``observe_batch`` are inherited
    unchanged: the decision rule, threshold updates, and per-shard
    counters are exactly the offline policy's, evaluated over the jobs
    submitted so far.
    """

    def __init__(
        self,
        n_categories: int,
        params: AdaptiveParams | None = None,
        name: str = "Adaptive Online",
        per_shard_act: bool = False,
    ):
        super().__init__(
            np.empty(0, dtype=int), n_categories, params, name, per_shard_act
        )
        self._cats = GrowArray(int)
        self._log: JobLog | None = None

    def bind_log(self, log: JobLog) -> None:
        """Anchor per-job lookups on the service's live job log."""
        self._log = log

    def extend_categories(self, categories: np.ndarray) -> None:
        """Append predicted categories for newly submitted jobs."""
        categories = np.asarray(categories, dtype=int)
        if categories.size == 1:  # one request: scalar check and append
            c = categories.item()
            if not 0 <= c < self.n_categories:
                raise ValueError("categories out of range [0, n_categories)")
            self._cats.append(c)
        else:
            if categories.size and (
                categories.min() < 0 or categories.max() >= self.n_categories
            ):
                raise ValueError("categories out of range [0, n_categories)")
            self._cats.extend(categories)
        self.categories = self._cats.view()

    def on_simulation_start(self, trace, capacity: float, rates: CostRates) -> None:
        """Reset adaptive state; the trace is the live log, not a replay.

        Mirrors the parent reset but skips the categories-length check
        (categories stream in after jobs) and reads per-job TCIO rates
        from the log's incrementally maintained column instead of one
        whole-trace pass.
        """
        if self._log is None and isinstance(trace, JobLog):
            self._log = trace
        if self._log is None or trace is not self._log:
            raise ValueError(
                "OnlineAdaptivePolicy runs against a live JobLog; for trace "
                "replays use AdaptiveCategoryPolicy"
            )
        self._trace = self._log
        self._tcio = self._log.column("tcio_rates")
        self.act = min(max(self.params.initial_act, 1), self.n_categories - 1)
        self._td = -np.inf
        self._window = SpilloverWindow()
        self.trajectory = []
        self.shard_ssd_requested = np.zeros(1, dtype=np.int64)
        self.shard_spills = np.zeros(1, dtype=np.int64)
        self._shards = None
        self.act_lanes = None
        self._req_mark = None
        self._spill_mark = None
        self._rebuild_admit_table()

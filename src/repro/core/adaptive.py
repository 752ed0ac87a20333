"""Adaptive Category Selection (Algorithm 1 of the paper).

The storage-layer half of the cross-layer design: given each job's
predicted importance category, slide an **admission category threshold
(ACT)** based on the observed spillover-TCIO percentage over a look-back
window.  High spillover -> SSDs nearly full -> raise ACT (admit only the
most important categories); low spillover -> lower ACT (broaden the
admission set with less important but still cost-saving jobs).  A job is
placed on SSD iff ``category >= ACT``; category 0 (negative savings) is
never admitted since ACT >= 1.

Two smoothing mechanisms limit threshold churn (Section 4.3): a
tolerance band ``[T_l, T_u]`` inside which ACT is unchanged, and a
minimum decision interval ``t_l`` between updates.

Sharded deployments (Section 2.4's caching servers) may opt into
**per-shard ACT** (``per_shard_act=True``): one threshold per caching
server, each driven lane-wise by the per-shard admission/spill counters
the policy already ingests through its feedback channel — Algorithm 1
applied per lane, with each lane's spill *rate* over the last decision
interval standing in for the global spillover-TCIO percentage.  Under
heterogeneous capacity layouts this lets a starved 0.5x server raise
its threshold while an oversized 2x server keeps admitting broadly,
where a single global threshold must average the two regimes.

Note on the paper's pseudocode: Algorithm 1 prints the clamp directions
swapped (``ACT = max(N-1, ACT+1)`` on *low* spillover).  The prose is
unambiguous — "if P falls below the range lower bound, we decrease the
threshold by 1; if P exceeds the upper bound, we increase the ACT by 1"
— so we implement ``low: ACT = max(1, ACT-1)``, ``high: ACT = min(N-1,
ACT+1)`` (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..config import AdaptiveParams
from ..cost import CostRates
from ..storage.policy import (
    BatchDecision,
    BatchOutcomes,
    Decision,
    PlacementContext,
    PlacementOutcome,
    PlacementPolicy,
)
from ..workloads.job import Trace
from .spillover import SpilloverWindow

__all__ = ["ThresholdEvent", "AdaptiveCategoryPolicy"]


@lru_cache(maxsize=256)
def _global_table(n_categories: int, act: int) -> np.ndarray:
    """The read-only ``category >= act`` admission table; one per ACT
    value, shared by every threshold update that lands on it."""
    table = np.arange(n_categories) >= act
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class ThresholdEvent:
    """One ACT update, recorded for the Figure-16 dynamics plots.

    ``shard`` identifies the caching server whose lane threshold moved
    in per-shard-ACT runs; -1 marks a global-threshold update.
    """

    time: float
    act: int
    spillover: float
    shard: int = -1


class AdaptiveCategoryPolicy(PlacementPolicy):
    """Algorithm 1: threshold adaptation over predicted categories.

    Parameters
    ----------
    categories:
        Predicted importance category per job of the simulated trace
        (from the category model, a hash, or ground truth).
    n_categories:
        ``N``; ACT stays within ``[1, N-1]``.
    params:
        Tolerance band, look-back window and decision interval.
    name:
        Report label ("Adaptive Ranking" / "Adaptive Hash" / ...).
    per_shard_act:
        Maintain one threshold per caching server instead of one global
        ACT.  Lane thresholds live in :attr:`act_lanes` (sized from the
        runtime's shard topology) and move lane-wise on each decision
        interval, driven by the per-shard counter deltas; the global
        spillover window is still maintained for diagnostics.  In an
        unsharded run (one lane, or before the topology is known) the
        flag is inert and the policy runs the paper's global
        spillover-TCIO algorithm unchanged.
    """

    def __init__(
        self,
        categories: np.ndarray,
        n_categories: int,
        params: AdaptiveParams | None = None,
        name: str = "Adaptive Ranking",
        per_shard_act: bool = False,
    ):
        self.categories = np.asarray(categories, dtype=int)
        if self.categories.min(initial=0) < 0 or self.categories.max(initial=0) >= n_categories:
            raise ValueError("categories out of range [0, n_categories)")
        self.n_categories = n_categories
        self.params = params or AdaptiveParams()
        self.name = name
        self.per_shard_act = per_shard_act
        self._trace: Trace | None = None
        self._tcio: np.ndarray | None = None
        self.act = min(max(self.params.initial_act, 1), n_categories - 1)
        self._td = -np.inf
        self._window = SpilloverWindow()
        self.trajectory: list[ThresholdEvent] = []
        self.shard_ssd_requested = np.zeros(1, dtype=np.int64)
        self.shard_spills = np.zeros(1, dtype=np.int64)
        self._shards: np.ndarray | None = None
        self.act_lanes: np.ndarray | None = None
        self._req_mark: np.ndarray | None = None
        self._spill_mark: np.ndarray | None = None
        # Category decision table (steady-state admission as a boolean
        # gather); None until first use, rebuilt on every threshold
        # mutation.  The *_key fields remember the threshold state the
        # table was built from so a stale table can never be served.
        self._admit_table: np.ndarray | None = None
        self._table_act: int | None = None
        self._table_lanes: np.ndarray | None = None
        # The single-job fast paths replicate ``decide``/``observe``
        # without their per-call objects; a subclass overriding either
        # method must keep going through it.
        cls = type(self)
        self._decide_fast = cls.decide is AdaptiveCategoryPolicy.decide
        self._observe_fast = cls.observe is AdaptiveCategoryPolicy.observe

    def on_simulation_start(self, trace: Trace, capacity: float, rates: CostRates) -> None:
        if len(trace) != len(self.categories):
            raise ValueError(
                f"categories cover {len(self.categories)} jobs, trace has {len(trace)}"
            )
        self._trace = trace
        self._tcio = trace.tcio(rates)
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

    def on_shard_topology(
        self, shards: np.ndarray | None, lane_capacities: np.ndarray
    ) -> None:
        """Receive the run's lane layout from the placement runtime.

        Counters are pre-sized to the lane count so scalar and batch
        feedback can never disagree on their shape; per-shard-ACT runs
        additionally seed one threshold per lane at the initial ACT.

        The runtime may call this again mid-run after a capacity shock
        (:meth:`repro.serve.PlacementService.apply_shock`): lane
        thresholds and their counter marks are then *preserved* — the
        per-shard signal keeps adapting from where it was, reacting to
        the new layout through its spill rates rather than restarting
        cold.  Re-seeding only happens on the first call of a run (or
        if the lane count itself changed), anchored at the current
        counter values.
        """
        n_lanes = len(lane_capacities)
        self._grow_shard_counters(n_lanes)
        self._shards = shards
        # With one lane there is nothing per-shard about the threshold:
        # keep the paper's global spillover-TCIO algorithm rather than
        # silently switching an unsharded run to the counter-rate rule.
        if self.per_shard_act and n_lanes > 1:
            if self.act_lanes is None or self.act_lanes.size != n_lanes:
                self.act_lanes = np.full(n_lanes, self.act, dtype=int)
                self._req_mark = self.shard_ssd_requested[:n_lanes].copy()
                self._spill_mark = self.shard_spills[:n_lanes].copy()
        # Every (re-)fire rebuilds the decision table, even when lane
        # thresholds were preserved: a shock may have changed the lane
        # count or routing, and the rebuild is O(lanes x categories).
        self._rebuild_admit_table()

    @property
    def history(self):
        """The window's SSD-scheduled jobs as ``ObservedJob`` objects."""
        return self._window.to_jobs()

    def _update_threshold(self, t: float) -> None:
        p = self.params
        # Keep only jobs *starting* within the look-back window — using
        # jobs overlapping the window lets long-lived jobs dominate the
        # estimate (Section 4.3's design note).
        self._window.evict_older(t - p.lookback_window)
        if self.act_lanes is not None:
            self._update_lane_thresholds(t)
            self._td = t
            return
        h = self._window.percentage(t)
        if h < p.spillover_low:
            self.act = max(1, self.act - 1)
        elif h > p.spillover_high:
            self.act = min(self.n_categories - 1, self.act + 1)
        self._td = t
        self.trajectory.append(ThresholdEvent(time=t, act=self.act, spillover=h))
        self._rebuild_admit_table()

    def _update_lane_thresholds(self, t: float) -> None:
        """Algorithm 1 applied lane-wise from the per-shard counters.

        Each lane's spill rate since the previous update — spills over
        admissions, both already maintained per caching server by the
        feedback path — plays the role of the spillover percentage: a
        lane above the tolerance band raises its own ACT, a lane below
        it (including an idle lane) lowers it.  Counter deltas make the
        two engines exactly equivalent: at update time both have folded
        in precisely the outcomes of all earlier jobs.
        """
        p = self.params
        n = self.act_lanes.size
        req_d = self.shard_ssd_requested[:n] - self._req_mark
        spill_d = self.shard_spills[:n] - self._spill_mark
        rate = np.divide(
            spill_d.astype(float), req_d, out=np.zeros(n), where=req_d > 0
        )
        step = (rate > p.spillover_high).astype(int) - (rate < p.spillover_low).astype(int)
        self.act_lanes = np.clip(self.act_lanes + step, 1, self.n_categories - 1)
        self._req_mark = self.shard_ssd_requested[:n].copy()
        self._spill_mark = self.shard_spills[:n].copy()
        for lane in range(n):
            self.trajectory.append(
                ThresholdEvent(
                    time=t,
                    act=int(self.act_lanes[lane]),
                    spillover=float(rate[lane]),
                    shard=lane,
                )
            )
        self._rebuild_admit_table()

    def _rebuild_admit_table(self) -> None:
        """Rebuild the per-category admission lookup table.

        Steady-state admission is ``category >= ACT`` — a pure function
        of the category (and, per-shard, the lane) between threshold
        updates — so it is precomputed into a boolean table and served
        as a gather instead of a comparison per job.  The table is
        rebuilt at every mutation of the threshold state: simulation
        start, every :class:`ThresholdEvent`, and every
        ``on_shard_topology`` (re-)fire.  As a backstop,
        :meth:`_admit_table_current` re-checks the table's sources
        (threshold value, lane-vector identity) before every use, so
        even an out-of-band threshold mutation cannot serve a stale
        table.  A global table is read-only and shared per ACT value
        (:func:`_global_table`), so a threshold update builds nothing.
        """
        if self.act_lanes is not None:
            cat_range = np.arange(self.n_categories)
            self._admit_table = cat_range[None, :] >= self.act_lanes[:, None]
        else:
            self._admit_table = _global_table(self.n_categories, self.act)
        self._table_act = self.act
        self._table_lanes = self.act_lanes

    def _admit_table_current(self) -> np.ndarray:
        """The admission table, rebuilt if its sources moved under it."""
        if (
            self._admit_table is None
            or self._table_act != self.act
            or self._table_lanes is not self.act_lanes
        ):
            self._rebuild_admit_table()
        return self._admit_table

    def _lane_of(self, job_index: int) -> int:
        return int(self._shards[job_index]) if self._shards is not None else 0

    def decide(self, job_index: int, ctx: PlacementContext) -> Decision:
        t = ctx.time
        if t >= self._td + self.params.decision_interval:
            self._update_threshold(t)
        table = self._admit_table_current()
        if self.act_lanes is not None:
            want = table[self._lane_of(job_index), self.categories[job_index]]
        else:
            want = table[self.categories[job_index]]
        return Decision(want_ssd=bool(want))

    def decide_one(
        self, job_index: int, time: float, free_ssd: float, capacity: float
    ) -> tuple[bool, float | None]:
        """Single-request decision via the table gather — no context or
        decision objects, same arithmetic as :meth:`decide`."""
        if not self._decide_fast:
            return super().decide_one(job_index, time, free_ssd, capacity)
        if time >= self._td + self.params.decision_interval:
            self._update_threshold(time)
        table = self._admit_table_current()
        if self.act_lanes is not None:
            want = table[self._lane_of(job_index), self.categories[job_index]]
        else:
            want = table[self.categories[job_index]]
        return bool(want), None

    def decide_batch(self, first: int, ctx: PlacementContext) -> BatchDecision:
        """Admission mask for every job up to the next ACT update.

        Between updates the rule ``category >= ACT`` is constant, so the
        chunk covers all jobs arriving strictly before ``td + t_l`` —
        exactly the jobs whose per-job ``decide`` would not have
        triggered an update.
        """
        t = ctx.time
        if t >= self._td + self.params.decision_interval:
            self._update_threshold(t)
        arrivals = self._trace.arrivals
        deadline = self._td + self.params.decision_interval
        stop = int(arrivals.searchsorted(deadline))
        stop = min(max(stop, first + 1), len(arrivals))
        cats = self.categories[first:stop]
        table = self._admit_table_current()
        if self.act_lanes is not None:
            if self._shards is None:
                mask = table[0].take(cats)
            else:
                mask = table[self._shards[first:stop], cats]
        else:
            mask = table.take(cats)
        return BatchDecision(count=stop - first, want_ssd=mask)

    def _grow_shard_counters(self, n_shards: int) -> None:
        if n_shards > self.shard_spills.size:
            pad = n_shards - self.shard_spills.size
            self.shard_ssd_requested = np.pad(self.shard_ssd_requested, (0, pad))
            self.shard_spills = np.pad(self.shard_spills, (0, pad))

    def observe(self, outcome: PlacementOutcome) -> None:
        self._observe_row(
            outcome.job_index, outcome.requested_ssd,
            outcome.ssd_space_fraction, outcome.spill_time, outcome.shard,
        )

    def observe_one(
        self,
        job_index: int,
        time: float,
        requested_ssd: bool,
        ssd_space_fraction: float,
        spill_time: float | None,
        shard: int = 0,
    ) -> None:
        """Single-outcome feedback without the outcome object — the
        same counter and window updates as :meth:`observe`."""
        if not self._observe_fast:
            super().observe_one(
                job_index, time, requested_ssd, ssd_space_fraction,
                spill_time, shard,
            )
            return
        self._observe_row(
            job_index, requested_ssd, ssd_space_fraction, spill_time, shard
        )

    def _observe_row(
        self,
        i: int,
        requested_ssd: bool,
        ssd_space_fraction: float,
        spill_time: float | None,
        shard: int,
    ) -> None:
        """One job's feedback: only a job scheduled to SSD is counted
        and enters the window."""
        if not requested_ssd:
            return
        self._grow_shard_counters(shard + 1)
        self.shard_ssd_requested[shard] += 1
        if spill_time is not None:
            self.shard_spills[shard] += 1
        # ``ends`` is elementwise ``arrivals + durations`` on every
        # trace type, so the scalar sum is bit-identical and avoids
        # materializing the whole ends column per request (a live
        # JobLog does not cache it).
        arrival = float(self._trace.arrivals[i])
        self._window.append(
            arrival,
            arrival + float(self._trace.durations[i]),
            float(self._tcio[i]),
            True,
            spill_time,
            1.0 - ssd_space_fraction,
        )

    def observe_batch(self, outcomes: BatchOutcomes) -> None:
        """Ingest one chunk: its SSD candidates only.

        Only a job the chunk scheduled to SSD moves a counter or enters
        the spillover window, so the cost scales with the candidates
        (a few per chunk), not the chunk.  Their columns are gathered
        from the trace's own arrival and duration columns — ``ends`` of
        a live :class:`~repro.serve.log.JobLog` rebuilds the whole
        column on every read.

        Sharded runs additionally maintain per-caching-server admission
        and spill counters (``shard_ssd_requested`` / ``shard_spills``)
        — the diagnostic surface for the fragmentation ablation and, in
        per-shard-ACT mode, the lane-wise adaptive signal.  With the
        default global threshold the adaptive signal stays fleet-wide:
        the paper's spillover-TCIO percentage aggregates behaviour
        across the whole fleet.
        """
        cand = outcomes.requested_ssd.nonzero()[0]
        if not cand.size:
            return
        spill = outcomes.spill_time[cand].tolist()
        lanes = (
            [0] * cand.size if outcomes.shards is None
            else outcomes.shards[cand].tolist()
        )
        self._grow_shard_counters(max(lanes) + 1)
        requested, spills = self.shard_ssd_requested, self.shard_spills
        for lane, ts in zip(lanes, spill):
            requested[lane] += 1
            if ts == ts:  # not NaN: the job spilled
                spills[lane] += 1
        idx = cand + outcomes.first
        arrival = self._trace.arrivals[idx].tolist()
        self._window.extend(
            arrival,
            [a + d for a, d in zip(arrival, self._trace.durations[idx].tolist())],
            self._tcio[idx].tolist(),
            spill,
            [1.0 - f for f in outcomes.ssd_space_fraction[cand].tolist()],
        )

"""The stateful online placement service.

:class:`PlacementService` turns the offline placement runtime into a
live request-at-a-time controller: jobs are *submitted* as they arrive
(one at a time or in micro-batches), each submission mutates live
fleet/lane state — free space, pending releases, spillover windows,
adaptive thresholds — and yields a :class:`PlacementDecision` routing
the job to SSD or HDD on its caching server.  ``complete`` events
return space early; ``snapshot``/``restore`` checkpoint the full
service state mid-stream.

Relation to the offline runtime
-------------------------------
The service does not reimplement the engine: it drives the same
incremental kernels (:class:`~repro.storage.engine.ScalarKernel`,
:class:`~repro.storage.engine.ChunkKernel`) that
:func:`~repro.storage.engine.run_placement` drives, one submission at
a time instead of one trace at a time.  Two operating modes mirror the
two engines:

- ``mode="scalar"`` — one policy round-trip per submission, the legacy
  engine's arithmetic.  Replaying a trace job by job is
  **bit-identical** to ``simulate(trace, ..., engine="legacy")``.
- ``mode="batch"`` — submissions are queued and processed in the
  *policy's* decision-interval chunks (the chunked engine's
  arithmetic).  The queue is the admission buffer: a chunk runs as
  soon as the policy's declared run of jobs is fully buffered, and
  ``drain()`` flushes the tail exactly as the offline engine clamps
  its final chunk at trace end.  Because chunk boundaries are decided
  by the policy in both drivers — never by micro-batch boundaries —
  replaying a trace through any micro-batch slicing plus a final drain
  is **bit-identical** to ``simulate(trace, ..., engine="chunked")``.

``tests/test_serve_service.py`` pins both identities across policies,
engines and shard counts.

Backpressure
------------
``max_pending`` bounds the admission queue: when a submission leaves
more than ``max_pending`` undecided jobs queued (the policy's declared
chunk still incomplete), the service force-closes chunks at the
available horizon, trading the offline-equal chunk boundaries for
bounded decision latency — the same trade a production frontend makes
when it refuses to hold requests for a full decision interval.

Fault tolerance
---------------
Three mechanisms (see ``docs/robustness.md`` for the full fault model):

- **Capacity shocks** — :meth:`PlacementService.apply_shock` resizes
  lanes mid-stream (loss, shrink, restore, quota changes).  Queued
  decisions are flushed first (the shock lands on a chunk boundary),
  residents that no longer fit are evicted through the kernel
  (counted as spills and in ``ServiceStats``), the live-job table is
  purged, and ``on_shard_topology`` re-fires so per-shard adaptive
  thresholds re-adapt to the new layout.
- **Durability** — construct with a
  :class:`~repro.serve.wal.WriteAheadLog` and every mutating call is
  logged before it applies; :meth:`checkpoint` pickles periodic
  snapshots and :meth:`recover` rebuilds the exact pre-crash state
  from a checkpoint plus the WAL suffix.
- **Degraded mode** — a categorizer failure never takes the service
  down: admission falls back to the stable-hash heuristic (the
  Adaptive Hash rule) and the degraded interval is recorded in
  ``ServiceStats`` until the model recovers.
"""

from __future__ import annotations

import copy
import os
import pickle
from collections import Counter
from itertools import groupby
from pathlib import Path
from time import perf_counter
from typing import Sequence

import numpy as np

from .. import __version__
from ..cost import CostRates, DEFAULT_RATES
from ..storage.engine import (
    ChunkKernel,
    ScalarKernel,
    SimResult,
    _finalize,
    _normalize_capacity,
    assign_shards,
)
from ..storage.policy import PlacementPolicy
from ..workloads.job import ShuffleJob, TraceBase
from ..workloads.metadata import stable_hash
from .alerts import AlertManager
from .log import GrowArray, JobLog
from .metrics import SIZE_BUCKETS_JOBS, MetricsRegistry
from .tracing import Tracer, _PRIME
from .types import (
    COMPAT_SNAPSHOT_SCHEMAS,
    SNAPSHOT_SCHEMA,
    PlacementDecision,
    ServiceSnapshot,
    ServiceStats,
    ShockReport,
    SnapshotMismatch,
    _DecisionBatch,
    _DecisionConcat,
)
from .wal import (
    WalCorruption,
    WriteAheadLog,
    job_from_record,
    wal_job_id,
    wal_job_ids,
)

#: Tracer sampling constants, hoisted so the per-stride hash pass pays
#: no per-call numpy scalar conversions.
_F_INF = float("inf")

_PRIME_U64 = np.uint64(_PRIME)
_MASK32 = np.uint64(0xFFFFFFFF)
#: Auto-id sampling hashes this many ids per vector pass, running ahead
#: of the log (the hash needs only the integer id).
_TRACE_SCAN_BLOCK = 1 << 16


def _occupancy(svc, lane: int) -> float:
    cap = int(svc.kernel.lane_capacity[lane])
    return 1.0 - int(svc.kernel.free[lane]) / cap if cap > 0 else 0.0


def _threshold(act, lane: int | None = None) -> int | None:
    """An adaptive threshold (global, or one lane's), if the policy has one."""
    return None if act is None else int(act if lane is None else act[lane])


def _decision_rate(svc, _) -> float:
    dt = perf_counter() - svc._metrics_t0
    return svc.stats.n_decided / dt if dt > 0 else 0.0


#: Every metric read from an authoritative source instead of
#: accumulated on the hot path: one ``(kind, name, help, source)`` row
#: each, in render order.  ``source(svc, lane)`` reads the value —
#: ``ServiceStats``, kernel attributes (wrapped in ``int`` / ``float``
#: as ``counters()`` does, so numpy scalars never reach the
#: exposition), the WAL sequence, per-lane capacity/free, the policy's
#: thresholds, or the wall clock — and metrics take it *by
#: assignment*, so a snapshot can never disagree with the end-of-run
#: roll-up.  ``"lane"`` rows are gauges with one ``lane``-labelled
#: sample per shard; a run of them registers lane-major.  A sample
#: whose source reads ``None`` at registration is never registered (no
#: threshold gauges for a policy without one).  Sources live here, not
#: on the instance, so no callable enters a snapshot payload.
_DERIVED = (
    ("counter", "serve_submitted_total", "Jobs submitted to the service",
     lambda s, _: s.stats.n_submitted),
    ("counter", "serve_decided_total", "Placement decisions made",
     lambda s, _: s.stats.n_decided),
    ("counter", "serve_chunks_total", "Policy chunks decided (batch mode)",
     lambda s, _: s.stats.n_chunks),
    ("counter", "serve_forced_chunks_total",
     "Chunks force-closed by backpressure",
     lambda s, _: s.stats.forced_chunks),
    ("counter", "serve_completions_total",
     "Early completions that freed space",
     lambda s, _: s.stats.n_completions),
    ("counter", "serve_duplicate_completes_total",
     "complete() calls for unknown or already-completed jobs",
     lambda s, _: s.stats.duplicate_completes),
    ("counter", "serve_stale_completes_total",
     "complete() timestamps clamped forward to the service clock",
     lambda s, _: s.stats.stale_completes),
    ("counter", "serve_shocks_total", "Capacity shocks applied",
     lambda s, _: s.stats.n_shocks),
    ("counter", "serve_evictions_total",
     "Residents evicted by capacity shocks",
     lambda s, _: s.stats.n_evicted),
    ("counter", "serve_evicted_bytes_total",
     "Bytes evicted by capacity shocks",
     lambda s, _: s.stats.evicted_bytes),
    ("counter", "serve_degraded_jobs_total",
     "Jobs categorized by the fallback heuristic",
     lambda s, _: s.stats.degraded_jobs),
    ("counter", "serve_degraded_intervals_total",
     "Closed categorizer outage intervals",
     lambda s, _: len(s.stats.degraded_intervals)),
    ("counter", "serve_categorizer_failures_total",
     "Categorizer calls that raised",
     lambda s, _: s.stats.categorizer_failures),
    ("counter", "serve_ssd_requested_total", "Jobs the policy sent to SSD",
     lambda s, _: int(s.kernel.n_ssd_requested)),
    ("counter", "serve_spilled_total", "SSD admissions that spilled to HDD",
     lambda s, _: int(s.kernel.n_spilled)),
    ("counter", "serve_kernel_evictions_total", "Kernel-level shock evictions",
     lambda s, _: int(s.kernel.n_evicted)),
    ("counter", "serve_scalar_fallback_total",
     "SSD candidates on a lane where capacity binds inside the chunk",
     lambda s, _: s.kernel.counters()["scalar_fallback_jobs"]),
    ("counter", "serve_wal_records_total",
     "Write-ahead log records written or replayed",
     lambda s, _: s._wal_seq),
    ("gauge", "serve_pending_jobs", "Submitted jobs awaiting a decision",
     lambda s, _: s.pending),
    ("gauge", "serve_max_pending_seen", "Peak admission-queue depth",
     lambda s, _: s.stats.max_pending_seen),
    ("gauge", "serve_capacity_bytes", "Total SSD capacity",
     lambda s, _: int(s.kernel.capacity)),
    ("gauge", "serve_peak_ssd_used_bytes", "Peak SSD bytes in use",
     lambda s, _: int(s.kernel.peak_used)),
    ("gauge", "serve_degraded",
     "1 while the categorizer outage is open, else 0",
     lambda s, _: 0 if s._degraded_since is None else 1),
    ("lane", "serve_lane_capacity_bytes", "Per-lane SSD capacity",
     lambda s, lane: int(s.kernel.lane_capacity[lane])),
    ("lane", "serve_lane_free_bytes", "Per-lane free SSD bytes",
     lambda s, lane: int(s.kernel.free[lane])),
    ("lane", "serve_lane_occupancy_ratio", "Per-lane occupied fraction",
     _occupancy),
    ("gauge", "serve_act_position", "Global adaptive category threshold",
     lambda s, _: _threshold(getattr(s.policy, "act", None))),
    ("lane", "serve_act_lane_position",
     "Per-shard adaptive category threshold",
     lambda s, lane: _threshold(getattr(s.policy, "act_lanes", None), lane)),
    ("gauge", "serve_uptime_seconds", "Seconds since service construction",
     lambda s, _: perf_counter() - s._metrics_t0),
    ("gauge", "serve_decisions_per_second",
     "Lifetime mean decision throughput", _decision_rate),
)
_SOURCES = tuple(row[3] for row in _DERIVED)


__all__ = [
    "PlacementDecision",
    "ServiceSnapshot",
    "ServiceStats",
    "ShockReport",
    "SnapshotMismatch",
    "PlacementService",
]


class PlacementService:
    """Stateful request-at-a-time placement over the unified engine.

    Parameters
    ----------
    policy:
        Any :class:`~repro.storage.policy.PlacementPolicy`.  In
        ``"batch"`` mode it must implement ``decide_batch``.  Policies
        that consult a trace (categories, sizes) work in two ways:
        *replay* — pass the trace to :meth:`open` and submit its jobs
        in order — or *online* — use a serve-native policy
        (:class:`~repro.serve.OnlineAdaptivePolicy`) bound to the
        service's live job log, optionally fed by an on-the-fly
        ``categorizer``.
    capacity:
        Total SSD bytes (scalar, split evenly) or a per-shard vector,
        exactly as :func:`~repro.storage.engine.run_placement` takes it.
    n_shards:
        Caching-server count; jobs route by a stable pipeline hash.
    mode:
        ``"scalar"`` (decide per submission, legacy-engine arithmetic)
        or ``"batch"`` (queue and decide in policy chunks,
        chunked-engine arithmetic).
    max_pending:
        Backpressure bound on the admission queue (``"batch"`` mode):
        exceeding it force-closes chunks at the available horizon.
        ``None`` (default) never forces — decisions wait for the
        policy's full chunk (or :meth:`drain`), keeping replay
        bit-identical to the offline engine.
    categorizer:
        Optional callable ``jobs -> categories`` invoked on every
        submission (e.g. :class:`~repro.serve.OnlineCategorizer`:
        on-the-fly feature extraction + packed-forest prediction); the
        categories are streamed into the policy via its
        ``extend_categories`` hook.
    wal:
        Optional :class:`~repro.serve.wal.WriteAheadLog` (or a path,
        opened as one): every mutating call is appended before it
        applies, enabling :meth:`recover` after a crash.
    fallback_categorizer:
        Optional ``jobs -> categories`` used while the primary
        categorizer is failing.  Default: stable pipeline hash into
        ``[1, n_categories)`` — the Adaptive Hash heuristic.
    alerts:
        Optional :class:`~repro.serve.alerts.AlertManager`.  Evaluated
        on every :meth:`metrics` / :meth:`metrics_text` /
        :meth:`evaluate_alerts` call against the registry, driven by
        the logical clock — see
        :mod:`repro.serve.alerts` for the determinism contract.  The
        manager's state rides service snapshots, so recovered alert
        streams continue instead of resetting.
    tracer:
        Optional :class:`~repro.serve.tracing.Tracer`: deterministic
        per-request spans (submit -> categorize -> admit ->
        place/spill -> complete) for job-id-hash-sampled requests,
        kept in a bounded ring that also rides snapshots.
    """

    def __init__(
        self,
        policy: PlacementPolicy,
        capacity: float | np.ndarray,
        n_shards: int = 1,
        *,
        mode: str = "batch",
        rates: CostRates = DEFAULT_RATES,
        shard_seed: int = 0,
        max_pending: int | None = None,
        categorizer=None,
        name: str = "service",
        wal: WriteAheadLog | str | None = None,
        fallback_categorizer=None,
        alerts: AlertManager | None = None,
        tracer: Tracer | None = None,
    ):
        if mode not in ("scalar", "batch"):
            raise ValueError(f"unknown service mode {mode!r}")
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if mode == "batch" and not callable(getattr(policy, "decide_batch", None)):
            raise ValueError(
                f"policy {policy.name!r} does not implement decide_batch; "
                "use mode='scalar'"
            )
        if max_pending is not None and max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self.policy = policy
        self.n_shards = n_shards
        self.mode = mode
        self.rates = rates
        self.shard_seed = shard_seed
        self.max_pending = max_pending
        self.categorizer = categorizer
        lane_caps, total = _normalize_capacity(capacity, n_shards)
        self.lane_capacities = lane_caps
        self.capacity = total
        self.log = JobLog(rates=rates, n_shards=n_shards, shard_seed=shard_seed, name=name)
        self.kernel = self._make_kernel(lane_caps)
        self.stats = ServiceStats()
        self.registry = MetricsRegistry()
        self._metrics_t0 = perf_counter()
        self._init_metrics()
        self._frac = GrowArray(float)
        self._decided = 0
        self._plan = None  # cached (BatchDecision for job index _decided)
        self._now = -np.inf
        #: How far the kernel's release cursor may have advanced.  In
        #: batch mode, opening a chunk to consult the policy applies
        #: releases up to the first *queued* arrival — which can sit
        #: ahead of ``_now`` (the last decided arrival) while the chunk
        #: waits for more submissions.  ``complete`` must treat
        #: releases at or before this point as already fired, or it
        #: would re-free space the cursor already returned.
        self._horizon = -np.inf
        self._opened = False
        self._live: dict = {}  # job_id -> (index, lane, alloc, release_time)
        self._live_sweep_at = 64  # amortized prune threshold, see _maybe_sweep_live
        self.wal = WriteAheadLog(wal) if isinstance(wal, (str, Path)) else wal
        self.fallback_categorizer = fallback_categorizer
        self._wal_seq = 0 if self.wal is None else self.wal.seq
        self._degraded_since: float | None = None  # open outage start
        self._shards_ref = None  # routing vector for topology re-fires
        self.alerts = alerts
        self.tracer = tracer
        #: Sampled-span bookkeeping (see _trace_chunk): sorted log
        #: indices that sample, how much of the log has been hashed,
        #: and the first entry not yet recorded as a span.
        self._trace_sel: list = []
        self._trace_scanned = 0
        self._trace_cursor = 0
        self._trace_confirmed = 0
        #: Logical event clock: the largest arrival time ever submitted.
        #: Unlike ``_now`` (the last *decided* arrival, which lags in
        #: batch mode while chunks buffer) this advances identically
        #: across engine modes, so alert hysteresis measured against it
        #: is mode-invariant.
        self._clock = -np.inf

    def _make_kernel(self, lane_caps: np.ndarray):
        """Build the admission kernel this service drives.

        The seam the fleet layer plugs into:
        :class:`~repro.serve.router.FleetRouter` overrides this to
        return a scatter-gather kernel over worker processes while
        inheriting every other mechanism (log, WAL, categorizer, queue
        pump, shocks) unchanged.
        """
        if self.mode == "scalar":
            return ScalarKernel(lane_caps)
        return ChunkKernel(lane_caps)

    # -- metrics --------------------------------------------------------

    def _init_metrics(self) -> None:
        """Register the natively-observed instruments (in a restored
        registry: resolve them again, per-category counters included).

        Everything else (the ``_DERIVED`` table) registers on the first
        metrics read (:meth:`_derived`); the histograms and the
        per-category admission counters accumulate on the hot path and
        must exist from the first submission.
        """
        reg = self.registry
        self._derived_rows = None  # [(metric, row, lane)], first read
        self._alert_rows = None  # (manager, the rows its rules read)
        self._m_cat = {}  # category -> admission Counter cache
        for m in list(reg):  # a restored registry's categories
            if m.name == "serve_admitted_by_category_total":
                self._cat_counter(int(dict(m.labels)["category"]))
        self._m_request = reg.histogram(
            "serve_request_seconds",
            help="Wall-clock latency of one submit() call",
        )
        self._m_batch = reg.histogram(
            "serve_batch_seconds",
            help="Wall-clock latency of one micro-batch submission",
        )
        self._m_chunk_jobs = reg.histogram(
            "serve_chunk_jobs", buckets=SIZE_BUCKETS_JOBS,
            help="Jobs decided per policy chunk",
        )

    def _cat_counter(self, cat: int):
        c = self._m_cat.get(cat)
        if c is None:
            c = self.registry.counter(
                "serve_admitted_by_category_total",
                labels={"category": str(cat)},
                help="SSD admissions by job category",
            )
            self._m_cat[cat] = c
        return c

    def _count_admissions(self, first: int, stop: int, requested) -> None:
        """Per-category admission counting for one decided chunk.

        Categories come from the policy's ``categories`` column (full
        trace in replay mode, the streamed prefix under an online
        categorizer); policies without one skip the breakdown.
        """
        cats = getattr(self.policy, "categories", None)
        if cats is None or len(cats) < stop:
            return
        sel = np.asarray(cats[first:stop])[requested]
        if sel.size:
            counts = np.bincount(sel)
            for cat in np.flatnonzero(counts).tolist():
                self._cat_counter(cat).inc(int(counts[cat]))

    def _derived(self) -> list:
        """Every ``_DERIVED`` sample as ``(metric, row, lane)``.

        Registers the whole table, in table order, on the first read —
        whichever of :meth:`metrics`, :meth:`metrics_text` or
        :meth:`evaluate_alerts` comes first — so render order never
        depends on the call that did it.  Cached: later reads cost
        attribute sets, not registry lookups.
        """
        rows = self._derived_rows
        if rows is None:
            rows = self._derived_rows = []
            reg = self.registry
            for kind, run in groupby(range(len(_DERIVED)),
                                     key=lambda r: _DERIVED[r][0]):
                run = list(run)
                make = reg.counter if kind == "counter" else reg.gauge
                lanes = range(self.n_shards) if kind == "lane" else (None,)
                for lane in lanes:
                    labels = None if lane is None else {"lane": str(lane)}
                    rows.extend(
                        (make(_DERIVED[r][1], labels, _DERIVED[r][2]), r, lane)
                        for r in run if _SOURCES[r](self, lane) is not None
                    )
        return rows

    def _sync_metrics(self, rows) -> None:
        """Set each ``(metric, row, lane)`` from its table source.

        Never on the decision hot path.  The fleet router extends this
        with its worker gather.
        """
        for m, r, lane in rows:
            v = _SOURCES[r](self, lane)
            if v is not None:
                m.set(v)

    def metrics(self) -> dict:
        """A point-in-time snapshot of every metric.

        Reads every derived metric from its authoritative source first,
        then returns the registry's plain-dict snapshot (sample name →
        value; histograms as bucket/percentile dicts).
        """
        return self._read_all().snapshot()

    def metrics_text(self) -> str:
        """The Prometheus text exposition (0.0.4) of :meth:`metrics`."""
        return self._read_all().render()

    def _read_all(self) -> MetricsRegistry:
        self._sync_metrics(self._derived())
        if self.alerts is not None:
            self._evaluate_synced()
        return self.registry

    def evaluate_alerts(self) -> list:
        """Run one alert/SLO evaluation tick; returns the new events.

        Reads only the derived metrics the manager's rules and SLOs
        reference (resolved once per manager), then hands the registry
        and the logical clock to the
        :class:`~repro.serve.alerts.AlertManager`.  A service without a
        manager returns ``[]``.  Never called on the decision hot path
        — drive it from your serving loop, the way the CLI evaluates
        once per submitted batch.
        """
        if self.alerts is None:
            return []
        sel = self._alert_rows
        if sel is None or sel[0] is not self.alerts:
            rows = self._derived()  # registers first: get() must see them
            reg = self.registry
            wanted = [reg.get(b, lb) for b, lb in self.alerts.referenced()]
            sel = self._alert_rows = (self.alerts, [
                row for row in rows if any(row[0] is m for m in wanted)
            ])
        self._sync_metrics(sel[1])
        return self._evaluate_synced()

    def _evaluate_synced(self) -> list:
        c = self._clock  # plain float compare; np.isfinite costs ~1us
        clock = float(c) if -_F_INF < c < _F_INF else 0.0
        return self.alerts.evaluate(
            self.registry, clock=clock, decided=self.stats.n_decided
        )

    # -- lifecycle ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Submitted jobs still queued for a decision (batch mode)."""
        return len(self.log) - self._decided

    @property
    def n_decided(self) -> int:
        return self._decided

    def open(self, trace: TraceBase | None = None) -> "PlacementService":
        """Wire the policy up and start accepting submissions.

        With ``trace`` (replay mode) the policy receives exactly the
        hooks the offline runtime would give it —
        ``on_simulation_start`` with the full trace and the
        precomputed shard routing — and the caller must then submit the
        trace's jobs in order.  Without a trace (online mode) the
        policy is bound to the service's live job log: it sees the
        submitted prefix wherever it would have seen the trace.
        Called implicitly (online mode) by the first submission.
        """
        if self._opened:
            raise RuntimeError("service already opened")
        self._opened = True
        policy = self.policy
        shards = None
        if trace is None:
            if hasattr(policy, "bind_log"):
                policy.bind_log(self.log)
            trace = self.log
            if self.n_shards > 1:
                shards = self.log.column("lanes")
        elif self.n_shards > 1:
            shards = assign_shards(trace, self.n_shards, seed=self.shard_seed)
        policy.on_simulation_start(trace, self.capacity, self.rates)
        policy.on_shard_topology(shards, self.lane_capacities.copy())
        self._shards_ref = shards
        return self

    def _ensure_open(self) -> None:
        if not self._opened:
            self.open()

    def close(self) -> None:
        """Close the service's write-ahead log (from ``wal=`` or
        :meth:`recover`), if any.  Closing twice is harmless."""
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "PlacementService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submissions ----------------------------------------------------

    def submit(
        self,
        job: ShuffleJob | None = None,
        *,
        arrival: float | None = None,
        duration: float | None = None,
        size: float | None = None,
        read_bytes: float = 0.0,
        write_bytes: float = 0.0,
        read_ops: float = 0.0,
        pipeline: str = "pipeline0",
        user: str = "user0",
        job_id=None,
    ) -> Sequence[PlacementDecision]:
        """Submit one job; returns the decisions this submission resolved.

        In ``"scalar"`` mode the returned list holds exactly this job's
        decision.  In ``"batch"`` mode it holds every decision the
        submission unlocked — possibly none (the job is queued until
        the policy's decision chunk completes), possibly many (this
        arrival closed a chunk covering earlier queued jobs).
        """
        self._ensure_open()
        t_req = perf_counter()
        jobs = rec = None
        if job is not None:
            arrival, duration, size = job.arrival, job.duration, job.size
            read_bytes, write_bytes = job.read_bytes, job.write_bytes
            read_ops, pipeline, user = job.read_ops, job.pipeline, job.user
            jobs = [job]
            if job_id is None:
                job_id = job.job_id
        elif arrival is None or duration is None or size is None:
            raise TypeError("submit() needs a ShuffleJob or arrival/duration/size")
        if self.wal is not None:
            job_id = wal_job_id(job_id)
            rec = {  # one row: six scalars, no arrays
                "op": "submit",
                "columns": (arrival, duration, size, read_bytes, write_bytes, read_ops),
            }
            if job is None:
                rec["pipelines"], rec["users"] = [pipeline], [user]
                rec["job_ids"] = None if job_id is None else [job_id]
            else:
                own_id = wal_job_id(job.job_id)
                rec["jobs"], rec["job_ids"] = jobs, [own_id]
                if job_id != own_id:
                    rec["log_id"] = job_id
        i = self.log.append_job(
            arrival, duration, size, read_bytes, write_bytes, read_ops,
            pipeline, user, job_id,
        )
        return self._submitted(i, i + 1, jobs, rec, None, self._m_request, t_req)

    def submit_batch(
        self,
        arrivals: np.ndarray,
        durations: np.ndarray,
        sizes: np.ndarray,
        read_bytes: np.ndarray | None = None,
        write_bytes: np.ndarray | None = None,
        read_ops: np.ndarray | None = None,
        pipelines: Sequence[str] | None = None,
        users: Sequence[str] | None = None,
        job_ids: Sequence | None = None,
    ) -> Sequence[PlacementDecision]:
        """Submit one arrival-ordered micro-batch of jobs as columns.

        Returns every decision the batch resolved (see :meth:`submit`);
        undecided jobs stay queued for later submissions or
        :meth:`drain`.
        """
        self._ensure_open()
        t_req = perf_counter()
        if self.wal is not None and job_ids is not None:
            job_ids = wal_job_ids(job_ids)
        cols = (arrivals, durations, sizes, read_bytes, write_bytes, read_ops)
        return self._submit_block(t_req, cols, pipelines, users, job_ids)

    def submit_jobs(self, jobs: Sequence[ShuffleJob]) -> Sequence[PlacementDecision]:
        """Submit one arrival-ordered micro-batch of rich job objects.

        Unlike :meth:`submit_batch` (bare columns), the original jobs —
        with their metadata and resource dictionaries — are handed to
        the categorizer, so model-driven admission sees the full
        Table-2 feature groups exactly as an offline extraction would.
        """
        self._ensure_open()
        t_req = perf_counter()
        jobs = list(jobs)
        job_ids = [j.job_id for j in jobs]
        if self.wal is not None:
            job_ids = wal_job_ids(job_ids)
        return self._submit_block(t_req, None, None, None, job_ids, jobs)

    def submit_block(self, block) -> Sequence[PlacementDecision]:
        """Submit one :class:`~repro.workloads.streaming.TraceBlock`."""
        return self.submit_batch(
            block.arrivals, block.durations, block.sizes,
            block.read_bytes, block.write_bytes, block.read_ops,
            pipelines=block.pipelines, users=block.users,
            job_ids=None if block.job_ids is None else list(block.job_ids),
        )

    def drain(self) -> Sequence[PlacementDecision]:
        """Decide every queued job now, closing partial chunks.

        The final-chunk clamping is exactly the offline engine's
        end-of-trace clamping, so a replay that submits a whole trace
        and then drains matches the offline run bit for bit.
        """
        self._ensure_open()
        if self.pending and self.wal is not None:
            self.wal.append({"op": "drain"})
            self._wal_seq += 1
        return self._pump(force=True)

    def _submit_block(
        self, t_req: float, cols, pipelines, users, job_ids,
        jobs=None, replayed=None,
    ) -> Sequence[PlacementDecision]:
        """Append one block, build its WAL record, run the core over it.

        A missing column (``None``) is all zeros.  Rich ``jobs`` supply
        the columns, pipelines and users, and ride a ``jobs`` record in
        place of the last two; bare columns make a ``batch`` record.
        """
        log = self.log
        if jobs is not None:
            cols = (
                [j.arrival for j in jobs], [j.duration for j in jobs],
                [j.size for j in jobs], [j.read_bytes for j in jobs],
                [j.write_bytes for j in jobs], [j.read_ops for j in jobs],
            )
            pipelines, users = [j.pipeline for j in jobs], [j.user for j in jobs]
        else:
            zeros = np.zeros(np.size(cols[0]))
            cols = [zeros if c is None else c for c in cols]
        first, stop = log.append_block(*cols, pipelines, users, job_ids)
        rec = None
        if self.wal is not None:
            rec = {"op": "batch" if jobs is None else "jobs", "columns": (
                log.arrivals[first:stop], log.durations[first:stop],
                log.sizes[first:stop], log.read_bytes[first:stop],
                log.write_bytes[first:stop], log.read_ops[first:stop],
            )}
            if jobs is None:
                rec["pipelines"] = log.pipelines[first:stop]
                rec["users"] = log.users[first:stop]
            else:
                rec["jobs"] = jobs
            rec["job_ids"] = job_ids
        return self._submitted(first, stop, jobs, rec, replayed, self._m_batch, t_req)

    def _submitted(
        self, first: int, stop: int, jobs, rec, replayed, hist, t_req: float,
    ) -> Sequence[PlacementDecision]:
        """The one submission path, for appended log rows ``[first, stop)``.

        Count and clock, categorize (``jobs``: the rich objects, if
        any; ``replayed``: a replayed record's ``(categories,
        degraded)``), write the WAL record ``rec`` (``None`` without a
        WAL and in replay), decide, and time the call into ``hist``.
        An empty submission writes no record; in batch mode it pumps.
        """
        if first == stop:
            return self._pump() if self.mode == "batch" else []
        self.stats.n_submitted += stop - first
        t = self.log._arrivals.data.item(stop - 1)
        if t > self._clock:
            self._clock = t
        if self.categorizer is not None:
            self._categorize(first, stop, jobs, rec, replayed)
        if rec is not None:
            self.wal.append(rec)
            self._wal_seq += 1
        if self.mode == "scalar":
            out = [self._decide_scalar(i) for i in range(first, stop)]
        else:
            out = self._pump()
        hist.observe(perf_counter() - t_req)
        return out

    def _categorize(self, first: int, stop: int, jobs, rec, replayed) -> None:
        """Run the on-the-fly categorizer over newly appended jobs.

        A categorizer failure degrades instead of raising: admission
        falls back to :meth:`_fallback_categories` (stable-hash
        heuristic by default), the failure and the affected jobs are
        counted, and the open degraded interval is closed at the first
        healthy call.  The categories (and the degraded mark) go into
        the WAL record ``rec``.  In replay, ``replayed`` holds the
        record's categories, which are authoritative: the model (the
        wrapped one, if the categorizer has an ``inner``) still runs on
        non-degraded records so its rolling feature state matches the
        uninterrupted run, but its output is discarded.
        """
        log = self.log
        model = self.categorizer
        cats, degraded = (None, False) if replayed is None else replayed
        if replayed is not None:
            model = getattr(model, "inner", model)
        # Columnar submissions take the fused path when the model has one.
        block = None if jobs is not None else getattr(model, "predict_block", None)
        if block is None and jobs is None:
            jobs = [log[i] for i in range(first, stop)]
        if not degraded:
            try:
                out = model(jobs) if block is None else block(log, first, stop)
                if cats is None:
                    cats = out
            except Exception:
                degraded = cats is None
        if cats is None:
            cats = self._fallback_categories(
                jobs or [log[i] for i in range(first, stop)]
            )
        cats = np.asarray(cats, dtype=np.int64)
        t0 = log._arrivals.data.item(first)
        if degraded:
            self.stats.categorizer_failures += 1
            self.stats.degraded_jobs += stop - first
            if self._degraded_since is None:
                self._degraded_since = t0
        elif self._degraded_since is not None:
            self.stats.degraded_intervals.append((self._degraded_since, t0))
            self._degraded_since = None
        if rec is not None:
            rec["cats"] = cats
            if degraded:
                rec["degraded"] = True
        extend = getattr(self.policy, "extend_categories", None)
        if extend is not None:
            extend(cats)

    def _fallback_categories(self, jobs):
        """Heuristic admission while the model is down.

        Stable hash of each job's pipeline into ``[1, n_categories)`` —
        the Adaptive Hash rule, so the adaptive threshold keeps
        modulating *how much* is admitted even though job importance is
        arbitrary.  A custom ``fallback_categorizer`` overrides this.
        """
        if self.fallback_categorizer is not None:
            return self.fallback_categorizer(jobs)
        n_cat = getattr(self.policy, "n_categories", None)
        if n_cat is None or n_cat < 2:
            return [0] * len(jobs)
        return [1 + stable_hash(j.pipeline) % (n_cat - 1) for j in jobs]

    @property
    def degraded_since(self) -> float | None:
        """Arrival time the current categorizer outage began (or None)."""
        return self._degraded_since

    @property
    def wal_seq(self) -> int:
        """WAL records this service has written or replayed so far."""
        return self._wal_seq

    # -- scalar mode ----------------------------------------------------

    def _decide_scalar(self, i: int) -> PlacementDecision:
        """One request-at-a-time decision (the serving latency path).

        Same kernel arithmetic as before, but allocation-free around
        it: the policy round-trip goes through the scalar
        ``decide_one``/``observe_one`` protocol (no context, decision,
        or outcome objects) and the log columns are read directly.
        """
        log = self.log
        kern = self.kernel
        t = log._arrivals.data.item(i)
        kern.release_until(t)
        if t > self._now:
            self._now = t
        if t > self._horizon:
            self._horizon = t
        s = int(log._lanes.data[i]) if self.n_shards > 1 else 0
        want_ssd, ssd_ttl = self.policy.decide_one(
            i, t, kern.free.item(s), kern.lane_capacity.item(s)
        )
        space_frac, frac, spill_time, alloc, release = kern.admit(
            i, t, log._sizes.data.item(i), log._durations.data.item(i), s,
            want_ssd, ssd_ttl,
        )
        self._frac.append(frac)
        self.policy.observe_one(i, t, want_ssd, space_frac, spill_time, s)
        job_id = log.job_ids[i]
        if alloc > 0 and release > self._now:
            self._live[job_id] = (i, s, alloc, float(release))
            self._maybe_sweep_live()
        self._decided += 1
        self.stats.n_decided += 1
        if want_ssd:
            cats = getattr(self.policy, "categories", None)
            if cats is not None and len(cats) > i:
                self._cat_counter(int(cats[i])).inc()
        tr = self.tracer
        if tr is not None and tr.sampled(job_id):
            self._trace_decision(
                tr, i, job_id, t, s, bool(want_ssd), float(space_frac),
                spill_time, float(release),
                getattr(self.policy, "categories", None),
            )
        return PlacementDecision(
            i, job_id, t, s, want_ssd, space_frac, spill_time, float(release),
        )

    # -- tracing ---------------------------------------------------------

    def _trace_decision(
        self, tr, i, job_id, t, lane, want_ssd, frac, spill, release, cats,
    ) -> None:
        """Record one sampled job's span (all timestamps logical).

        ``cats`` is the policy's category column (or ``None``), hoisted
        to the caller so the chunk recorder resolves it once per chunk
        instead of once per span.  The span is built whole and handed
        to :meth:`Tracer.add` — identical structure to the event-by-
        event path, minus its per-event call overhead.
        """
        t = float(t)
        events = [["submit", t, {"index": i}]]
        if cats is not None and len(cats) > i:
            events.append(["categorize", t, {"category": int(cats[i])}])
        events.append(["admit", t, {"want_ssd": want_ssd, "lane": lane}])
        if frac > 0.0:
            events.append(
                ["place", t, {"ssd_fraction": frac, "release": release}]
            )
        if spill is not None and spill == spill:  # skip None and NaN
            events.append(["spill", float(spill), {}])
        tr.add({"job_id": job_id, "events": events})

    def _trace_scan(self) -> None:
        """Advance the sampled-index scan to the current log length.

        With auto-assigned ids (id == submission index, the common
        replay shape) the sampling hash depends only on the integer id,
        so it runs *ahead* of the log in ``_TRACE_SCAN_BLOCK`` strides
        — a handful of vector passes per million decisions instead of
        one per submission.  Custom ids scan the appended suffix once
        (:meth:`~repro.serve.tracing.Tracer.sampled_positions`, one
        vector pass when they are all ints); ``_trace_confirmed``
        tracks how much of the log is known to carry auto ids, so if a
        custom-id append ever lands after the hash ran ahead, the
        speculative tail is dropped and rescanned from the real ids.

        Runs once per pump (the log cannot grow mid-pump); the sampled
        indices are then consumed chunk by chunk through a monotone
        cursor (chunks decide the log strictly in order), and the pump
        skips the recorder call entirely for chunks with nothing
        sampled — at production chunk rates the per-chunk fixed cost,
        not the hash, was the dominant tracing cost.
        """
        tr = self.tracer
        log = self.log
        n = len(log)
        sel = self._trace_sel
        if log._ids_auto:
            if self._trace_scanned < n:
                lo = self._trace_scanned
                hi = max(n, lo + _TRACE_SCAN_BLOCK)
                ids_u = np.arange(lo, hi, dtype=np.uint64)
                hit = np.flatnonzero(
                    ((ids_u * _PRIME_U64) & _MASK32) < np.uint64(tr.threshold)
                )
                sel.extend((lo + hit).tolist())
                self._trace_scanned = hi
        else:
            conf = self._trace_confirmed
            if self._trace_scanned > conf:
                # Ids stopped being auto-assigned after the hash ran
                # ahead: entries above the last confirmed length were
                # hashed from the submission index, which no longer
                # equals the id.  Nothing at or above ``conf`` has been
                # consumed yet (the cursor trails the decided log), so
                # the speculative tail can be dropped wholesale.
                while sel and sel[-1] >= conf:
                    sel.pop()
                self._trace_scanned = conf
            lo = self._trace_scanned
            if lo < n:
                sel.extend(
                    lo + k for k in tr.sampled_positions(log.job_ids[lo:n])
                )
                self._trace_scanned = n
        self._trace_confirmed = n

    def _trace_pump(self, batches) -> None:
        """Record the spans sampled across one pump's decided chunks.

        Pure consumption: :meth:`_trace_scan` already extended
        ``_trace_sel`` past the decided horizon, and the pump only
        calls this when the cursor points below it.  One pass over the
        pump's decision batches replaces a recorder call per chunk —
        at production chunk rates that per-chunk fixed cost, not the
        sampling hash, was the dominant tracing cost.
        """
        tr = self.tracer
        sel = self._trace_sel
        cur = self._trace_cursor
        n_sel = len(sel)
        ids = self.log.job_ids
        cats = getattr(self.policy, "categories", None)
        for db in batches:
            o = db._outcomes
            first = o.first
            stop = first + len(o.times)
            while cur < n_sel and sel[cur] < stop:
                i = sel[cur]
                cur += 1
                # Entries below ``first`` were decided before this
                # instance's cursor existed (a restore from a
                # pre-tracing snapshot rescans the whole log).
                if i < first:
                    continue
                k = i - first
                self._trace_decision(
                    tr, i, ids[i], float(o.times[k]),
                    0 if o.shards is None else int(o.shards[k]),
                    bool(o.requested_ssd[k]), float(o.ssd_space_fraction[k]),
                    float(o.spill_time[k]), float(db._rel[k]), cats,
                )
        self._trace_cursor = cur

    def export_trace(self, path) -> int:
        """Write the tracer's retained spans as JSONL; returns the count."""
        if self.tracer is None:
            raise RuntimeError("service has no tracer")
        return self.tracer.export_jsonl(path)

    # -- batch mode -----------------------------------------------------

    def _pump(self, force: bool = False) -> Sequence[PlacementDecision]:
        """Process every policy chunk the queue can close.

        A chunk closes when the policy's declared run of jobs is fully
        buffered; ``force`` (drain / backpressure) closes it at the
        available horizon instead, mirroring the offline engine's
        end-of-trace clamp.

        Returns the resolved decisions as a lazy sequence (``[]`` when
        nothing resolved): per-job decision objects are built only if
        the caller actually reads them.
        """
        out: list[_DecisionBatch] = []
        log = self.log
        kern = self.kernel
        n = len(log)
        # Peak queue depth is the backlog *before* closable chunks
        # drain, i.e. right after the triggering submission.
        self.stats.max_pending_seen = max(
            self.stats.max_pending_seen, n - self._decided
        )
        tracer = self.tracer
        tracing = tracer is not None and tracer.threshold
        if tracing:
            self._trace_scan()
            t_sel = self._trace_sel
        forcing = force
        while self._decided < n:
            first = self._decided
            if self._plan is None:
                t0 = float(log.arrivals[first])
                s0 = int(log.lanes[first]) if self.n_shards > 1 else 0
                ctx = kern.open_chunk(t0, s0)
                # The release cursor is now at t0, possibly ahead of
                # _now while the chunk waits for more submissions; see
                # _horizon and the complete() guard.
                if t0 > self._horizon:
                    self._horizon = t0
                self._plan = self.policy.decide_batch(first, ctx)
            bd = self._plan
            want = max(1, int(bd.count))
            if want > n - first and not forcing:
                if (
                    self.max_pending is not None
                    and n - self._decided > self.max_pending
                ):
                    forcing = True  # backpressure: stop holding the queue
                    self.stats.forced_chunks += 1
                else:
                    break
            count = min(want, n - first)
            stop = first + count
            self._frac.ensure(n)
            alloc_buf = np.zeros(count, dtype=np.int64)
            rel_buf = np.zeros(count)
            outcomes = kern.run_chunk(
                bd, first, stop,
                log._arrivals.data, log._durations.data, log._sizes.data,
                log._lanes.data if self.n_shards > 1 else None,
                self._frac.data,
                alloc_buf, rel_buf,
            )
            self._frac.n = stop
            self.policy.observe_batch(outcomes)
            t = log._arrivals.data.item(stop - 1)
            if t > self._now:
                self._now = t
            self._track_live_chunk(outcomes, alloc_buf, rel_buf)
            out.append(_DecisionBatch(outcomes, alloc_buf, rel_buf, log.job_ids))
            self._decided = stop
            self.stats.n_decided += count
            self.stats.n_chunks += 1
            self._count_admissions(first, stop, outcomes.requested_ssd)
            self._m_chunk_jobs.observe(count)
            self._plan = None
            n = len(log)
        if tracing and out:
            cur = self._trace_cursor
            if cur < len(t_sel) and t_sel[cur] < self._decided:
                self._trace_pump(out)
        if not out:
            return []
        if len(out) == 1:
            return out[0]
        return _DecisionConcat(out)

    # -- completion events ----------------------------------------------

    def _track_live_chunk(self, outcomes, alloc_buf, rel_buf) -> None:
        """Vectorized live-table insert for one decided chunk."""
        live = np.flatnonzero((alloc_buf > 0) & (rel_buf > self._now))
        if not live.size:
            return
        first = outcomes.first
        lanes = outcomes.shards
        job_ids = self.log.job_ids
        table = self._live
        allocs = alloc_buf[live].tolist()
        rels = rel_buf[live].tolist()
        lanes_l = [0] * live.size if lanes is None else lanes[live].tolist()
        for k, alloc, release, lane in zip(live.tolist(), allocs, rels, lanes_l):
            i = first + k
            table[job_ids[i]] = (i, lane, alloc, release)
        self._maybe_sweep_live()

    def _maybe_sweep_live(self) -> None:
        """Amortized prune of naturally-released live-table entries.

        An entry whose scheduled release has passed is dead weight —
        ``complete`` for it is already a guarded no-op — so instead of
        a per-decision release heap, the table is swept whenever it
        doubles past its post-sweep size.  O(live jobs) memory, O(1)
        amortized per decision.
        """
        if len(self._live) < self._live_sweep_at:
            return
        now = self._now
        self._live = {j: e for j, e in self._live.items() if e[3] > now}
        self._live_sweep_at = max(64, 2 * len(self._live))

    def complete(self, job_id, time: float | None = None) -> bool:
        """Signal that a job finished early, releasing its SSD space now.

        Returns ``True`` when outstanding space was actually freed;
        ``False`` when the job is unknown, held no space, was already
        released by its scheduled timeout, or was already completed — a
        duplicate ``complete`` for the same id is a counted no-op, never
        a double-free.  ``time`` advances the service clock (defaults
        to the last decision time); a timestamp *earlier* than the
        current clock is clamped to it and counted in
        ``ServiceStats.stale_completes`` — time never runs backwards.
        """
        self._ensure_open()
        if self.wal is not None:
            job_id = wal_job_id(job_id)
            self.wal.append(
                {"op": "complete", "job_id": job_id,
                 "time": None if time is None else float(time)}
            )
            self._wal_seq += 1
        if time is not None:
            t = float(time)
            if t < self._now:
                self.stats.stale_completes += 1
                t = self._now
            self._now = t
        entry = self._live.pop(job_id, None)
        # A scheduled release has already fired once the clock passed
        # it, or an opened (still pending) chunk advanced the kernel's
        # release cursor past it: cancelling it then would free the
        # space a second time.
        freed = entry is not None and entry[3] > self._now and entry[3] > self._horizon
        if entry is None:
            self.stats.duplicate_completes += 1
        elif freed:
            index, lane, alloc, release = entry
            if self.mode == "scalar":
                self.kernel.cancel(index, lane, alloc)
            else:
                self.kernel.cancel(lane, alloc, release)
            self.stats.n_completions += 1
        if self.tracer is not None:
            # The caller's timestamp (a deterministic input) when given;
            # the service clock otherwise.
            t_ev = float(time) if time is not None else (
                float(self._now) if np.isfinite(self._now) else 0.0
            )
            self.tracer.event(job_id, "complete", t_ev, freed=freed)
        return freed

    # -- capacity shocks ------------------------------------------------

    def apply_shock(
        self,
        capacity: float | np.ndarray | None = None,
        *,
        lane: int | None = None,
        scale: float | None = None,
    ) -> ShockReport:
        """Change the lane capacity layout mid-stream.

        Three spellings:

        - ``apply_shock(bytes, lane=k)`` — resize one caching server
          (``0`` = lane loss, its old capacity again = restore);
        - ``apply_shock(vector)`` — set the full per-lane layout;
        - ``apply_shock(total)`` / ``apply_shock(scale=f)`` — a quota
          change: the current layout scales proportionally (an even
          split if the fleet currently has zero capacity).

        Queued decisions are flushed first — the shock lands on a chunk
        boundary, never inside one.  Residents that no longer fit are
        evicted latest-release-first through the kernel (each counted
        as a spill and in ``ServiceStats``), their live-table entries
        retired so a later ``complete`` cannot double-free, and
        ``on_shard_topology`` re-fires with the new layout so per-shard
        adaptive thresholds re-adapt; their accumulated state is
        preserved (see
        :meth:`~repro.core.AdaptiveCategoryPolicy.on_shard_topology`).
        """
        self._ensure_open()
        new_caps = self._resolve_shock(capacity, lane, scale)
        if self.wal is not None:
            self.wal.append({"op": "shock", "caps": new_caps.tolist()})
            self._wal_seq += 1
        flushed = self._pump(force=True) if self.mode == "batch" else []
        evicted = []  # (lane, *kernel entry), the allocation last
        for L in range(self.n_shards):
            new, old = float(new_caps[L]), float(self.lane_capacities[L])
            if new == old:
                continue
            evicted += [(L, *e) for e in self.kernel.resize_lane(L, new)]
            # The reported layout keeps the caller's float bytes; the
            # kernel holds them floored.
            self.lane_capacities[L] = new
            self.capacity += new - old
        evicted_bytes = sum(e[-1] for e in evicted)
        if evicted:
            self._purge_live(evicted)
        self.policy.on_shard_topology(
            self._shards_ref, self.lane_capacities.copy()
        )
        self.stats.n_shocks += 1
        self.stats.n_evicted += len(evicted)
        self.stats.evicted_bytes += evicted_bytes
        return ShockReport(
            time=float(self._now) if np.isfinite(self._now) else 0.0,
            lane_capacities=self.lane_capacities.copy(),
            n_evicted=len(evicted),
            evicted_bytes=evicted_bytes,
            flushed=len(flushed),
            decisions=tuple(flushed),
        )

    def _resolve_shock(self, capacity, lane, scale) -> np.ndarray:
        """Resolve one shock spelling to the new per-lane layout."""
        cur = np.asarray(self.lane_capacities, dtype=float)
        if scale is not None:
            if capacity is not None or lane is not None:
                raise ValueError("scale= excludes capacity=/lane=")
            if scale < 0:
                raise ValueError("scale must be >= 0")
            return cur * float(scale)
        if capacity is None:
            raise ValueError("apply_shock needs capacity= or scale=")
        if lane is not None:
            if not 0 <= lane < self.n_shards:
                raise ValueError(f"lane {lane} out of range")
            cap = float(np.asarray(capacity, dtype=float))
            if cap < 0:
                raise ValueError("capacity must be >= 0")
            new = cur.copy()
            new[lane] = cap
            return new
        arr = np.asarray(capacity, dtype=float)
        if arr.ndim == 0:
            total = float(arr)
            if total < 0:
                raise ValueError("capacity must be >= 0")
            cur_total = float(cur.sum())
            if cur_total > 0:
                return cur * (total / cur_total)
            return np.full(self.n_shards, total / self.n_shards)
        if arr.shape != (self.n_shards,):
            raise ValueError(
                f"capacity vector has {arr.size} entries for "
                f"{self.n_shards} shards"
            )
        if (arr < 0).any():
            raise ValueError("capacity must be >= 0")
        return arr.astype(float)

    def _purge_live(self, evicted) -> None:
        """Retire evicted jobs from the live table.

        Scalar evictions ``(lane, release, index, alloc)`` carry the job
        index; chunk evictions ``(lane, release, alloc)`` are matched by
        those values — the table carries them verbatim, so matches are
        exact.  A float ``alloc`` from a checkpoint written before the
        integer ledger floors, as the kernel's restored entry did.
        """
        live = self._live
        if self.mode == "scalar":
            gone = {e[2] for e in evicted}
            for jid in [j for j, v in live.items() if v[0] in gone]:
                del live[jid]
            return
        want = Counter(evicted)
        for jid, (_, lane, alloc, release) in list(live.items()):
            key = (lane, release, int(alloc))
            if want[key]:
                want[key] -= 1
                del live[jid]

    # -- checkpointing --------------------------------------------------

    def snapshot(self) -> ServiceSnapshot:
        """Checkpoint the full mutable state of the service.

        The policy, kernel, log, queue (including any pending jobs and
        cached chunk plan) and live-job table are deep copied as one
        object graph (shared references — e.g. a policy bound to the
        service's log — stay shared inside the copy).  A replay trace
        handed to :meth:`open` is not copied: it is immutable input,
        and both the live service and every restore keep referencing
        the original.  The write-ahead log handle is excluded — only
        its sequence number travels, as the snapshot's WAL anchor.
        """
        memo: dict = {}
        trace = getattr(self.policy, "_trace", None)
        if trace is not None and trace is not self.log:
            memo[id(trace)] = trace
        payload = {k: v for k, v in self.__dict__.items() if k != "wal"}
        payload = copy.deepcopy(payload, memo)
        payload["wal"] = None
        payload["__schema__"] = SNAPSHOT_SCHEMA
        payload["__version__"] = __version__
        return ServiceSnapshot(
            payload=payload,
            n_submitted=self.stats.n_submitted,
            n_decided=self._decided,
            n_pending=self.pending,
            wal_seq=self._wal_seq,
        )

    @staticmethod
    def _check_schema(payload: dict, expected: int, what: str) -> None:
        """Refuse a payload this library version cannot restore."""
        schema = payload.get("__schema__")
        if schema != expected:
            wrote = payload.get("__version__")
            wrote = (
                f"library version {wrote}" if wrote is not None
                else "an older library version (no schema tag)"
            )
            raise SnapshotMismatch(
                f"{what} has schema {schema!r}, this library "
                f"(version {__version__}) restores schema {expected}; "
                f"it was written by {wrote} — re-create the checkpoint "
                "with a matching version"
            )

    @classmethod
    def restore(cls, snapshot: ServiceSnapshot) -> "PlacementService":
        """Rebuild a service from a snapshot (the snapshot stays intact).

        Raises :class:`~repro.serve.types.SnapshotMismatch` when the
        snapshot's schema tag is one this library cannot restore — e.g.
        a checkpoint written by an incompatible version — instead of
        silently rebuilding a service with missing or misshapen state.
        Older-but-compatible schemas
        (:data:`~repro.serve.types.COMPAT_SNAPSHOT_SCHEMAS`) restore by
        backfilling the missing state with fresh defaults: a
        pre-metrics payload gets a fresh registry (counters restart
        rather than KeyError), a pre-alerting payload gets no
        manager/tracer.
        """
        payload = snapshot.payload
        if payload.get("__schema__") not in COMPAT_SNAPSHOT_SCHEMAS:
            cls._check_schema(payload, SNAPSHOT_SCHEMA, "service snapshot")
        trace = getattr(payload["policy"], "_trace", None)
        memo: dict = {}
        if trace is not None and trace is not payload["log"]:
            memo[id(trace)] = trace
        svc = object.__new__(cls)
        state = copy.deepcopy(payload, memo)
        state.pop("__schema__", None)
        state.pop("__version__", None)
        svc.__dict__ = state
        if "registry" not in state:
            # Pre-metrics checkpoint (schema 1): fresh surface.
            svc.registry = MetricsRegistry()
        # Resolve the instruments again rather than trusting the cached
        # references: get-or-create hands back the restored ones, values
        # intact, with this library's help text.
        svc._init_metrics()
        state.setdefault("alerts", None)
        state.setdefault("tracer", None)
        state.setdefault("_clock", state.get("_now", -np.inf))
        state.setdefault("_trace_sel", [])
        state.setdefault("_trace_scanned", 0)
        state.setdefault("_trace_confirmed", 0)
        state.setdefault("_trace_cursor", 0)
        # Same-schema checkpoints from before the derived-metric table,
        # before the engine / track_jobs knobs were removed, and before
        # the submission core took the replay state as arguments.
        for stale in ("_pinned", "_alert_sync", "engine", "track_jobs",
                      "_wal_rec", "_replay_cats", "_replaying"):
            state.pop(stale, None)
        # Wall-clock gauges restart with the restored instance; the
        # checkpointed perf_counter origin belongs to a dead process.
        svc._metrics_t0 = perf_counter()
        return svc

    def checkpoint(self, path) -> ServiceSnapshot:
        """Pickle a :meth:`snapshot` to ``path`` atomically.

        Written to a temp file then renamed, so a crash mid-checkpoint
        leaves the previous checkpoint intact.  Returns the snapshot.
        """
        snap = self.snapshot()
        path = str(path)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(snap, fh)
        os.replace(tmp, path)
        return snap

    @classmethod
    def recover(cls, checkpoint, wal) -> "PlacementService":
        """Rebuild the exact pre-crash service from checkpoint + WAL.

        ``checkpoint`` is a :class:`ServiceSnapshot` or a path written
        by :meth:`checkpoint`; ``wal`` a
        :class:`~repro.serve.wal.WriteAheadLog` or its path.  The
        snapshot is restored and every intact WAL record past its
        ``wal_seq`` anchor is replayed (submissions through the
        submission core at their original micro-batch granularity,
        with their recorded categories; completes; shocks; drains) —
        the same deterministic kernels run the same operations in the
        same order, so the recovered state matches the uninterrupted
        run bit for bit.  The WAL stays attached: the service keeps
        appending where the crashed instance left off.
        """
        if not isinstance(checkpoint, ServiceSnapshot):
            with open(checkpoint, "rb") as fh:
                loaded = pickle.load(fh)
            if not isinstance(loaded, ServiceSnapshot):
                raise SnapshotMismatch(
                    f"checkpoint file holds a {type(loaded).__name__}, "
                    "not a ServiceSnapshot — wrong file or incompatible "
                    "library version"
                )
            checkpoint = loaded
        opened = not isinstance(wal, WriteAheadLog)
        if opened:
            wal = WriteAheadLog(wal)
        try:
            svc = cls.restore(checkpoint)  # no WAL attached: replay logs nothing
            for seq, rec in wal.records(checkpoint.wal_seq):
                svc._apply_wal_record(rec)
                svc._wal_seq = seq + 1
        except BaseException:
            if opened:
                wal.close()
            raise
        svc.wal = wal
        return svc

    def _apply_wal_record(self, rec: dict) -> None:
        """Replay one WAL record.

        A submission record — a column frame, or a line written before
        frames existed — becomes log rows (plus the rich jobs it
        carries) and runs through the submission core with its
        recorded categories.  The op no longer names an entry point: it
        only picks the latency histogram the replay counts in.
        """
        op = rec.get("op")
        if op == "complete":
            self.complete(rec["job_id"], time=rec["time"])
            return
        if op == "drain":
            self.drain()
            return
        if op == "shock":
            self.apply_shock(np.asarray(rec["caps"], dtype=float))
            return
        if op not in ("submit", "batch", "jobs"):
            raise WalCorruption(f"unknown WAL record op {op!r}")
        self._ensure_open()
        t_req = perf_counter()
        cols, jobs, ids = rec.get("columns"), rec.get("jobs"), rec.get("job_ids")
        replayed = (rec["cats"], bool(rec.get("degraded"))) if "cats" in rec else None
        if op == "submit":
            if cols is None:  # a legacy line
                row = [rec[k] for k in (
                    "arrival", "duration", "size", "read_bytes", "write_bytes",
                    "read_ops", "pipeline", "user", "job_id",
                )]
            elif jobs is None:
                row = [float(c[0]) for c in cols]
                row += [rec["pipelines"][0], rec["users"][0],
                        None if ids is None else ids[0]]
            else:
                row = [float(c[0]) for c in cols]
                row += [jobs[0].pipeline, jobs[0].user, rec.get("log_id", ids[0])]
            first = self.log.append_job(*row)
            self._submitted(first, first + 1, jobs, None, replayed, self._m_request, t_req)
            return
        if cols is None and op == "jobs":
            jobs = [job_from_record(d) for d in jobs]
            ids = [j.job_id for j in jobs]
        elif cols is None:
            cols = [rec[k] for k in ("arrivals", "durations", "sizes",
                                     "read_bytes", "write_bytes", "read_ops")]
        self._submit_block(
            t_req, cols, rec.get("pipelines"), rec.get("users"), ids, jobs, replayed
        )

    # -- results --------------------------------------------------------

    def result(
        self, drain: bool = True, aggregate_only: bool = False
    ) -> SimResult:
        """Roll the decisions so far up into a
        :class:`~repro.storage.engine.SimResult`.

        Costs are computed over the service's job log — for a full
        replay this is column-for-column the input trace, so the result
        is bit-identical to the offline engine's.  ``drain`` (default)
        flushes queued jobs first; with ``drain=False`` the call raises
        if undecided jobs remain.  ``aggregate_only`` drops the per-job
        array exactly as ``run_placement(..., aggregate_only=True)``.
        """
        self._ensure_open()
        if drain:
            self.drain()
        elif self.pending:
            raise RuntimeError(
                f"{self.pending} submitted jobs still queued; drain() first "
                "or call result(drain=True)"
            )
        kern = self.kernel
        scalar_fallback = 0 if self.mode == "scalar" else kern.scalar_fallback_jobs
        return _finalize(
            self.log, self.policy, self.capacity, self.lane_capacities.copy(),
            self.n_shards, self.rates,
            self._frac.view().copy(),
            kern.n_ssd_requested, kern.n_spilled, kern.peak_used,
            scalar_fallback_jobs=scalar_fallback,
            aggregate_only=aggregate_only,
        )

    # -- replay ---------------------------------------------------------

    def replay(
        self, trace, batch_jobs: int | None = None
    ) -> SimResult:
        """Drive a whole trace through the service and return the result.

        Opens the service in replay mode, submits the trace — job by
        job in ``"scalar"`` mode, in micro-batches of ``batch_jobs``
        (default: one batch) in ``"batch"`` mode — then drains and
        finalizes.  The result is bit-identical to
        ``run_placement(trace, ...)`` with the matching engine.
        """
        from ..workloads.streaming import materialize_trace

        trace = materialize_trace(trace)
        self.open(trace)
        n = len(trace)
        if self.mode == "scalar":
            for i in range(n):
                self.submit(
                    arrival=trace.arrivals[i],
                    duration=trace.durations[i],
                    size=trace.sizes[i],
                    read_bytes=trace.read_bytes[i],
                    write_bytes=trace.write_bytes[i],
                    read_ops=trace.read_ops[i],
                    pipeline=trace.pipelines[i],
                )
        else:
            step = max(n, 1) if batch_jobs is None else max(int(batch_jobs), 1)
            pipelines = trace.pipelines
            for lo in range(0, n, step):
                hi = min(lo + step, n)
                self.submit_batch(
                    trace.arrivals[lo:hi], trace.durations[lo:hi],
                    trace.sizes[lo:hi], trace.read_bytes[lo:hi],
                    trace.write_bytes[lo:hi], trace.read_ops[lo:hi],
                    pipelines=pipelines[lo:hi],
                )
        return self.result()
